"""Prediction data model: per-sample, per-pass class-probability rows.

A :class:`PredictionTensor` holds the raw stochastic output of a model as a
dense (sample, pass, class) array of probability rows. A :class:`LabelSet`
holds ground-truth class indices keyed by the same sample ids. Both are
immutable after construction and validate their invariants eagerly.

File formats (all CSV, UTF-8, ``.`` decimal separator):

* predictions: header ``sample_id,pass_id,p_0,...,p_{C-1}``; pass ids are
  the contiguous integers ``0..T-1`` within each sample; the path must end
  in ``.csv``, in any case;
* labels: header ``sample_id,label``.

Predictions, labels and summaries files share one reader,
:func:`read_table`, and one concatenation of its chunks,
:func:`table_columns`, for rows of an id, an integer, then floats. Every CSV
table but a predictions file is written by one writer, :func:`csv_table`.

Sample ids are unique strings without line breaks that UTF-8 can encode.
They are checked once, where they enter the package: a tensor, label set or
summaries built from plain ids holds them as a :class:`SampleIds`, and an
object derived from another (summaries from a tensor) shares that same
tuple instead of checking it again. CSV writers quote ids by the csv
module's minimal rules, so ids such as ``a,1`` or ``#x`` load back
unchanged. Only a ``#`` line at the very top of a file is a comment:
the CLI uses it to stamp a run-manifest digest into CSV artifacts. Every
artifact is written through :func:`artifact_file`, so it replaces an earlier
file at its path only once it is complete. A predictions file is rendered
with array operations by :func:`_render_rows`, a job of rows at a time, in
this process.

Labels meet predictions in one place, :func:`aligned_labels`, which every
evaluation calls once to reorder a :class:`LabelSet` to its sample order and
to reject ids that do not match and labels outside the class range.
"""

from __future__ import annotations

import csv
import functools
import io
import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, cycle, islice, repeat

import numpy as np

from .errors import AlignmentError, FormatError, ValidationError

ROW_SUM_TOL = 1e-6
RENORMALIZE_BAND = 1e-3
FLOAT_MAX = float(np.finfo(np.float64).max)

# Probabilities render at 9 significant digits; parsing a rendered value and
# re-rendering it reproduces the same text, so files round-trip byte-equal.
PROB_FORMAT = "%.9g"

# Lines of a text artifact read and parsed at a time; bounds the text and the
# Python objects a predictions load holds at once.
CHUNK_ROWS = 8192

# Probability values rendered by one save_predictions job. A job is rendered
# and written before the next starts, and its arrays peak at about 80 bytes a
# value, so the writer works in under 1 MB; larger jobs are only ~5% faster.
SAVE_JOB_VALUES = 2**13


class SampleIds(tuple):
    """Sample ids as strings: unique, free of line breaks, and writable as UTF-8.

    Building one checks the ids, unless they already are a ``SampleIds``, which
    is returned unchanged. Every object holding ids keeps them as one, so ids
    are checked once and shared by the objects derived from them. A pickled or
    copied ``SampleIds`` is built, and so checked, again.

    Every id is held as an exact ``str``. ``str()`` is called on them only if
    some id is of another type (an int, a ``numpy.str_`` or another ``str``
    subclass), since one type test per id costs a third of one call per id.
    """

    __slots__ = ()

    def __new__(cls, sample_ids):
        if type(sample_ids) is SampleIds:
            return sample_ids
        ids = tuple(sample_ids)
        if set(map(type, ids)) - {str}:
            ids = tuple(map(str, ids))
        if len(set(ids)) != len(ids):
            duplicate = next(s for s, n in Counter(ids).items() if n > 1)
            raise ValidationError(f"duplicate sample id {duplicate!r}")
        joined = "".join(ids)
        if "\n" in joined or "\r" in joined:
            broken = next(s for s in ids if "\n" in s or "\r" in s)
            raise ValidationError(f"sample id {broken!r} contains a line break")
        try:
            joined.encode("utf-8")
        except UnicodeEncodeError as exc:
            # no earlier id holds an unencodable character, so the first holding this one is it
            broken = next(s for s in ids if joined[exc.start] in s)
            raise ValidationError(f"sample id {broken!r} cannot be written as UTF-8") from None
        return super().__new__(cls, ids)

    def __reduce__(self):
        return SampleIds, (tuple(self),)


def csv_fields(values) -> list[str]:
    """Each string rendered as one CSV field, quoted where the csv module would."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(zip(values))
    return buf.getvalue().split("\n")[:-1]


# Full precision: float() reads each rendered double back bit for bit.
FULL_FORMAT = "%.17g"


def csv_table(header, fields, *columns) -> str:
    """CSV text: the ``header`` names, then one line per row of ``columns``.

    ``fields[j]`` is the ``%`` conversion of column ``j`` (``%d``,
    :data:`FULL_FORMAT`, or ``%s`` for text already rendered as a CSV field,
    such as :func:`csv_fields` ids). Values fill one template and are never
    part of it, so an id may hold ``%``. A column given as a list may hold
    ``None`` for an undefined value, which is written ``n/a``.
    """
    fields = list(fields)
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    for j, column in enumerate(columns):
        if None in column:
            columns[j] = ["n/a" if v is None else fields[j] % v for v in column]
            fields[j] = "%s"
    rows = list(zip(*columns))
    template = ",".join(fields) + "\n"
    return ",".join(header) + "\n" + (template * len(rows)) % tuple(chain.from_iterable(rows))


def check_class_columns(path, names) -> None:
    """Require the class columns of a table to be named ``p_0..p_{C-1}``, in order."""
    for i, name in enumerate(names):
        if name != f"p_{i}":
            raise FormatError(f"{path}: probability column {i} named {name!r}, expected p_{i}")


@contextmanager
def artifact_file(path, header_comment: str | None = None):
    """Binary handle on an artifact that appears at ``path`` whole or not at all.

    Bytes are written, after the UTF-8 line ``# header_comment`` if given, to
    a new temporary file beside ``path``, which replaces ``path`` when the
    block completes. If the block raises, the temporary file is removed and
    ``path`` keeps what it held before.
    """
    # the temporary name does not grow with the artifact's, so any name that fits fits here
    tmp = os.path.join(os.path.dirname(os.fspath(path)), f".uqeval-{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except OSError as exc:  # name the artifact, not its temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            if header_comment is not None:
                fh.write(f"# {header_comment}\n".encode())
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_artifact(path, text: str, header_comment: str | None = None) -> str:
    """Write ``text`` as UTF-8 through :func:`artifact_file`, and return it."""
    with artifact_file(path, header_comment) as fh:
        fh.write(text.encode())
    return text


# np.sum over an axis of fewer than 8 elements adds them one after another,
# starting from +0.0 (so a sum of -0.0s is 0.0); from 8 elements it sums
# pairwise. Adding whole slices in that order gives the same bits without
# numpy's reduction once per row, which dominates when the axis is short.
SEQUENTIAL_SUM_MAX = 7


def _added(slices) -> np.ndarray:
    total = next(slices) + 0.0
    for part in slices:
        total += part
    return total


def class_sums(rows: np.ndarray) -> np.ndarray:
    """``rows.sum(axis=-1)``, bit for bit, for float64 rows of any shape."""
    n_classes = rows.shape[-1]
    if n_classes > SEQUENTIAL_SUM_MAX:
        return rows.sum(axis=-1)
    return _added(rows[..., c] for c in range(n_classes))


def pass_means(probs: np.ndarray) -> np.ndarray:
    """``probs.mean(axis=1)`` of a float64 (samples, passes, classes) array, bit for bit.

    numpy reduces a middle axis by adding its slices in order, whatever its length.
    """
    return _added(probs[:, t] for t in range(probs.shape[1])) / probs.shape[1]


def _validate_rows(probs: np.ndarray, renormalize: bool) -> np.ndarray:
    # one min and one max test every value; a NaN fails both, and only a
    # failed test pays for the finite test that picks the message
    if not (probs.min() >= 0.0 and probs.max() <= 1.0):
        if not np.isfinite(probs).all():
            raise ValidationError("probabilities must be finite")
        raise ValidationError("probabilities must lie in [0, 1]")
    sums = class_sums(probs)
    # the largest deviation tests every row; the mask is built only to name the first row off
    tolerance = RENORMALIZE_BAND if renormalize else ROW_SUM_TOL
    deviation = np.abs(sums - 1.0)
    if deviation.max() > tolerance:
        idx = tuple(np.argwhere(deviation > tolerance)[0].tolist())
        if renormalize:
            raise ValidationError(
                f"row {idx} sums to {sums[idx]:.6g}, outside the renormalization "
                f"band 1±{RENORMALIZE_BAND:g}"
            )
        raise ValidationError(
            f"row {idx} sums to {sums[idx]:.9g}, deviating from 1 by more "
            f"than {ROW_SUM_TOL:g} (use renormalize for near-normalized rows)"
        )
    return probs / sums[..., np.newaxis] if renormalize else probs


@dataclass(frozen=True, eq=False)
class PredictionTensor:
    """Dense (n_samples, n_passes, n_classes) array of probability rows.

    ``probs[i, t]`` is the class distribution produced for sample
    ``sample_ids[i]`` on forward pass ``t``. Rows must sum to 1 within
    ``ROW_SUM_TOL``; pass ``renormalize=True`` to rescale rows whose sum is
    within ``1±RENORMALIZE_BAND`` instead of rejecting them.
    """

    probs: np.ndarray
    sample_ids: tuple[str, ...]
    renormalize: bool = field(default=False, repr=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.ndim != 3:
            raise ValidationError(
                f"probs must have shape (samples, passes, classes), got {probs.shape}"
            )
        n_samples, n_passes, n_classes = probs.shape
        if n_samples < 1:
            raise ValidationError("need at least one sample")
        if n_passes < 1:
            raise ValidationError("need at least one forward pass")
        if n_classes < 2:
            raise ValidationError("need at least two classes")
        ids = SampleIds(self.sample_ids)
        if len(ids) != n_samples:
            raise ValidationError(
                f"{len(ids)} sample ids for {n_samples} samples"
            )
        probs = _validate_rows(probs, self.renormalize)
        probs = np.ascontiguousarray(probs)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "renormalize", False)

    @property
    def n_samples(self) -> int:
        return self.probs.shape[0]

    @property
    def n_passes(self) -> int:
        return self.probs.shape[1]

    @property
    def n_classes(self) -> int:
        return self.probs.shape[2]


def is_integer(value) -> bool:
    """The integer rule: ``value`` is a Python or numpy integer by type, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_seed(value) -> bool:
    """The seed rule: ``value`` is an integer that is not negative, so numpy can seed from it."""
    return is_integer(value) and value >= 0


def require_integer(value, name: str, minimum: int | None = None, too_small: str = "") -> int:
    """``value`` as an int, if it is an integer of at least ``minimum``; else ``too_small``."""
    if not is_integer(value):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(too_small)
    return int(value)


def require_seed(value, name: str = "seed") -> int:
    """``value`` as an int if it is a seed (:func:`is_seed`)."""
    if not is_seed(value):
        raise ValidationError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def is_real(value) -> bool:
    """The real rule: ``value`` is an integer or a float by type, and finite as a Python float."""
    if isinstance(value, (float, np.floating)):
        return math.isfinite(value)
    return is_integer(value) and bool(-FLOAT_MAX <= value <= FLOAT_MAX)


def require_real(value, name: str, low: float = -np.inf, high: float = np.inf,
                 out_of_range: str = "{name} {value} outside [{low:g}, {high:g}]") -> float:
    """``value`` as a float, if it is a real from ``low`` to ``high``; else ``out_of_range``."""
    if not is_real(value):
        raise ValidationError(f"{name} {value!r} is not a finite number")
    if not low <= (value := float(value)) <= high:
        raise ValidationError(out_of_range.format(name=name, value=value, low=low, high=high))
    return value


def require_choice(value, name: str, choices: tuple[str, ...]) -> str:
    """``value``, if it is one of the strings ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ValidationError(f"{name} must be one of {choices}, got {value!r}")
    return value


def require_sequence(values, name: str) -> tuple:
    """``values`` as a tuple, if it is an iterable other than a string."""
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise ValidationError(f"{name} must be a sequence, got {values!r}")
    return tuple(values)


def int64_labels(labels) -> np.ndarray:
    """``labels`` as a new int64 array, if every value is a finite integer that fits in 64 bits."""
    labels = np.asarray(labels)
    if labels.size and not np.issubdtype(labels.dtype, np.integer):
        if not np.all(np.isfinite(labels) & (labels == np.floor(labels))):
            raise ValidationError("labels must be integers")
        beyond = labels[(labels >= 2.0**63) | (labels < -2.0**63)]
        if beyond.size:
            raise ValidationError(f"label {float(beyond[0])!r} does not fit in 64 bits")
    return labels.astype(np.int64)


def class_indices(labels) -> np.ndarray:
    """``labels`` as a new int64 array, if every value is a finite, nonnegative integer."""
    labels = int64_labels(labels)
    if np.any(labels < 0):
        raise ValidationError("labels must be nonnegative class indices")
    return labels


@dataclass(frozen=True, eq=False)
class LabelSet:
    """Ground-truth class index per sample id."""

    sample_ids: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self):
        ids = SampleIds(self.sample_ids)
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.shape[0] != len(ids):
            raise ValidationError(
                f"{labels.shape} labels for {len(ids)} sample ids"
            )
        labels = class_indices(labels)
        labels.flags.writeable = False
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.sample_ids)


def aligned_labels(sample_ids, labels: LabelSet, n_classes: int) -> np.ndarray:
    """Labels reordered to ``sample_ids``, each a valid index for ``n_classes``.

    The id sets must match exactly; a mismatch raises :class:`AlignmentError`
    reporting the symmetric difference. A label outside ``0..n_classes-1``
    raises :class:`ValidationError` naming its sample.
    """
    wanted = sample_ids if isinstance(sample_ids, tuple) else tuple(sample_ids)
    if wanted == labels.sample_ids:
        arr = labels.labels
    else:
        have, want = set(labels.sample_ids), set(wanted)
        if have != want:
            only_left = sorted(want - have)
            only_right = sorted(have - want)
            parts = []
            if only_left:
                parts.append(f"missing labels for {only_left}")
            if only_right:
                parts.append(f"labels without predictions for {only_right}")
            raise AlignmentError("; ".join(parts), only_left, only_right)
        position = dict(zip(labels.sample_ids, range(len(labels))))
        arr = labels.labels[np.fromiter(map(position.__getitem__, wanted), np.intp, len(wanted))]
    out_of_range = arr >= n_classes
    if out_of_range.any():
        bad = int(np.argmax(out_of_range))
        raise ValidationError(
            f"label {int(arr[bad])} for sample {wanted[bad]!r} is out of range for "
            f"{n_classes} classes"
        )
    return arr


def data_line_chunks(path):
    """The data lines of a text artifact, ``CHUNK_ROWS`` lines of the file at a time.

    Yields ``(line numbers, lines)`` pairs. Lines end at ``\\n``, ``\\r`` or
    ``\\r\\n``, which are stripped; blank lines and a ``#`` line at the very top
    of the file are left out. A file that is not UTF-8 raises :class:`FormatError`.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            start = 1
            while raw := list(islice(fh, CHUNK_ROWS)):
                lines = list(map(str.rstrip, raw, repeat("\r\n")))
                numbers = range(start, start + len(lines))
                if start == 1 and lines[0].startswith("#"):
                    lines[0] = ""
                start += len(lines)
                if "" in lines:
                    kept = [(n, line) for n, line in zip(numbers, lines) if line]
                    numbers, lines = [n for n, _ in kept], [line for _, line in kept]
                if lines:
                    yield numbers, lines
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_table(path, kind: str):
    """The header and rows of a CSV file whose rows are an id, an integer, then floats.

    Returns ``(header, chunks)``. ``chunks`` parses the rows ``CHUNK_ROWS`` lines
    at a time and yields ``(ids, integers, values)`` for each, with the floats
    of its rows as a ``(rows, fields - 2)`` array in ``values``. Every row must
    have as many fields as the header, and the first malformed line is named.
    ``kind`` names the file in the error for an empty one.
    """
    chunks = data_line_chunks(path)
    numbers, lines = next(chunks, ((), ()))
    if not lines:
        raise FormatError(f"{path}: empty {kind} file")
    header = next(csv.reader([lines[0]]))
    return header, _table_chunks(path, header, chain([(numbers[1:], lines[1:])], chunks))


def _table_chunks(path, header, chunks):
    width = len(header)
    # every field but the first two of a row is a float
    float_fields = [False, False] + [True] * (width - 2)
    for numbers, lines in chunks:
        if not lines:
            continue
        n = len(lines)
        text = ",".join(lines)
        # without quotes, csv splits at every comma; a chunk holding one goes line by line
        if '"' not in text and set(map(str.count, lines, repeat(","))) == {width - 1}:
            fields = text.split(",")
            try:
                integers = np.fromiter(map(int, fields[1::width]), np.int64, n)
                values = np.fromiter(map(float, compress(fields, cycle(float_fields))),
                                     np.float64, n * (width - 2))
            except (ValueError, OverflowError):
                pass
            else:
                yield fields[::width], integers, values.reshape(n, width - 2)
                continue
        yield _table_rows_by_line(path, numbers, lines, header)


def _table_rows_by_line(path, numbers, lines, header):
    """The rows of one chunk of a table, a line at a time by csv rules; names the first malformed line."""
    width, column = len(header), header[1].replace("_", " ")
    ids, integers, values = [], [], []
    for lineno, line in zip(numbers, lines):
        cells = next(csv.reader([line]))
        if len(cells) != width:
            raise FormatError(f"{path}:{lineno}: expected {width} fields, got {len(cells)}")
        try:
            integers.append(int(cells[1]))
            values.extend(map(float, cells[2:]))
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: malformed row: {exc}") from exc
        if not -2**63 <= integers[-1] < 2**63:
            raise FormatError(f"{path}:{lineno}: {column} {integers[-1]} does not fit in 64 bits")
        ids.append(cells[0])
    return ids, np.array(integers, np.int64), np.array(values, np.float64).reshape(len(ids), width - 2)


def table_columns(header, chunks):
    """All the rows :func:`read_table` parses: ids, integers, and a (rows, fields - 2) float array."""
    ids, integers, values = [], [np.empty(0, np.int64)], [np.empty((0, len(header) - 2))]
    for chunk_ids, chunk_integers, chunk_values in chunks:
        ids.extend(chunk_ids)
        integers.append(chunk_integers)
        values.append(chunk_values)
    return tuple(ids), np.concatenate(integers), np.concatenate(values)


def load_predictions(path, renormalize: bool = False) -> PredictionTensor:
    """Parse a predictions CSV file, whose path ends in ``.csv``, into a validated tensor.

    Sample order follows first appearance in the file. The file is parsed
    ``CHUNK_ROWS`` lines at a time; every row must parse, with as many fields
    as the header, before rows are checked against each other, so a malformed
    line is reported before a duplicate or missing pass.
    """
    _check_extension(path)
    header, chunks = read_table(path, "predictions")
    if header[:2] != ["sample_id", "pass_id"] or len(header) < 4:
        raise FormatError(
            f"{path}: expected header sample_id,pass_id,p_0,...,p_{{C-1}}, got {header}"
        )
    check_class_columns(path, header[2:])
    row_ids, passes, values = table_columns(header, chunks)
    if not row_ids:
        raise FormatError(f"{path}: no prediction rows")
    # sample id -> sample index, by first appearance
    position = dict(zip(dict.fromkeys(row_ids), range(len(row_ids))))
    samples = np.fromiter(map(position.__getitem__, row_ids), np.int64, len(row_ids))
    del row_ids  # a string a row: freed before the rows are reordered
    return _rows_to_tensor(path, tuple(position), samples, passes, values, renormalize)


def _rows_to_tensor(path, ids, samples, passes, values, renormalize) -> PredictionTensor:
    """Group rows by sample and pass; reject what the first failing row or sample breaks.

    ``samples[r]`` indexes ``ids``, ``passes[r]`` is the pass id of row ``r``
    and ``values[r]`` its probabilities.
    """
    order = np.lexsort((passes, samples))  # stable: equal keys keep file order
    by_sample, by_pass = samples[order], passes[order]
    repeats = order[1:][(by_sample[1:] == by_sample[:-1]) & (by_pass[1:] == by_pass[:-1])]
    if repeats.size:
        first = int(repeats.min())
        raise FormatError(f"{path}: duplicate (sample_id, pass_id) "
                          f"({ids[samples[first]]!r}, {passes[first]})")
    counts = np.bincount(samples)
    if np.any(counts != counts[0]):
        raise FormatError(f"{path}: ragged pass counts across samples: {sorted(set(counts.tolist()))}")
    grid = by_pass.reshape(len(ids), -1)
    n_passes = grid.shape[1]
    gaps = np.any(grid != np.arange(n_passes), axis=1)
    if gaps.any():
        i = int(np.argmax(gaps))
        raise FormatError(
            f"{path}: sample {ids[i]!r} pass ids {grid[i].tolist()} are not "
            f"the contiguous range 0..{n_passes - 1}"
        )
    probs = values[order].reshape(len(ids), n_passes, values.shape[1])
    try:
        return PredictionTensor(probs, ids, renormalize=renormalize)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_predictions(tensor: PredictionTensor, path, header_comment: str | None = None) -> None:
    """Write a tensor as a predictions CSV file, whose path ends in ``.csv``.

    :func:`load_predictions` parses it back. Probabilities read as
    ``PROB_FORMAT`` renders them, at 9 significant digits. ``header_comment``
    (no leading ``#``) is written as the first line for manifest stamping. The
    samples are cut into contiguous jobs of about :data:`SAVE_JOB_VALUES`
    probabilities, each rendered by :func:`_render_rows` and written, one write
    a job, through :func:`artifact_file`.
    """
    _check_extension(path)
    n_samples, n_passes, n_classes = tensor.probs.shape
    header = "sample_id,pass_id," + ",".join(f"p_{c}" for c in range(n_classes)) + "\n"
    heads = _words([(SAMPLE_MARK if t == 0 else ROW_MARK) + f",{t},".encode()
                    for t in range(n_passes)])
    followers = _words([b","] * (n_classes - 1) + [b"\n"]).ravel()
    prefixes = [prefix.encode() for prefix in csv_fields(tensor.sample_ids)]
    step = max(1, SAVE_JOB_VALUES // (n_passes * n_classes))
    with artifact_file(path, header_comment) as fh:
        fh.write(header.encode())
        for i in range(0, n_samples, step):
            fh.write(_render_rows(tensor.probs[i:i + step], prefixes[i:i + step], heads, followers))


# The byte that starts each rendered row until its sample's id prefix takes
# its place: SAMPLE_MARK starts a sample's first row and ROW_MARK each later
# one. Neither is NUL, the padding, nor a byte of a number or a row's text.
SAMPLE_MARK, ROW_MARK = b"\x02", b"\x01"

# A probability x in [1e-4, 1) has z = (x < 0.1) + (x < 0.01) + (x < 0.001)
# zeros after the point: the double nearest 10^-n lies above 10^-n, so each
# comparison is exact. Its 9 digits are rint(x * 10^(9 + z)): one correctly
# rounded product by an exact power of ten, off by less than 6e-8 below 2^30.
DIGIT_SCALES = 10.0 ** np.arange(9, 13)

# Where a scaled value lies within HALF_MARGIN of a half, rint may round it the
# other way from the exact product, so SLOT_FORMAT renders the value instead.
HALF_MARGIN = 1e-6

# PROB_FORMAT padded with spaces to a value's slot of 16 bytes; no rendering
# is longer than the 15 characters of "4.94065646e-324".
SLOT_FORMAT = "%-16.9g"


def _words(texts: list[bytes]) -> np.ndarray:
    """``texts`` as rows of 4-byte words, each padded with NUL to the longest."""
    width = -(-max(map(len, texts)) // 4) * 4
    padded = b"".join(text.ljust(width, b"\0") for text in texts)
    return np.frombuffer(padded, np.uint32).reshape(len(texts), -1)


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The lookup tables of fixed-point renderings, built on first use.

    ``leads[10 * z + a]`` is ``0.``, ``z`` zeros and the digit ``a`` as one
    8-byte word. ``digits[k]`` is ``k`` as a word of four ASCII digits, and
    ``digits[10**4 + k]`` is the same without its trailing zeros.
    """
    k = np.arange(10**4, dtype=np.int16)[:, np.newaxis]
    ascii_digits = (k // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")).astype(np.uint8)
    kept = np.logical_or.accumulate(ascii_digits[:, ::-1] != ord("0"), axis=1)[:, ::-1]
    digits = np.concatenate([ascii_digits, ascii_digits * kept]).view(np.uint32).ravel()
    leads = _words([f"0.{'0' * z}{a}".encode() for z in range(4) for a in range(10)])
    return leads.view(np.uint64).ravel(), digits


def _render_rows(probs: np.ndarray, prefixes: list[bytes], heads: np.ndarray,
                 followers: np.ndarray) -> bytes:
    """The rows of ``probs``, each led by its sample's prefix.

    Row t of a sample is ``heads[t]``, then a slot of 5 words for each value:
    4 for the value, then ``followers[c]``, the separator or row tail after
    it. The slots' NUL padding is dropped, and each sample's prefix replaces
    its rows' marks, so no prefix byte is ever examined.
    """
    # one expression: each copy of the rows is freed once the next is made
    samples = (_slot_words(probs, heads, followers).tobytes()
               .translate(None, b"\0").split(SAMPLE_MARK)[1:])
    led = map(bytes.replace, samples, repeat(ROW_MARK), prefixes)  # every row but the first
    return b"".join(chain.from_iterable(zip(prefixes, led)))


def _slot_words(probs: np.ndarray, heads: np.ndarray, followers: np.ndarray) -> np.ndarray:
    """The words of each row of ``probs``, laid out as :func:`_render_rows` says.

    A value in [1e-4, 1) whose 9 digits are clear of a rounding tie, and do
    not carry to 10^9, fills its slot from :func:`_digit_words`. Any other
    value (0, 1, -0.0, one below 1e-4, near a tie or carrying) is rendered
    by ``SLOT_FORMAT``. The arrays built on the way are freed on return,
    before the caller copies the rows.
    """
    n_samples, n_passes, n_classes = probs.shape
    leads, digit_words = _digit_words()
    n_head_words = heads.shape[1]
    rows = np.empty((n_samples, n_passes, n_head_words + 5 * n_classes), np.uint32)
    rows[:, :, :n_head_words] = heads
    slots = rows[:, :, n_head_words:].reshape(n_samples, n_passes, n_classes, 5)
    slots[..., 4] = followers
    zeros = (probs < 0.1).view(np.int8)
    zeros += probs < 0.01
    zeros += probs < 0.001
    scaled = probs * DIGIT_SCALES[zeros]
    digits = np.rint(scaled)
    distance = np.abs(np.subtract(scaled, digits, out=scaled), out=scaled)  # in scaled's memory
    odd = (probs < 1e-4) | (digits >= 1e9) | (distance > 0.5 - HALF_MARGIN)
    np.putmask(digits, odd, 1e8)  # any 9 digits: these slots are filled again below
    high, low = np.divmod(digits.astype(np.int32), 10**4)
    first, middle = np.divmod(high, 10**4)
    slots[..., :2].view(np.uint64)[..., 0] = leads[10 * zeros + first]
    slots[..., 2] = digit_words[middle + 10**4 * (low == 0)]  # zeros dropped if the last word is 0
    slots[..., 3] = digit_words[low + 10**4]
    where = np.nonzero(odd)
    if where[0].size:
        text = (SLOT_FORMAT * where[0].size) % tuple(probs[where].tolist())
        slots[(*where, slice(0, 4))] = np.frombuffer(text.replace(" ", "\0").encode(),
                                                     np.uint32).reshape(-1, 4)
    return rows


def load_labels(path) -> LabelSet:
    """Parse a ``sample_id,label`` CSV file."""
    header, chunks = read_table(path, "labels")
    if header != ["sample_id", "label"]:
        raise FormatError(f"{path}: expected header sample_id,label, got {header}")
    ids, labels, _ = table_columns(header, chunks)
    try:
        return LabelSet(ids, labels)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_labels(labels: LabelSet, path, header_comment: str | None = None) -> None:
    write_artifact(path, csv_table(("sample_id", "label"), ("%s", "%d"),
                                   csv_fields(labels.sample_ids), labels.labels), header_comment)


def _check_extension(path) -> None:
    """Require ``path`` to end in ``.csv``, in any case: the one predictions format."""
    _, dot, extension = str(path).lower().rpartition(".")
    require_choice(dot + extension, f"the extension of {path}", (".csv",))
