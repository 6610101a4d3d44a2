"""Prediction data model: per-sample, per-pass class-probability rows.

A :class:`PredictionTensor` holds the raw stochastic output of a model as a
dense (sample, pass, class) array of probability rows. A :class:`LabelSet`
holds ground-truth class indices keyed by the same sample ids. Both are
immutable after construction and validate their invariants eagerly.

File formats (all UTF-8, ``.`` decimal separator):

* predictions CSV: header ``sample_id,pass_id,p_0,...,p_{C-1}``; pass ids
  are the contiguous integers ``0..T-1`` within each sample;
* predictions JSONL: one ``{"sample_id": str, "pass_id": int, "p": [numbers]}``
  object per line; a value of another type is rejected, not converted;
* labels CSV: header ``sample_id,label``.

Predictions CSV, labels and summaries files share one reader,
:func:`read_table`, for rows of an id, an integer, then floats.

Sample ids are unique strings without line breaks that UTF-8 can encode.
They are checked once, where they enter the package: a tensor, label set or
summaries built from plain ids holds them as a :class:`SampleIds`, and an
object derived from another (summaries from a tensor) shares that same
tuple instead of checking it again. CSV writers quote ids by the csv
module's minimal rules, so ids such as ``a,1`` or ``#x`` load back
unchanged. Only a ``#`` line at the very top of a file is a comment:
the CLI uses it to stamp a run-manifest digest into CSV artifacts. Every
artifact is written through :func:`artifact_file`, so it replaces an earlier
file at its path only once it is complete.

Labels meet predictions in one place, :func:`aligned_labels`, which every
evaluation calls once to reorder a :class:`LabelSet` to its sample order and
to reject ids that do not match and labels outside the class range.
"""

from __future__ import annotations

import csv
import io
import json
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, compress, cycle, islice, repeat

import numpy as np

from .errors import AlignmentError, FormatError, ValidationError

ROW_SUM_TOL = 1e-6
RENORMALIZE_BAND = 1e-3

# Probabilities render at 9 significant digits; parsing a rendered value and
# re-rendering it reproduces the same text, so files round-trip byte-equal.
PROB_FORMAT = "%.9g"

# Lines of a text artifact read and parsed at a time; bounds the text and the
# Python objects a predictions load holds at once.
CHUNK_ROWS = 8192


class SampleIds(tuple):
    """Sample ids as strings: unique, free of line breaks, and writable as UTF-8.

    Building one checks the ids, unless they already are a ``SampleIds``, which
    is returned unchanged. Every object holding ids keeps them as one, so ids
    are checked once and shared by the objects derived from them. A pickled or
    copied ``SampleIds`` is built, and so checked, again.
    """

    __slots__ = ()

    def __new__(cls, sample_ids):
        if type(sample_ids) is SampleIds:
            return sample_ids
        ids = tuple(map(str, sample_ids))
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


@contextmanager
def artifact_file(path, header_comment: str | None = None):
    """Text handle on an artifact that appears at ``path`` whole or not at all.

    Text is written as UTF-8 with ``\\n`` line ends, after ``# header_comment``
    if given, to a new temporary file beside ``path``, which replaces ``path``
    when the block completes. If the block raises, the temporary file is
    removed and ``path`` keeps what it held before.
    """
    # the temporary name does not grow with the artifact's, so any name that fits fits here
    tmp = os.path.join(os.path.dirname(os.fspath(path)), f".uqeval-{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:  # name the artifact, not its temporary file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            if header_comment is not None:
                fh.write(f"# {header_comment}\n")
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_artifact(path, text: str, header_comment: str | None = None) -> None:
    """Write ``text`` through :func:`artifact_file`."""
    with artifact_file(path, header_comment) as fh:
        fh.write(text)


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
    if not np.all(np.isfinite(probs)):
        raise ValidationError("probabilities must be finite")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValidationError("probabilities must lie in [0, 1]")
    sums = class_sums(probs)
    if renormalize:
        off_band = np.abs(sums - 1.0) > RENORMALIZE_BAND
        if np.any(off_band):
            idx = tuple(np.argwhere(off_band)[0].tolist())
            raise ValidationError(
                f"row {idx} sums to {sums[idx]:.6g}, outside the renormalization "
                f"band 1±{RENORMALIZE_BAND:g}"
            )
        probs = probs / sums[..., np.newaxis]
    else:
        off = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(off):
            idx = tuple(np.argwhere(off)[0].tolist())
            raise ValidationError(
                f"row {idx} sums to {sums[idx]:.9g}, deviating from 1 by more "
                f"than {ROW_SUM_TOL:g} (use renormalize for near-normalized rows)"
            )
    return probs


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
    of the file are left out.
    """
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


def _check_int64(path, lineno: int, column: str, value: int) -> None:
    if not -2**63 <= value < 2**63:
        raise FormatError(f"{path}:{lineno}: {column} {value} does not fit in 64 bits")


def read_table(path, kind: str):
    """The header and rows of a CSV file whose rows are an id, an integer, then floats.

    Returns ``(header, chunks)``. ``chunks`` parses the rows ``CHUNK_ROWS`` lines
    at a time and yields ``(ids, integers, values)`` for each, with the floats
    of all its rows in ``values``, row by row. Every row must have as many
    fields as the header, and the first malformed line is named. ``kind``
    names the file in the error for an empty one.
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
                yield fields[::width], integers, values
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
        _check_int64(path, lineno, column, integers[-1])
        ids.append(cells[0])
    return ids, np.array(integers, np.int64), np.array(values, np.float64)


def table_columns(header, chunks):
    """All the rows :func:`read_table` parses: ids, integers, and a (rows, fields - 2) float array."""
    ids, integers, values = [], [np.empty(0, np.int64)], [np.empty(0)]
    for chunk_ids, chunk_integers, chunk_values in chunks:
        ids.extend(chunk_ids)
        integers.append(chunk_integers)
        values.append(chunk_values)
    values = np.concatenate(values).reshape(len(ids), len(header) - 2)
    return tuple(ids), np.concatenate(integers), values


JSON_TYPES = {  # the types a JSON field can be required to have; true and false are not numbers
    "a string": lambda v: type(v) is str,
    "an integer": lambda v: type(v) is int,
    "a number": lambda v: type(v) in (int, float),
    "an array": lambda v: type(v) is list,
    "an array of integers": lambda v: type(v) is list and set(map(type, v)) <= {int},
    "an array of numbers": lambda v: type(v) is list and set(map(type, v)) <= {int, float},
}


def json_field(record: dict, key: str, kind: str):
    """``record[key]``, which must be ``kind`` (a ``JSON_TYPES`` key); raises KeyError or TypeError."""
    value = record[key]
    if not JSON_TYPES[kind](value):
        raise TypeError(f"{key} must be {kind}, got {json.dumps(value)}")
    return value


def _jsonl_chunks(path):
    """Rows of a predictions JSONL file, a chunk at a time: ``(ids, pass ids, class counts, values)``."""
    for numbers, lines in data_line_chunks(path):
        yield _jsonl_rows_by_line(path, numbers, lines)


def _jsonl_rows_by_line(path, numbers, lines):
    """The rows of one chunk of a JSONL file; names the first malformed line."""
    ids, pass_ids, widths, values = [], [], [], []
    for lineno, line in zip(numbers, lines):
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
        try:
            ids.append(json_field(obj, "sample_id", "a string"))
            pass_ids.append(json_field(obj, "pass_id", "an integer"))
            p = json_field(obj, "p", "an array of numbers")
            values.extend(map(float, p))
        except (KeyError, TypeError, OverflowError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed record: {exc}") from exc
        _check_int64(path, lineno, "pass id", pass_ids[-1])
        widths.append(len(p))
    return ids, np.array(pass_ids, np.int64), np.array(widths), np.array(values, np.float64)


def load_predictions(path, format: str | None = None, renormalize: bool = False) -> PredictionTensor:
    """Parse a predictions CSV or JSONL file into a validated tensor.

    ``format`` is ``"csv"`` or ``"jsonl"``; when omitted it is inferred from
    the file extension. Sample order follows first appearance in the file.
    The file is parsed ``CHUNK_ROWS`` lines at a time; every row must parse
    before rows are checked against each other, so a malformed line is
    reported before a duplicate or missing pass.
    """
    fmt = format or infer_format(path)
    if fmt == "csv":
        header, table = read_table(path, "predictions")
        if header[:2] != ["sample_id", "pass_id"] or len(header) < 4:
            raise FormatError(
                f"{path}: expected header sample_id,pass_id,p_0,...,p_{{C-1}}, got {header}"
            )
        for i, name in enumerate(header[2:]):
            if name != f"p_{i}":
                raise FormatError(f"{path}: probability column {i} named {name!r}, expected p_{i}")
        chunks = ((ids, pass_ids, np.full(len(ids), len(header) - 2), values)
                  for ids, pass_ids, values in table)
    elif fmt == "jsonl":
        chunks = _jsonl_chunks(path)
    else:
        raise ValueError(f"unknown predictions format {fmt!r}")
    position: dict[str, int] = {}  # sample id -> sample index, by first appearance
    samples, passes, blocks = [], [], []
    n_rows, n_classes, misfit = 0, None, None
    for ids, pass_ids, widths, values in chunks:
        fresh = [s for s in dict.fromkeys(ids) if s not in position]
        position.update(zip(fresh, range(len(position), len(position) + len(fresh))))
        samples.append(np.fromiter(map(position.__getitem__, ids), np.int64, len(ids)))
        passes.append(pass_ids)
        if n_classes is None:
            n_classes = int(widths[0])
        if misfit is None:
            off = np.flatnonzero(widths != n_classes)
            if off.size:
                i = int(off[0])
                misfit = n_rows + i, (f"sample {ids[i]!r} pass {pass_ids[i]} has {widths[i]} "
                                      f"probabilities, expected {n_classes}")
            else:
                blocks.append(values.reshape(len(ids), n_classes))
        n_rows += len(ids)
    if not n_rows:
        raise FormatError(f"{path}: no prediction rows")
    return _rows_to_tensor(path, tuple(position), np.concatenate(samples),
                           np.concatenate(passes), blocks, misfit, renormalize)


def _rows_to_tensor(path, ids, samples, passes, blocks, misfit, renormalize) -> PredictionTensor:
    """Group rows by sample and pass; reject what the first failing row or sample breaks.

    ``samples[r]`` indexes ``ids`` and ``passes[r]`` is the pass id of row ``r``,
    whose probabilities are the rows of ``blocks`` in order. ``misfit`` is
    ``(row, message)`` for the first row with another class count than row 0.
    """
    order = np.lexsort((passes, samples))  # stable: equal keys keep file order
    by_sample, by_pass = samples[order], passes[order]
    repeats = order[1:][(by_sample[1:] == by_sample[:-1]) & (by_pass[1:] == by_pass[:-1])]
    first_repeat = int(repeats.min()) if repeats.size else len(order)
    if misfit is not None and misfit[0] <= first_repeat:
        raise FormatError(f"{path}: {misfit[1]}")
    if repeats.size:
        raise FormatError(f"{path}: duplicate (sample_id, pass_id) "
                          f"({ids[samples[first_repeat]]!r}, {passes[first_repeat]})")
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
    values = np.concatenate(blocks)
    probs = values[order].reshape(len(ids), n_passes, values.shape[1])
    try:
        return PredictionTensor(probs, ids, renormalize=renormalize)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_predictions(tensor: PredictionTensor, path, format: str | None = None,
                     header_comment: str | None = None) -> None:
    """Write a tensor in a form :func:`load_predictions` parses back.

    Probabilities render at 9 significant digits. ``header_comment`` (no
    leading ``#``) is written as the first line for manifest stamping. The
    file is written one sample at a time, through :func:`artifact_file`.
    """
    fmt = format or infer_format(path)
    values = [PROB_FORMAT] * tensor.n_classes
    passes = range(tensor.n_passes)
    if fmt == "csv":
        header = "sample_id,pass_id," + ",".join(f"p_{c}" for c in range(tensor.n_classes)) + "\n"
        prefixes = csv_fields(tensor.sample_ids)
        tails = [f",{t},{','.join(values)}\n" for t in passes]
    elif fmt == "jsonl":
        header = ""
        prefixes = ['{"sample_id": ' + json.dumps(s) for s in tensor.sample_ids]
        tails = [f', "pass_id": {t}, "p": [{", ".join(values)}]}}\n' for t in passes]
    else:
        raise ValueError(f"unknown predictions format {fmt!r}")
    with artifact_file(path, header_comment) as fh:
        fh.write(header)
        # row t of a sample is its prefix then tails[t]; the prefix, spliced into
        # one template of the sample's rows, is escaped for the % format
        for prefix, rows in zip(prefixes, tensor.probs):
            prefix = prefix.replace("%", "%%")
            fh.write((prefix + prefix.join(tails)) % tuple(rows.ravel().tolist()))


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
    ids = csv_fields(labels.sample_ids)
    rows = "".join(f"{sid},{label}\n" for sid, label in zip(ids, labels.labels.tolist()))
    write_artifact(path, "sample_id,label\n" + rows, header_comment)


def infer_format(path) -> str:
    name = str(path).lower()
    if name.endswith(".jsonl"):
        return "jsonl"
    if name.endswith(".csv"):
        return "csv"
    raise ValueError(f"cannot infer format from {path!r}; pass format explicitly")
