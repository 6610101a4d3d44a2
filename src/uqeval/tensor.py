"""Prediction data model: per-sample, per-pass class-probability rows.

A :class:`PredictionTensor` holds the raw stochastic output of a model as a
dense (sample, pass, class) array of probability rows. A :class:`LabelSet`
holds ground-truth class indices keyed by the same sample ids. Both are
immutable after construction and validate their invariants eagerly.

File formats (all UTF-8, ``.`` decimal separator):

* predictions CSV: header ``sample_id,pass_id,p_0,...,p_{C-1}``; pass ids
  are the contiguous integers ``0..T-1`` within each sample;
* predictions JSONL: one ``{"sample_id": str, "pass_id": int, "p": [...]}``
  object per line;
* labels CSV: header ``sample_id,label``.

Sample ids are unique strings without line breaks; CSV writers quote them
by the csv module's minimal rules, so ids such as ``a,1`` or ``#x`` load
back unchanged. Only a ``#`` line at the very top of a file is a comment:
the CLI uses it to stamp a run-manifest digest into CSV artifacts.

Labels meet predictions in one place, :func:`aligned_labels`, which every
evaluation calls once to reorder a :class:`LabelSet` to its sample order and
to reject ids that do not match and labels outside the class range.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentError, FormatError, ValidationError

ROW_SUM_TOL = 1e-6
RENORMALIZE_BAND = 1e-3

# Probabilities render at 9 significant digits; parsing a rendered value and
# re-rendering it reproduces the same text, so files round-trip byte-equal.
PROB_FORMAT = "%.9g"


def render_prob(value: float) -> str:
    return PROB_FORMAT % value


def quantize_probs(values: np.ndarray) -> np.ndarray:
    """Map probabilities onto the exact values their file rendering parses to."""
    flat = [float(render_prob(v)) for v in np.asarray(values, dtype=np.float64).ravel()]
    return np.array(flat, dtype=np.float64).reshape(np.shape(values))


def validate_ids(sample_ids) -> tuple[str, ...]:
    """Sample ids as strings; unique, free of line breaks, and writable as UTF-8."""
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
    return ids


def csv_fields(values) -> list[str]:
    """Each string rendered as one CSV field, quoted where the csv module would."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(zip(values))
    return buf.getvalue().split("\n")[:-1]


def write_artifact(path, text: str, header_comment: str | None = None) -> None:
    """Write ``text`` as UTF-8 with ``\\n`` line ends, after ``# header_comment`` if given."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header_comment is not None:
            fh.write(f"# {header_comment}\n")
        fh.write(text)


def _validate_rows(probs: np.ndarray, renormalize: bool) -> np.ndarray:
    if not np.all(np.isfinite(probs)):
        raise ValidationError("probabilities must be finite")
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        raise ValidationError("probabilities must lie in [0, 1]")
    sums = probs.sum(axis=-1)
    if renormalize:
        off_band = np.abs(sums - 1.0) > RENORMALIZE_BAND
        if np.any(off_band):
            idx = tuple(np.argwhere(off_band)[0])
            raise ValidationError(
                f"row {idx} sums to {sums[idx]:.6g}, outside the renormalization "
                f"band 1±{RENORMALIZE_BAND:g}"
            )
        probs = probs / sums[..., np.newaxis]
    else:
        off = np.abs(sums - 1.0) > ROW_SUM_TOL
        if np.any(off):
            idx = tuple(np.argwhere(off)[0])
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
        ids = validate_ids(self.sample_ids)
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


@dataclass(frozen=True, eq=False)
class LabelSet:
    """Ground-truth class index per sample id."""

    sample_ids: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self):
        ids = validate_ids(self.sample_ids)
        labels = np.asarray(self.labels)
        if labels.ndim != 1 or labels.shape[0] != len(ids):
            raise ValidationError(
                f"{labels.shape} labels for {len(ids)} sample ids"
            )
        if labels.size and not np.issubdtype(labels.dtype, np.integer):
            if np.any(labels != np.floor(labels)):
                raise ValidationError("labels must be integers")
        labels = labels.astype(np.int64)
        if np.any(labels < 0):
            raise ValidationError("labels must be nonnegative class indices")
        labels.flags.writeable = False
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return len(self.sample_ids)

    def as_dict(self) -> dict[str, int]:
        return {s: int(l) for s, l in zip(self.sample_ids, self.labels)}


def aligned_labels(sample_ids, labels: LabelSet, n_classes: int) -> np.ndarray:
    """Labels reordered to ``sample_ids``, each a valid index for ``n_classes``.

    The id sets must match exactly; a mismatch raises :class:`AlignmentError`
    reporting the symmetric difference. A label outside ``0..n_classes-1``
    raises :class:`ValidationError` naming its sample.
    """
    wanted = tuple(sample_ids)
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


def data_lines(path):
    """Numbered non-blank lines of a text artifact, minus a leading ``#`` line."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.rstrip("\r\n")
            if not stripped or (lineno == 1 and stripped.startswith("#")):
                continue
            yield lineno, stripped


def _rows_to_tensor(rows, path, renormalize):
    # rows: list of (sample_id, pass_id, [floats])
    if not rows:
        raise FormatError(f"{path}: no prediction rows")
    n_classes = len(rows[0][2])
    order: list[str] = []
    per_sample: dict[str, dict[int, list[float]]] = {}
    for sample_id, pass_id, p in rows:
        if len(p) != n_classes:
            raise FormatError(
                f"{path}: sample {sample_id!r} pass {pass_id} has {len(p)} "
                f"probabilities, expected {n_classes}"
            )
        if sample_id not in per_sample:
            per_sample[sample_id] = {}
            order.append(sample_id)
        passes = per_sample[sample_id]
        if pass_id in passes:
            raise FormatError(f"{path}: duplicate (sample_id, pass_id) ({sample_id!r}, {pass_id})")
        passes[pass_id] = p
    counts = {len(v) for v in per_sample.values()}
    if len(counts) != 1:
        raise FormatError(
            f"{path}: ragged pass counts across samples: {sorted(counts)}"
        )
    n_passes = counts.pop()
    expected = set(range(n_passes))
    for sample_id, passes in per_sample.items():
        if set(passes) != expected:
            raise FormatError(
                f"{path}: sample {sample_id!r} pass ids {sorted(passes)} are not "
                f"the contiguous range 0..{n_passes - 1}"
            )
    probs = np.array(
        [[per_sample[s][t] for t in range(n_passes)] for s in order],
        dtype=np.float64,
    )
    try:
        return PredictionTensor(probs, tuple(order), renormalize=renormalize)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _parse_csv_predictions(path, renormalize):
    lines = list(data_lines(path))
    if not lines:
        raise FormatError(f"{path}: empty predictions file")
    header = next(csv.reader([lines[0][1]]))
    if header[:2] != ["sample_id", "pass_id"] or len(header) < 4:
        raise FormatError(
            f"{path}: expected header sample_id,pass_id,p_0,...,p_{{C-1}}, got {header}"
        )
    for i, name in enumerate(header[2:]):
        if name != f"p_{i}":
            raise FormatError(f"{path}: probability column {i} named {name!r}, expected p_{i}")
    n_classes = len(header) - 2
    rows = []
    for lineno, raw in lines[1:]:
        cells = next(csv.reader([raw]))
        if len(cells) != len(header):
            raise FormatError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(cells)}"
            )
        try:
            pass_id = int(cells[1])
            p = [float(c) for c in cells[2:]]
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: malformed row: {exc}") from exc
        rows.append((cells[0], pass_id, p))
    if rows and len(rows[0][2]) != n_classes:
        raise FormatError(f"{path}: header/body class-count mismatch")
    return rows


def _parse_jsonl_predictions(path):
    rows = []
    for lineno, raw in data_lines(path):
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
        try:
            rows.append((str(obj["sample_id"]), int(obj["pass_id"]), [float(v) for v in obj["p"]]))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed record: {exc}") from exc
    return rows


def load_predictions(path, format: str | None = None, renormalize: bool = False) -> PredictionTensor:
    """Parse a predictions CSV or JSONL file into a validated tensor.

    ``format`` is ``"csv"`` or ``"jsonl"``; when omitted it is inferred from
    the file extension. Sample order follows first appearance in the file.
    """
    fmt = format or infer_format(path)
    if fmt == "csv":
        rows = _parse_csv_predictions(path, renormalize)
    elif fmt == "jsonl":
        rows = _parse_jsonl_predictions(path)
    else:
        raise ValueError(f"unknown predictions format {fmt!r}")
    return _rows_to_tensor(rows, path, renormalize)


def save_predictions(tensor: PredictionTensor, path, format: str | None = None,
                     header_comment: str | None = None) -> None:
    """Write a tensor in a form :func:`load_predictions` parses back.

    Probabilities render at 9 significant digits. ``header_comment`` (no
    leading ``#``) is written as the first line for manifest stamping.
    """
    fmt = format or infer_format(path)
    buf = io.StringIO()
    if fmt == "csv":
        cols = ",".join(f"p_{c}" for c in range(tensor.n_classes))
        buf.write(f"sample_id,pass_id,{cols}\n")
        for i, sid in enumerate(csv_fields(tensor.sample_ids)):
            for t in range(tensor.n_passes):
                rendered = ",".join(render_prob(v) for v in tensor.probs[i, t])
                buf.write(f"{sid},{t},{rendered}\n")
    elif fmt == "jsonl":
        for i, sample_id in enumerate(tensor.sample_ids):
            sid = json.dumps(sample_id)
            for t in range(tensor.n_passes):
                p = "[" + ", ".join(render_prob(v) for v in tensor.probs[i, t]) + "]"
                buf.write('{"sample_id": %s, "pass_id": %d, "p": %s}\n' % (sid, t, p))
    else:
        raise ValueError(f"unknown predictions format {fmt!r}")
    write_artifact(path, buf.getvalue(), header_comment)


def load_labels(path) -> LabelSet:
    """Parse a ``sample_id,label`` CSV file."""
    lines = list(data_lines(path))
    if not lines:
        raise FormatError(f"{path}: empty labels file")
    header = next(csv.reader([lines[0][1]]))
    if header != ["sample_id", "label"]:
        raise FormatError(f"{path}: expected header sample_id,label, got {header}")
    ids: list[str] = []
    labels: list[int] = []
    seen = set()
    for lineno, raw in lines[1:]:
        cells = next(csv.reader([raw]))
        if len(cells) != 2:
            raise FormatError(f"{path}:{lineno}: expected 2 fields, got {len(cells)}")
        sid, label_text = cells
        try:
            label = int(label_text)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: malformed label: {exc}") from exc
        if sid in seen:
            raise FormatError(f"{path}:{lineno}: duplicate sample id {sid!r}")
        seen.add(sid)
        ids.append(sid)
        labels.append(label)
    try:
        return LabelSet(tuple(ids), np.array(labels, dtype=np.int64))
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
