"""Reference implementations the columnar and flat-buffer code is checked against.

Each summary function handles one sample (or one mean row) with plain
scalar logic, in the arithmetic order the package used before summaries
became columns, so tests can require exact equality where that order is
unchanged.

The training functions are the list-of-tensors engine the package used
before parameters moved into one flat buffer: a forward/backward pass over
separate weight and bias arrays and an Adam loop run once per tensor.

The predictions-file functions are the CSV writer and reader the package
used before they worked a sample or a chunk at a time: one ``%.9g`` format
per probability, and one ``csv.reader`` call and one dict entry per row.
The labels and summaries readers are the ones the package used before
all three CSV files went through one chunked table reader: one ``csv.reader``
call per line. The summaries reader requires the class columns to be named
``p_0..p_{C-1}`` in order, as the package's reader does.

The reductions are the numpy calls the package made before it added short
axes a slice at a time: ``np.sum``/``mean`` for the aggregation and
``statistics.median`` for the separation medians.

The checks are the ones the package made before it tested whole arrays
first: the calibration bins with one mask and two sorts per bin, and the
predictions rows with a finite test, then a range test, then a mask of the
rows whose sum is off.

The incomplete beta function is the one the package used before one loop
ran both Lentz steps of an iteration: the even and the odd step written out
in turn. Its operations and their order are the package's, so it must agree
bit for bit.
"""

from __future__ import annotations

import csv
import io
import math
from statistics import median
from typing import NamedTuple

import numpy as np

from uqeval import (
    FormatError,
    LabelSet,
    Mlp,
    PredictionTensor,
    Summaries,
    TrainingDivergedError,
    ValidationError,
)
from uqeval.aggregate import SUMMARY_COLUMNS, _check_stored_entropies
from uqeval.stats import BETA_MAX_ITER, BETA_TOL, log_beta
from uqeval.tensor import csv_fields

MEAN_SUM_TOL = 1e-9
LOG_CLAMP = 1e-300


class ScalarSummary(NamedTuple):
    sample_id: str
    mean: np.ndarray
    predicted_class: int
    confidence: float
    entropy: float
    normalized_entropy: float


def predictive_mean(rows: np.ndarray) -> np.ndarray:
    """Arithmetic mean of T probability rows, renormalized to sum exactly 1."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows[np.newaxis, :]
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValidationError("need at least one probability row")
    mean = rows.mean(axis=0)
    total = float(mean.sum())
    if abs(total - 1.0) > 1e-5:
        raise ValidationError(f"mean of rows sums to {total:.9g}, not 1")
    return mean / total


def summarize_mean(sample_id: str, mean: np.ndarray, n_classes: int,
                   base: str = "2") -> ScalarSummary:
    """One sample's summary from its mean row: argmax, confidence, entropies."""
    mean = np.asarray(mean, dtype=np.float64)
    if abs(float(mean.sum()) - 1.0) > MEAN_SUM_TOL or np.any(mean < 0):
        raise ValidationError(f"mean for {sample_id!r} is not a probability vector")
    log = {"2": np.log2, "e": np.log}[base]
    predicted = int(np.argmax(mean))
    entropy = max(float(-np.sum(mean * log(np.clip(mean, LOG_CLAMP, 1.0)))), 0.0)
    normalized = min(entropy / float(log(n_classes)), 1.0)
    return ScalarSummary(str(sample_id), mean, predicted, float(mean[predicted]),
                         entropy, normalized)


def numpy_aggregate(tensor: PredictionTensor, scheme, base: str = "2") -> dict:
    """The columns ``aggregate`` gives, with every reduction made by numpy."""
    probs = tensor.probs
    if scheme.kind == "emcd":
        bounds = np.cumsum((0,) + scheme.member_pass_counts)
        means = np.mean([probs[:, a:b, :].mean(axis=1) for a, b in zip(bounds, bounds[1:])], axis=0)
    else:
        means = probs.mean(axis=1)
    means = means / means.sum(axis=1, keepdims=True)
    log = {"2": np.log2, "e": np.log}[base]
    entropy = 0.0 - np.sum(means * log(np.clip(means, LOG_CLAMP, 1.0)), axis=-1)
    entropy = np.where(0.0 > entropy, 0.0, entropy)
    normalized = entropy / float(log(means.shape[1]))
    predicted = np.argmax(means, axis=1)
    return {
        "means": means,
        "predicted_class": predicted,
        "confidence": means[np.arange(len(means)), predicted],
        "entropy": entropy,
        "normalized_entropy": np.where(normalized > 1.0, 1.0, normalized),
    }


def classify_outcome(correct: bool, uncertainty: float, threshold: float) -> str:
    """Outcome cell for one prediction; uncertain iff ``uncertainty >= threshold``."""
    if not 0.0 <= uncertainty <= 1.0:
        raise ValidationError(f"uncertainty {uncertainty} outside [0, 1]")
    if not 0.0 <= threshold <= 1.0:
        raise ValidationError(f"threshold {threshold} outside [0, 1]")
    uncertain = uncertainty >= threshold
    if correct:
        return "FU" if uncertain else "TC"
    return "TU" if uncertain else "FC"


def bin_assign(confidence: float, n_bins: int) -> int:
    """1-based bin index of a confidence in [0, 1]: the smallest m with c <= m/M."""
    if not 0.0 <= confidence <= 1.0:
        raise ValidationError(f"confidence {confidence} outside [0, 1]")
    edges = np.arange(n_bins + 1, dtype=np.float64) / n_bins
    idx = int(np.searchsorted(edges[1:], confidence, side="left")) + 1
    return min(idx, n_bins)


def calibration_bins(confidence: np.ndarray, correct: np.ndarray,
                     n_bins: int) -> tuple[list[tuple], float]:
    """Each bin's ``(count, accuracy, confidence)``, None for an empty bin's
    means, and the ECE, from one mask and two sorted sums per bin."""
    edges = np.arange(n_bins + 1, dtype=np.float64) / n_bins
    correct = np.asarray(correct).astype(np.float64)
    indices = np.minimum(np.searchsorted(edges[1:], confidence, side="left") + 1, n_bins)
    bins, ece = [], 0.0
    for m in range(1, n_bins + 1):
        mask = indices == m
        count = int(mask.sum())
        if count:
            acc = float(np.sort(correct[mask]).sum() / count)
            conf = float(np.sort(confidence[mask]).sum() / count)
            ece += (count / len(confidence)) * abs(acc - conf)
        else:
            acc = conf = None
        bins.append((count, acc, conf))
    return bins, ece


def rows_error(probs: np.ndarray, renormalize: bool) -> str | None:
    """The message a tensor of these probability rows is rejected with, or None."""
    if not np.all(np.isfinite(probs)):
        return "probabilities must be finite"
    if np.any(probs < 0.0) or np.any(probs > 1.0):
        return "probabilities must lie in [0, 1]"
    sums = probs.sum(axis=-1)
    off = np.abs(sums - 1.0) > (1e-3 if renormalize else 1e-6)
    if not np.any(off):
        return None
    idx = tuple(np.argwhere(off)[0].tolist())
    if renormalize:
        return f"row {idx} sums to {sums[idx]:.6g}, outside the renormalization band 1±0.001"
    return (f"row {idx} sums to {sums[idx]:.9g}, deviating from 1 by more than 1e-06 "
            "(use renormalize for near-normalized rows)")


def pass_variance(rows: np.ndarray) -> np.ndarray:
    """Unbiased per-class variance across the pass rows of one sample."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValidationError("pass variance needs at least two passes")
    return rows.var(axis=0, ddof=1)


def take(summaries: Summaries, indices) -> Summaries:
    """The rows ``indices`` of ``summaries``, in that order."""
    indices = np.asarray(indices, dtype=np.intp)
    return Summaries(
        sample_ids=tuple(summaries.sample_ids[i] for i in indices),
        means=summaries.means[indices],
        predicted_class=summaries.predicted_class[indices],
        confidence=summaries.confidence[indices],
        entropy=summaries.entropy[indices],
        normalized_entropy=summaries.normalized_entropy[indices],
    )


def softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def cross_entropy(probs: np.ndarray, y: np.ndarray) -> float:
    picked = probs[np.arange(len(y)), y]
    return float(-np.mean(np.log(np.clip(picked, 1e-300, 1.0))))


def forward_cached(weights, biases, rate, x, dropout_rng):
    """Activations, pre-activations and dropout masks of one forward pass."""
    x = np.asarray(x, dtype=np.float64)
    activations = [x]
    pre = []
    masks = []
    a = x
    last = len(weights) - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = a @ w + b
        pre.append(z)
        if i == last:
            a = softmax(z)
            masks.append(None)
        else:
            a = np.maximum(z, 0.0)
            if dropout_rng is not None and rate > 0.0:
                keep = dropout_rng.random(a.shape) >= rate
                a = a * keep / (1.0 - rate)
                masks.append(keep)
            else:
                masks.append(None)
        activations.append(a)
    return activations, pre, masks


def loss_and_gradients(weights, biases, rate, x, y, dropout_rng=None):
    """Cross-entropy loss and one gradient array per weight and bias."""
    y = np.asarray(y, dtype=np.int64)
    activations, pre, masks = forward_cached(weights, biases, rate, x, dropout_rng)
    probs = activations[-1]
    loss = cross_entropy(probs, y)
    n = len(y)

    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n

    grads_w = [None] * len(weights)
    grads_b = [None] * len(biases)
    for i in range(len(weights) - 1, -1, -1):
        grads_w[i] = activations[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            upstream = delta @ weights[i].T
            if masks[i - 1] is not None:
                upstream = upstream * masks[i - 1] / (1.0 - rate)
            delta = upstream * (pre[i - 1] > 0.0)
    return loss, grads_w, grads_b


def fit_adam(model, config, x, y) -> None:
    """Train ``model`` in place with the list engine: Adam run tensor by tensor.

    Works on copies of the model's weights and biases and writes the result
    back into the model at the end, so it can stand in for
    :func:`uqeval.models.fit_adam`.
    """
    ss = np.random.SeedSequence(config.seed)
    shuffle_rng, dropout_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    rate = model.spec.dropout_rate
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # the textbook Adam settings
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]

    params = weights + biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    step = 0

    n = len(y)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            rng = dropout_rng if rate > 0 else None
            _, grads_w, grads_b = loss_and_gradients(weights, biases, rate,
                                                     x[batch], y[batch], rng)
            grads = grads_w + grads_b
            step += 1
            bc1 = 1.0 - beta1 ** step
            bc2 = 1.0 - beta2 ** step
            for p, g, m_i, v_i in zip(params, grads, m, v):
                m_i *= beta1
                m_i += (1.0 - beta1) * g
                v_i *= beta2
                v_i += (1.0 - beta2) * np.square(g)
                p -= config.learning_rate * (m_i / bc1) / (np.sqrt(v_i / bc2) + eps)
        probs = forward_cached(weights, biases, rate, x, None)[0][-1]
        epoch_loss = cross_entropy(probs, y)
        if not math.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"loss became non-finite at epoch {epoch}", epoch=epoch
            )
        model.loss_history.append(epoch_loss)
    for dst, src in zip(model.weights + model.biases, params):
        dst[...] = src


def train_stack(jobs) -> list:
    """The model of each ``(spec, config, x, y, init)`` job, trained alone by :func:`fit_adam`.

    Stands in for :func:`uqeval.models._train_stack`, the package's one entry
    into its Adam engine, so every fit runs on the list engine. A fresh
    model's loss history starts with its untrained loss, as there.
    """
    models = []
    for spec, config, x, y, init in jobs:
        x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.int64)
        model = Mlp(spec)
        if init is None:
            probs = forward_cached(model.weights, model.biases, 0.0, x, None)[0][-1]
            model.loss_history.append(cross_entropy(probs, y))
        else:
            model.flat[...] = init
        fit_adam(model, config, x, y)
        models.append(model)
    return models


# -- predictions files, one value and one line at a time ---------------------

PROB_FORMAT = "%.9g"


def render_prob(value: float) -> str:
    return PROB_FORMAT % value


def quantize_probs(values: np.ndarray) -> np.ndarray:
    """Map probabilities onto the exact values their file rendering parses to."""
    flat = [float(render_prob(v)) for v in np.asarray(values, dtype=np.float64).ravel()]
    return np.array(flat, dtype=np.float64).reshape(np.shape(values))


def predictions_text(tensor: PredictionTensor, header_comment: str | None = None) -> str:
    """The full text of a predictions file, rendered one probability at a time."""
    buf = io.StringIO()
    if header_comment is not None:
        buf.write(f"# {header_comment}\n")
    cols = ",".join(f"p_{c}" for c in range(tensor.n_classes))
    buf.write(f"sample_id,pass_id,{cols}\n")
    for i, sid in enumerate(csv_fields(tensor.sample_ids)):
        for t in range(tensor.n_passes):
            rendered = ",".join(render_prob(v) for v in tensor.probs[i, t])
            buf.write(f"{sid},{t},{rendered}\n")
    return buf.getvalue()


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
    order: list[str] = []
    per_sample: dict[str, dict[int, list[float]]] = {}
    for sample_id, pass_id, p in rows:
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


def _parse_csv_predictions(path):
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
    return rows


def load_predictions(path, renormalize: bool = False) -> PredictionTensor:
    """Parse a predictions file one line at a time, grouping rows in a dict of dicts."""
    return _rows_to_tensor(_parse_csv_predictions(path), path, renormalize)


def load_labels(path) -> LabelSet:
    """Parse a ``sample_id,label`` CSV file a line at a time; a duplicate is reported at its line."""
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


def load_summaries(path) -> Summaries:
    """Parse a summaries CSV a line at a time."""
    lines = list(data_lines(path))
    if not lines:
        raise FormatError(f"{path}: empty summaries file")
    header = next(csv.reader([lines[0][1]]))
    fixed = list(SUMMARY_COLUMNS)
    if header[: len(fixed)] != fixed or len(header) < len(fixed) + 2:
        raise FormatError(f"{path}: unexpected summaries header {header}")
    for i, name in enumerate(header[len(fixed):]):
        if name != f"p_{i}":
            raise FormatError(f"{path}: probability column {i} named {name!r}, expected p_{i}")
    ids, predicted, values = [], [], []
    for lineno, raw in lines[1:]:
        cells = next(csv.reader([raw]))
        if len(cells) != len(header):
            raise FormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(cells)}")
        try:
            predicted.append(int(cells[1]))
            values.append([float(c) for c in cells[2:]])
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        ids.append(cells[0])
    table = np.array(values, dtype=np.float64).reshape(len(values), len(header) - 2)
    try:
        summaries = Summaries(
            sample_ids=tuple(ids),
            means=table[:, 3:],
            predicted_class=predicted,
            confidence=table[:, 0],
            entropy=table[:, 1],
            normalized_entropy=table[:, 2],
        )
        _check_stored_entropies(summaries)
    except ValidationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    return summaries


def beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Modified Lentz evaluation of the incomplete-beta continued fraction (NaN if unconverged)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, BETA_MAX_ITER + 1):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < BETA_TOL:
            return h
    return math.nan


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) for floats a, b > 0 and x in (0, 1); NaN where the fraction does not converge."""
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * beta_continued_fraction(a, b, x) / a
    return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b
