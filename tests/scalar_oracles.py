"""Reference implementations the columnar and flat-buffer code is checked against.

Each summary function handles one sample (or one mean row) with plain
scalar logic, in the arithmetic order the package used before summaries
became columns, so tests can require exact equality where that order is
unchanged.

The training functions are the list-of-tensors engine the package used
before parameters moved into one flat buffer: a forward/backward pass over
separate weight and bias arrays and an Adam loop run once per tensor.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from uqeval import Summaries, TrainingDivergedError, ValidationError

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
            bc1 = 1.0 - config.beta1 ** step
            bc2 = 1.0 - config.beta2 ** step
            for p, g, m_i, v_i in zip(params, grads, m, v):
                m_i *= config.beta1
                m_i += (1.0 - config.beta1) * g
                v_i *= config.beta2
                v_i += (1.0 - config.beta2) * np.square(g)
                p -= config.learning_rate * (m_i / bc1) / (np.sqrt(v_i / bc2) + config.eps)
        probs = forward_cached(weights, biases, rate, x, None)[0][-1]
        epoch_loss = cross_entropy(probs, y)
        if not math.isfinite(epoch_loss):
            raise TrainingDivergedError(
                f"loss became non-finite at epoch {epoch}", epoch=epoch
            )
        model.loss_history.append(epoch_loss)
    for dst, src in zip(model.weights + model.biases, params):
        dst[...] = src
