"""Per-sample reference implementations the columnar code is checked against.

Each function handles one sample (or one mean row) with plain scalar logic,
in the arithmetic order the package used before summaries became columns,
so tests can require exact equality where that order is unchanged.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from uqeval import Summaries, ValidationError

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
