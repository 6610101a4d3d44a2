"""Expected calibration error over equal-width confidence bins.

Confidence is the max component of the aggregated predictive mean. Bin m of
M covers the half-open interval ((m-1)/M, m/M]; confidence 0 falls into bin
1. ECE is the count-weighted mean absolute gap between per-bin accuracy and
per-bin confidence; empty bins carry weight 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aggregate import Summaries
from .errors import ValidationError
from .tensor import FULL_FORMAT, LabelSet, csv_table, require_integer, write_artifact


@dataclass(frozen=True)
class CalibrationBin:
    """One confidence interval with its sample count, accuracy, and confidence."""

    index: int
    lo: float
    hi: float
    count: int
    accuracy: float | None
    confidence: float | None

    def __post_init__(self):
        if self.count < 0:
            raise ValidationError("bin count is negative")
        if (self.count > 0) != (self.accuracy is not None):
            raise ValidationError("accuracy must be set exactly when the bin is nonempty")
        if (self.count > 0) != (self.confidence is not None):
            raise ValidationError("confidence must be set exactly when the bin is nonempty")

    @property
    def gap(self) -> float | None:
        if self.count == 0:
            return None
        return abs(self.accuracy - self.confidence)


@dataclass(frozen=True)
class CalibrationReport:
    """Confidence bins in order; the sample count and the ECE are read off them."""

    bins: tuple[CalibrationBin, ...]

    @property
    def n_bins(self) -> int:
        return len(self.bins)

    @property
    def n(self) -> int:
        return sum(b.count for b in self.bins)

    @property
    def ece(self) -> float:
        """Each nonempty bin's count share times its gap, added in bin order with ``+=``
        (from Python 3.12 ``sum()`` compensates rounding, which would change the bits)."""
        ece, n = 0.0, self.n
        for b in self.bins:
            if b.count:
                ece += (b.count / n) * b.gap
        return ece


def calibration_report(summaries: Summaries, labels: LabelSet,
                       n_bins: int = 10) -> CalibrationReport:
    """Bin samples by confidence and compute per-bin accuracy and confidence.

    A bin's confidence is the sum of its values in ascending order over its
    count, so it does not depend on sample order. Bins are monotone in
    confidence, so one sort of all confidences holds every bin's values, in
    that order, as one slice. A bin's accuracy is its exact count of correct
    predictions over its count.
    """
    n_bins = require_integer(n_bins, "n_bins", 1, "need at least one bin")
    edges = np.arange(n_bins + 1, dtype=np.float64) / n_bins  # the M+1 boundaries m/M
    confidence = summaries.confidence
    # bin m is the smallest m >= 1 with confidence <= m/M
    indices = np.minimum(np.searchsorted(edges[1:], confidence, side="left") + 1, n_bins)
    counts = np.bincount(indices, minlength=n_bins + 1)[1:].tolist()
    hits = np.bincount(indices, summaries.correct(labels), minlength=n_bins + 1)[1:]
    ordered = np.sort(confidence)
    starts = np.cumsum([0] + counts).tolist()

    bins = []
    for m, count, hit, start in zip(range(1, n_bins + 1), counts, hits, starts):
        if count:
            acc = float(hit / count)
            conf = float(ordered[start:start + count].sum() / count)
        else:
            acc = conf = None
        bins.append(CalibrationBin(m, float(edges[m - 1]), float(edges[m]), count, acc, conf))
    return CalibrationReport(tuple(bins))


def save_reliability(report: CalibrationReport, path, header_comment: str | None = None) -> str:
    """Reliability CSV, ``n/a`` for empty bins; its ``gap`` is signed, ``accuracy - confidence``;
    returns the text written after the header comment."""
    rows = [(b.index, b.lo, b.hi, b.count, b.accuracy, b.confidence,
             None if b.count == 0 else b.accuracy - b.confidence) for b in report.bins]
    text = csv_table(("bin", "lo", "hi", "count", "accuracy", "confidence", "gap"),
                     ("%d", FULL_FORMAT, FULL_FORMAT, "%d") + (FULL_FORMAT,) * 3, *zip(*rows))
    return write_artifact(path, text, header_comment)


def calibration_as_dict(report: CalibrationReport) -> dict:
    return {
        "ece": report.ece,
        "n": report.n,
        "M": report.n_bins,
        "bins": [
            {
                "bin": b.index,
                "lo": b.lo,
                "hi": b.hi,
                "count": b.count,
                "accuracy": b.accuracy,
                "confidence": b.confidence,
                "gap": b.gap,
            }
            for b in report.bins
        ],
    }
