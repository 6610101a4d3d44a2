"""Uncertainty confusion matrix and its derived metrics.

Each prediction is crossed by correctness (predicted class vs. label) and
certainty (uncertainty score vs. threshold, uncertain iff ``u >= t``) into
one of four outcomes:

* TC - correct and certain (the favourable diagonal, with TU);
* TU - incorrect and uncertain;
* FU - correct and uncertain (fortunate: flagged but right);
* FC - incorrect and certain (the worst cell: confidently wrong).

The four ratios are properties of the matrix: USen = TU/(TU+FC), USpe =
TC/(TC+FU), UPre = TU/(TU+FU), UAcc = (TU+TC)/n, read off its counts. A 0/0
ratio is ``None`` (rendered ``n/a`` in text, ``null`` in JSON), never a number.

Thresholds are on the normalized-entropy scale, entropy over ``log2(C)``,
which for the binary task is the entropy in bits.

Every evaluation aligns labels once. A sweep then counts all thresholds
from one sort of each correctness group: the certain members of a group at
threshold ``t`` are those sorted before ``t``. This is the ROC construction
with uncertainty as the score (Fawcett 2006, *An introduction to ROC
analysis*, Alg. 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aggregate import Summaries
from .errors import ValidationError
from .tensor import (FULL_FORMAT, LabelSet, csv_fields, csv_table, require_real,
                     require_sequence, write_artifact)


@dataclass(frozen=True)
class UncertaintyConfusion:
    """The four outcome counts at one threshold."""

    threshold: float
    tc: int
    tu: int
    fu: int
    fc: int

    def __post_init__(self):
        for name in ("tc", "tu", "fu", "fc"):
            if getattr(self, name) < 0:
                raise ValidationError(f"count {name} is negative")

    @property
    def n(self) -> int:
        return self.tc + self.tu + self.fu + self.fc

    # the four ratios of the counts; each is None when its denominator is 0
    usen = property(lambda u: _ratio(u.tu, u.tu + u.fc), doc="TU over all incorrect predictions")
    uspe = property(lambda u: _ratio(u.tc, u.tc + u.fu), doc="TC over all correct predictions")
    upre = property(lambda u: _ratio(u.tu, u.tu + u.fu), doc="TU over all uncertain predictions")
    uacc = property(lambda u: _ratio(u.tu + u.tc, u.n), doc="TU + TC over all predictions")


def _ratio(num: int, den: int) -> float | None:
    if den == 0:
        return None
    return num / den


NORMALIZED_THRESHOLDS = (0.0, 1.0)


def _confusions(summaries: Summaries, labels: LabelSet, thresholds) -> list[UncertaintyConfusion]:
    """Outcome counts at each threshold; uncertain iff ``u >= threshold``."""
    thresholds = [require_real(t, "threshold", *NORMALIZED_THRESHOLDS) for t in thresholds]
    correct = summaries.correct(labels)
    u = summaries.normalized_entropy
    # searchsorted(side="left") counts the values strictly below each threshold
    certain_right = np.searchsorted(np.sort(u[correct]), thresholds, side="left").tolist()
    certain_wrong = np.searchsorted(np.sort(u[~correct]), thresholds, side="left").tolist()
    n_right = int(np.count_nonzero(correct))
    n_wrong = len(summaries) - n_right
    return [
        UncertaintyConfusion(threshold=t, tc=tc, tu=n_wrong - fc, fu=n_right - tc, fc=fc)
        for t, tc, fc in zip(thresholds, certain_right, certain_wrong)
    ]


def build_ucm(summaries: Summaries, labels: LabelSet, threshold: float) -> UncertaintyConfusion:
    """Count the four outcomes over all samples at one threshold."""
    return _confusions(summaries, labels, [threshold])[0]


@dataclass(frozen=True)
class SweepPoint:
    """One threshold of a sweep: its confusion matrix."""

    ucm: UncertaintyConfusion

    @property
    def threshold(self) -> float:
        return self.ucm.threshold


@dataclass(frozen=True)
class SweepCurve:
    """Per-threshold confusion matrices along an increasing grid."""

    points: tuple[SweepPoint, ...]

    def __post_init__(self):
        thresholds = [p.threshold for p in self.points]
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValidationError("sweep thresholds must be strictly increasing")
        uspes = [u for p in self.points if (u := p.ucm.uspe) is not None]
        if any(b < a for a, b in zip(uspes, uspes[1:])):
            raise ValidationError("uspe must be nondecreasing along the sweep")
        usens = [u for p in self.points if (u := p.ucm.usen) is not None]
        if any(b > a for a, b in zip(usens, usens[1:])):
            raise ValidationError("usen must be nonincreasing along the sweep")

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def threshold_sweep(summaries: Summaries, labels: LabelSet, thresholds) -> SweepCurve:
    """Evaluate the confusion metrics at every threshold of an increasing grid."""
    if not (thresholds := require_sequence(thresholds, "thresholds")):
        raise ValidationError("empty threshold grid")
    return SweepCurve(tuple(
        SweepPoint(ucm) for ucm in _confusions(summaries, labels, thresholds)
    ))


@dataclass(frozen=True)
class SeparationReport:
    """Normalized-entropy statistics of the correct vs. incorrect groups.

    ``correct_entropies`` and ``incorrect_entropies`` hold the group values
    the statistics summarize, for plotting.
    """

    n_correct: int
    n_incorrect: int
    correct_mean: float | None
    correct_median: float | None
    incorrect_mean: float | None
    incorrect_median: float | None
    mean_difference: float | None
    median_difference: float | None
    correct_entropies: np.ndarray = field(repr=False, compare=False)
    incorrect_entropies: np.ndarray = field(repr=False, compare=False)


def separation_report(summaries: Summaries, labels: LabelSet) -> SeparationReport:
    """Group statistics of normalized entropy split by prediction correctness.

    Differences are incorrect minus correct; a positive value means errors
    carry higher uncertainty. Statistics of an empty group are None.
    """
    correct = summaries.correct(labels)
    u = summaries.normalized_entropy
    groups = {True: u[correct], False: u[~correct]}

    def stats(values):
        if values.size == 0:
            return None, None
        return float(values.mean()), _median(values)

    c_mean, c_median = stats(groups[True])
    i_mean, i_median = stats(groups[False])
    both = c_mean is not None and i_mean is not None
    return SeparationReport(
        n_correct=int(groups[True].size),
        n_incorrect=int(groups[False].size),
        correct_mean=c_mean,
        correct_median=c_median,
        incorrect_mean=i_mean,
        incorrect_median=i_median,
        mean_difference=(i_mean - c_mean) if both else None,
        median_difference=(i_median - c_median) if both else None,
        correct_entropies=groups[True],
        incorrect_entropies=groups[False],
    )


def _median(values: np.ndarray) -> float:
    """``statistics.median`` of ``values``, bit for bit, from one unstable sort.

    The middle value, or the mean ``(a + b) / 2`` of the middle two, of the
    values sorted with equal values kept in input order. An unstable sort
    differs from that order only among the zeros, since -0.0 == 0.0; so
    when a zero is in the middle, the zeros are put back in input order.
    ``np.median`` is neither: it turns a -0.0 median (the entropy of a
    one-hot mean) into 0.0.
    """
    ordered = np.sort(values)
    middle = len(ordered) // 2
    if not ordered[middle - 1 + len(ordered) % 2:middle + 1].all():
        zeros = values[values == 0.0]
        start = int(np.searchsorted(ordered, 0.0))
        ordered[start:start + len(zeros)] = zeros
    if len(ordered) % 2:
        return float(ordered[middle])
    return (float(ordered[middle - 1]) + float(ordered[middle])) / 2


SWEEP_HEADER = "threshold,tc,tu,fu,fc,uacc,usen,uspe,upre"


def save_sweep(curves: SweepCurve | dict[str, SweepCurve], path,
               header_comment: str | None = None) -> str:
    """Write :func:`sweep_table`; returns the text written after the header comment."""
    return write_artifact(path, sweep_table(curves), header_comment)


def sweep_table(curves: SweepCurve | dict[str, SweepCurve]) -> str:
    """Sweep CSV text with ``n/a`` for undefined ratios.

    ``curves`` is one curve, or a dict of curves by scheme name; a dict adds
    a leading ``scheme`` column so the sweeps share one file.
    """
    by_scheme = isinstance(curves, dict)
    named = zip(csv_fields(curves), curves.values()) if by_scheme else [(None, curves)]
    rows = [(scheme, threshold_field(u.threshold), u.tc, u.tu, u.fu, u.fc, u.uacc, u.usen,
             u.uspe, u.upre) for scheme, curve in named for u in (p.ucm for p in curve)]
    columns = list(zip(*rows))
    header, fields = SWEEP_HEADER.split(","), ["%s"] + ["%d"] * 4 + [FULL_FORMAT] * 4
    if by_scheme:
        return csv_table(["scheme"] + header, ["%s"] + fields, *columns)
    return csv_table(header, fields, *columns[1:])


def threshold_field(threshold: float) -> str:
    """``threshold`` at the fewest significant digits, 12 or more, that read back as it."""
    return next(text for digits in range(12, 18)
                if float(text := "%.*g" % (digits, threshold)) == threshold)


def ucm_as_dict(ucm: UncertaintyConfusion) -> dict:
    """JSON-ready mirror of one confusion matrix with nulls for 0/0 ratios."""
    acc = ucm.uacc
    return {
        "threshold": ucm.threshold,
        "counts": {"tc": ucm.tc, "tu": ucm.tu, "fu": ucm.fu, "fc": ucm.fc},
        "n": ucm.n,
        "uacc": acc,
        "uacc_percent": None if acc is None else 100.0 * acc,
        "usen": ucm.usen,
        "uspe": ucm.uspe,
        "upre": ucm.upre,
    }


def separation_as_dict(report: SeparationReport) -> dict:
    return {
        "n_correct": report.n_correct,
        "n_incorrect": report.n_incorrect,
        "correct": {"mean": report.correct_mean, "median": report.correct_median},
        "incorrect": {"mean": report.incorrect_mean, "median": report.incorrect_median},
        "mean_difference": report.mean_difference,
        "median_difference": report.median_difference,
    }
