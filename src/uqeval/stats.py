"""Point-prediction metrics and the paired t-test used to compare runs.

The Student-t tail probability is computed from the regularized incomplete
beta function, implemented here with the modified Lentz continued fraction
(1e-14 convergence target, 300-iteration cap) so the package needs no
statistics dependency. Binary AUC uses the rank (Mann-Whitney) estimator
with ties counted half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .aggregate import Summaries
from .errors import ValidationError
from .tensor import LabelSet, aligned_labels

BETA_TOL = 1e-14
BETA_MAX_ITER = 300
POINT_METRICS = ("accuracy", "auc")


def accuracy(summaries: Summaries, labels: LabelSet) -> float:
    """Fraction of samples whose predicted class equals the label."""
    return float(np.mean(summaries.correct(labels)))


def auc_binary(scores, labels) -> float:
    """P(score@positive > score@negative) + half the tie probability.

    ``scores`` are per-sample probabilities of the positive class (label 1);
    ``labels`` is a parallel 0/1 array. Computed from average ranks in
    O(n log n); both classes must be present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValidationError("scores and labels must be parallel 1-D arrays")
    if not np.all(np.isfinite(scores)):
        raise ValidationError("scores must be finite")
    pos = labels == 1
    neg = labels == 0
    if not (np.all(pos | neg) and pos.any() and neg.any()):
        raise ValidationError("labels must contain both classes 0 and 1")
    ranks = _average_ranks(scores)
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    u = float(ranks[pos].sum()) - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties assigned the mean rank of their group."""
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # 1-based rank of each tie group's last member
    return (last - 0.5 * (counts - 1))[group]


def log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Modified Lentz evaluation of the incomplete-beta continued fraction."""
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
    raise ValidationError(
        f"incomplete beta failed to converge for a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0.0 or b <= 0.0:
        raise ValidationError("incomplete beta needs a, b > 0")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"incomplete beta argument {x} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta(a, b))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """Two-sided p-value for an observed t statistic."""
    if math.isnan(t):
        raise ValidationError("t statistic is NaN")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    return regularized_incomplete_beta(df / (df + t * t), 0.5 * df, 0.5)


@dataclass(frozen=True)
class MetricDistribution:
    """Values of one scalar metric across repeated seeded runs."""

    name: str
    values: tuple[float, ...]
    run_seeds: tuple[int, ...]

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        seeds = tuple(int(s) for s in self.run_seeds)
        if len(values) != len(seeds):
            raise ValidationError("values and run_seeds must be parallel")
        if any(not math.isfinite(v) for v in values):
            raise ValidationError("metric values must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "run_seeds", seeds)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def sd(self) -> float:
        return float(np.std(self.values, ddof=1)) if len(self.values) > 1 else 0.0


@dataclass(frozen=True)
class PairedTestResult:
    t_statistic: float
    degrees_of_freedom: int
    p_value: float
    mean_difference: float
    degenerate: bool = False

    def __post_init__(self):
        if self.degrees_of_freedom < 1:
            raise ValidationError("paired test needs at least 2 runs")
        if not 0.0 <= self.p_value <= 1.0:
            raise ValidationError(f"p-value {self.p_value} outside [0, 1]")


def paired_t_test(a: MetricDistribution, b: MetricDistribution) -> PairedTestResult:
    """Two-sided paired t-test on per-run differences a - b.

    Runs are paired by position and must carry matching seeds. When the
    differences have zero variance the result is flagged degenerate:
    t = +/-inf with p = 0 for a nonzero mean, t = 0 with p = 1 otherwise.
    """
    if len(a.values) != len(b.values):
        raise ValidationError(
            f"cannot pair {len(a.values)} runs with {len(b.values)} runs"
        )
    if a.run_seeds != b.run_seeds:
        raise ValidationError("paired runs must share the same seed sequence")
    n = len(a.values)
    if n < 2:
        raise ValidationError("paired test needs at least 2 runs")
    d = np.array(a.values, dtype=np.float64) - np.array(b.values, dtype=np.float64)
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    df = n - 1
    if sd == 0.0:
        if mean == 0.0:
            return PairedTestResult(0.0, df, 1.0, 0.0, degenerate=True)
        t = math.inf if mean > 0 else -math.inf
        return PairedTestResult(t, df, 0.0, mean, degenerate=True)
    t = mean / (sd / math.sqrt(n))
    return PairedTestResult(t, df, student_t_two_sided_p(t, df), mean)


@dataclass(frozen=True)
class ModelComparison:
    """Fig.-2-style comparison: per-metric distributions and paired tests."""

    metric: str
    a: MetricDistribution
    b: MetricDistribution
    test: PairedTestResult

    def as_dict(self) -> dict:
        t = self.test.t_statistic
        if math.isinf(t):  # JSON has no Infinity literal
            t = "inf" if t > 0 else "-inf"
        return {
            "metric": self.metric,
            "mean_a": self.a.mean,
            "sd_a": self.a.sd,
            "mean_b": self.b.mean,
            "sd_b": self.b.sd,
            "t": t,
            "df": self.test.degrees_of_freedom,
            "p": self.test.p_value,
            "degenerate": self.test.degenerate,
        }


def positive_class_scores(summaries: Summaries) -> np.ndarray:
    """Probability of class 1 from each sample's predictive mean."""
    if summaries.n_classes != 2:
        raise ValidationError("AUC is defined here for binary tasks only")
    return summaries.means[:, 1]


def point_metrics(summaries: Summaries, labels: LabelSet) -> dict[str, float]:
    """Accuracy and binary AUC of one run's predictive means, with its labels aligned once."""
    truth = aligned_labels(summaries.sample_ids, labels, summaries.n_classes)
    return {
        "accuracy": float(np.mean(summaries.predicted_class == truth)),
        "auc": auc_binary(positive_class_scores(summaries), truth),
    }


def comparison_as_dict(comparisons: dict[str, ModelComparison]) -> dict:
    """JSON-ready block of every metric's comparison, by metric name."""
    return {metric: cmp.as_dict() for metric, cmp in comparisons.items()}


def comparison_values_csv(comparisons: dict[str, "ModelComparison"]) -> str:
    """Raw per-run distribution values for external plotting."""
    lines = ["metric,run_index,seed,value_a,value_b"]
    for metric, cmp in comparisons.items():
        for i, (seed, va, vb) in enumerate(zip(cmp.a.run_seeds, cmp.a.values, cmp.b.values)):
            lines.append(f"{metric},{i},{seed},{'%.17g' % va},{'%.17g' % vb}")
    return "\n".join(lines) + "\n"


def compare_models(runs_a, runs_b) -> dict[str, ModelComparison]:
    """Paired tests of every :func:`point_metrics` metric over matched repeated runs.

    Each run is a ``(seed, summaries, labels)`` triple; the two lists must
    have equal length and matching seed order.
    """
    if len(runs_a) != len(runs_b):
        raise ValidationError(
            f"cannot pair {len(runs_a)} runs with {len(runs_b)} runs"
        )

    def distributions(runs, side):
        seeds = tuple(int(seed) for seed, _, _ in runs)
        points = [point_metrics(summaries, labels) for _, summaries, labels in runs]
        return {m: MetricDistribution(f"{m}_{side}", tuple(p[m] for p in points), seeds)
                for m in POINT_METRICS}

    a, b = distributions(runs_a, "a"), distributions(runs_b, "b")
    return {m: ModelComparison(m, a[m], b[m], paired_t_test(a[m], b[m])) for m in POINT_METRICS}
