"""Collapse prediction tensors into columnar per-sample predictive summaries.

All three aggregation schemes (MC-dropout, ensemble, ensemble-MC-dropout)
reduce the pass axis to a single predictive mean per sample and score its
predictive entropy. MCD and ensemble average over the full pass axis; EMCD
first averages within each member's passes and then averages the member
means, which coincides with the grand mean when every member contributed
the same number of passes.

The result is one :class:`Summaries`: a struct of arrays with one row per
sample id, validated once as a whole. Its ``sample_ids`` are the tensor's
own :class:`~uqeval.tensor.SampleIds`, checked when the tensor was built and
shared, not checked again. :meth:`Summaries.correct` matches it to labels
through :func:`uqeval.tensor.aligned_labels`.

Entropy defaults to base 2 and is reported both raw and normalized by
``log2(C)`` so uncertainty thresholds live on [0, 1] for any class count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError
from .tensor import (
    FULL_FORMAT,
    ROW_SUM_TOL,
    LabelSet,
    PredictionTensor,
    SampleIds,
    aligned_labels,
    check_class_columns,
    class_sums,
    csv_fields,
    csv_table,
    pass_means,
    read_table,
    require_choice,
    require_integer,
    require_sequence,
    table_columns,
    write_artifact,
)

# Clamp applies inside the log only, so 0 * log(0) evaluates to exactly 0.
LOG_CLAMP = 1e-300

SCHEME_KINDS = ("mcd", "ensemble", "emcd")
LOG_BASES = ("2", "e")


@dataclass(frozen=True)
class AggregationScheme:
    """How a tensor's pass axis maps to an aggregation rule.

    ``member_pass_counts`` is required for EMCD and partitions the pass
    axis into consecutive per-member blocks; it must sum to the tensor's
    pass count.
    """

    kind: str
    member_pass_counts: tuple[int, ...] | None = None

    def __post_init__(self):
        if require_choice(self.kind, "scheme kind", SCHEME_KINDS) == "emcd":
            parts = tuple(require_integer(p, "member pass count")
                          for p in require_sequence(self.member_pass_counts, "member_pass_counts"))
            if not parts or min(parts) < 1:
                raise ValidationError(f"emcd needs members of at least one pass each, got {parts}")
            object.__setattr__(self, "member_pass_counts", parts)
        elif self.member_pass_counts is not None:
            raise ValidationError(f"{self.kind} does not take member_pass_counts")


MCD = AggregationScheme("mcd")
ENSEMBLE = AggregationScheme("ensemble")


def emcd_scheme(member_pass_counts) -> AggregationScheme:
    return AggregationScheme("emcd", tuple(member_pass_counts))


def _column(values, dtype) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    column.flags.writeable = False
    return column


def _require(ok: np.ndarray, ids, message: str, values=None) -> None:
    """Raise ``message`` for the first sample where ``ok`` is false."""
    if not ok.all():
        i = int(np.argmin(ok))
        value = None if values is None else values[i]
        raise ValidationError(message.format(id=repr(ids[i]), value=value))


@dataclass(frozen=True, eq=False)
class Summaries:
    """Per-sample aggregates as columns: row ``i`` describes ``sample_ids[i]``.

    ``means`` is the (samples, classes) predictive mean, ``predicted_class``
    its argmax (ties break low), ``confidence`` the argmax component, and
    ``entropy``/``normalized_entropy`` its predictive entropy, raw and divided
    by ``log(C)``. Columns are read-only copies, checked against each other
    on construction.
    """

    sample_ids: tuple[str, ...]
    means: np.ndarray
    predicted_class: np.ndarray
    confidence: np.ndarray
    entropy: np.ndarray
    normalized_entropy: np.ndarray

    def __post_init__(self):
        ids = SampleIds(self.sample_ids)
        if not ids:
            raise ValidationError("need at least one sample")
        means = _column(self.means, np.float64)
        if means.ndim != 2 or means.shape[0] != len(ids) or means.shape[1] < 2:
            raise ValidationError(
                f"means must have shape ({len(ids)}, classes >= 2), got {means.shape}"
            )
        predicted = _column(self.predicted_class, np.int64)
        confidence = _column(self.confidence, np.float64)
        entropy = _column(self.entropy, np.float64)
        normalized = _column(self.normalized_entropy, np.float64)
        if {c.shape for c in (predicted, confidence, entropy, normalized)} != {(len(ids),)}:
            raise ValidationError(f"every per-sample column must have shape ({len(ids)},)")
        sums = class_sums(means)
        _require(np.all(means >= 0.0, axis=1), ids,
                 "summary mean for {id} has a negative or NaN component")
        # a mean written at 9 significant digits may sum to 1 +- 5e-9, so
        # summaries take the tolerance of a predictions row
        _require(np.abs(sums - 1.0) <= ROW_SUM_TOL, ids,
                 "summary mean for {id} sums to {value:.12g}", sums)
        _require(predicted == np.argmax(means, axis=1), ids,
                 "predicted_class of {id} is not the argmax of its mean")
        _require(confidence == means[np.arange(len(ids)), predicted], ids,
                 "confidence of {id} is not its mean's argmax component")
        _require((normalized >= 0.0) & (normalized <= 1.0), ids,
                 "normalized entropy {value} of {id} outside [0, 1]", normalized)
        _require(entropy >= 0.0, ids, "entropy {value} of {id} is negative", entropy)
        for name, value in (("sample_ids", ids), ("means", means), ("predicted_class", predicted),
                            ("confidence", confidence), ("entropy", entropy),
                            ("normalized_entropy", normalized)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_means(cls, sample_ids, means, base: str = "2") -> Summaries:
        """Summaries of already-aggregated mean rows, each summing to 1."""
        means = np.asarray(means, dtype=np.float64)
        if means.ndim != 2 or means.shape[1] < 2:
            raise ValidationError(
                f"means must have shape (samples, classes >= 2), got {means.shape}"
            )
        predicted = np.argmax(means, axis=1)
        entropy = _entropy(means, base)
        return cls(
            sample_ids=sample_ids,
            means=means,
            predicted_class=predicted,
            confidence=means[np.arange(len(means)), predicted],
            entropy=entropy,
            normalized_entropy=_normalized(entropy, means.shape[1], base),
        )

    def __len__(self) -> int:
        return len(self.sample_ids)

    @property
    def n_classes(self) -> int:
        return self.means.shape[1]

    def correct(self, labels: LabelSet) -> np.ndarray:
        """Whether each predicted class equals its sample's label."""
        return self.predicted_class == aligned_labels(self.sample_ids, labels, self.n_classes)


def _entropy(means: np.ndarray, base: str) -> np.ndarray:
    """Entropy along the last axis; a rounding-negative value becomes 0.

    ``0.0 - sum`` rather than ``-sum``: a one-hot mean sums to +0.0, and its
    entropy is then +0.0, not -0.0.
    """
    log = _log_fn(base)
    value = 0.0 - class_sums(means * log(np.clip(means, LOG_CLAMP, 1.0)))
    return np.where(0.0 > value, 0.0, value)


def max_entropy(n_classes: int, base: str = "2") -> float:
    return float(_log_fn(base)(n_classes))


def _normalized(entropy: np.ndarray, n_classes: int, base: str) -> np.ndarray:
    """Entropy divided by ``log(C)``, a rounding excess over 1 clipped to 1."""
    normalized = entropy / max_entropy(n_classes, base)
    return np.where(normalized > 1.0, 1.0, normalized)


def _log_fn(base: str):
    return np.log2 if require_choice(base, "log base", LOG_BASES) == "2" else np.log


def aggregate(tensor: PredictionTensor, scheme: AggregationScheme, base: str = "2") -> Summaries:
    """The :class:`Summaries` of every sample under the given scheme."""
    require_choice(base, "log base", LOG_BASES)
    if scheme.kind == "emcd":
        parts = scheme.member_pass_counts
        if sum(parts) != tensor.n_passes:
            raise ValidationError(
                f"partition {parts} sums to {sum(parts)} but tensor has {tensor.n_passes} passes"
            )
        bounds = np.cumsum((0,) + parts)
        member_means = [
            pass_means(tensor.probs[:, bounds[k]:bounds[k + 1], :])
            for k in range(len(parts))
        ]
        means = np.mean(member_means, axis=0)
    else:
        means = pass_means(tensor.probs)
    means = means / class_sums(means)[:, np.newaxis]
    return Summaries.from_means(tensor.sample_ids, means, base)


SUMMARY_COLUMNS = ("sample_id", "predicted_class", "confidence", "entropy", "normalized_entropy")


def save_summaries(summaries: Summaries, path, header_comment: str | None = None) -> str:
    """CSV export: ``sample_id,predicted_class,confidence,entropy,normalized_entropy,p_0..p_{C-1}``;
    returns the text written after the header comment."""
    n_classes = summaries.n_classes
    text = csv_table(
        SUMMARY_COLUMNS + tuple(f"p_{c}" for c in range(n_classes)),
        ("%s", "%d") + (FULL_FORMAT,) * (3 + n_classes),
        csv_fields(summaries.sample_ids), summaries.predicted_class, summaries.confidence,
        summaries.entropy, summaries.normalized_entropy, *summaries.means.T,
    )
    return write_artifact(path, text, header_comment)


def load_summaries(path) -> Summaries:
    """Parse a summaries CSV written by :func:`save_summaries`."""
    header, chunks = read_table(path, "summaries")
    fixed = list(SUMMARY_COLUMNS)
    if header[: len(fixed)] != fixed or len(header) < len(fixed) + 2:
        raise FormatError(f"{path}: unexpected summaries header {header}")
    check_class_columns(path, header[len(fixed):])
    ids, predicted, table = table_columns(header, chunks)
    try:
        summaries = Summaries(
            sample_ids=ids,
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


# Rendering a value at 9 significant digits changes it by a relative 5e-9 at
# most. Over the C means and the stored value that moves an entropy by at most
# 5e-9 * (2 * log2(C) + 1/ln 2), and a normalized entropy by at most 2e-8; both
# stay under this bound for any C below 2**99.
ENTROPY_TOL = 1e-6


def _check_stored_entropies(summaries: Summaries) -> None:
    """Require the entropy columns to be those of the means, in one log base.

    The normalized entropy is checked against the one recomputed from the
    means, which is the same in every base; the raw entropy must then be the
    normalized one times ``log(C)`` in the same base for every row.
    """
    ids, n_classes = summaries.sample_ids, summaries.n_classes
    expected = _normalized(_entropy(summaries.means, "2"), n_classes, "2")
    normalized = summaries.normalized_entropy
    _require(np.abs(normalized - expected) <= ENTROPY_TOL, ids,
             "normalized entropy {value:.9g} of {id} is not that of its mean", normalized)
    fits = [
        np.abs(summaries.entropy - normalized * max_entropy(n_classes, base)) <= ENTROPY_TOL
        for base in LOG_BASES
    ]
    # the base that fits the most rows; it fits all of them if the file is consistent
    _require(max(fits, key=np.count_nonzero), ids,
             "entropy {value:.9g} of {id} is not its normalized entropy times log2(C) or "
             "ln(C) in the log base of the rest of the file", summaries.entropy)
