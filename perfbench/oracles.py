"""Independent numpy oracles and the output checks built on them.

The oracles recompute every reported number from the values the benchmark
generated, with algorithms of their own (bin index by ``ceil``, AUC by
``searchsorted`` over the negatives), never by calling the program. Each
check returns a list of failure messages; an empty list means the output is
correct.

Counts must match exactly, except where a sample sits within ``TIE_EPS`` of
a threshold or has two classes tied for the argmax: there, two correct
float orders may disagree, so each such sample widens the allowed
difference by one. At the benchmark's input sizes such samples are rare
(typically none).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TIE_EPS = 1e-9
VALUE_TOL = 1e-9  # summaries, separation statistics and ECE (absolute)
AUC_TOL = 1e-12
WRITE_RTOL = 1e-8  # probabilities written at >= 9 significant digits


@dataclass(frozen=True)
class Expected:
    """Oracle view of one aggregated prediction set against its labels."""

    mean: np.ndarray
    predicted: np.ndarray
    confidence: np.ndarray
    entropy: np.ndarray
    u: np.ndarray
    labels: np.ndarray
    correct: np.ndarray
    argmax_tie: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)

    def counts(self, threshold: float):
        """(tc, tu, fu, fc) at ``threshold`` and the number of ambiguous samples."""
        uncertain = self.u >= threshold
        c = self.correct
        counts = (int(np.sum(c & ~uncertain)), int(np.sum(~c & uncertain)),
                  int(np.sum(c & uncertain)), int(np.sum(~c & ~uncertain)))
        slack = int(np.sum((np.abs(self.u - threshold) <= TIE_EPS) | self.argmax_tie))
        return counts, slack

    def ece(self, n_bins: int) -> float:
        index = np.clip(np.ceil(self.confidence * n_bins).astype(np.int64), 1, n_bins)
        total = 0.0
        for m in range(1, n_bins + 1):
            members = index == m
            k = int(members.sum())
            if k:
                gap = self.correct[members].mean() - self.confidence[members].mean()
                total += k / self.n * abs(gap)
        return total

    def separation(self) -> dict:
        right, wrong = self.u[self.correct], self.u[~self.correct]
        return {
            "n_correct": int(right.size), "n_incorrect": int(wrong.size),
            "correct_mean": float(right.mean()), "correct_median": float(np.median(right)),
            "incorrect_mean": float(wrong.mean()), "incorrect_median": float(np.median(wrong)),
        }

    def auc(self) -> float:
        """Mann-Whitney AUC of P(class 1), ties counted half."""
        scores = self.mean[:, 1]
        pos, neg = scores[self.labels == 1], np.sort(scores[self.labels == 0])
        below = np.searchsorted(neg, pos, side="left")
        tied = np.searchsorted(neg, pos, side="right") - below
        return float((below.sum() + 0.5 * tied.sum()) / (pos.size * neg.size))


def expected(probs: np.ndarray, labels: np.ndarray, members: int = 1) -> Expected:
    """Aggregate ``probs`` (n, t, c) over passes; EMCD when ``members`` > 1.

    EMCD averages each member's consecutive block of passes, then the member
    means; with equal blocks that equals the grand mean up to rounding.
    """
    n, t, c = probs.shape
    mean = probs.reshape(n, members, t // members, c).mean(axis=2).mean(axis=1)
    mean = mean / mean.sum(axis=1, keepdims=True)
    positive = np.where(mean > 0.0, mean, 1.0)
    entropy = np.maximum(-np.sum(mean * np.log2(positive), axis=1), 0.0)
    top = np.sort(mean, axis=1)
    predicted = np.argmax(mean, axis=1)
    return Expected(
        mean=mean,
        predicted=predicted,
        confidence=top[:, -1],
        entropy=entropy,
        u=np.minimum(entropy / math.log2(c), 1.0),
        labels=labels,
        correct=predicted == labels,
        argmax_tie=(top[:, -1] - top[:, -2]) <= TIE_EPS,
    )


def check_counts(where: str, threshold: float, got, exp: Expected) -> list[str]:
    """``got`` is (tc, tu, fu, fc) as the program reported it."""
    want, slack = exp.counts(threshold)
    got = tuple(int(x) for x in got)
    if sum(got) != exp.n or any(abs(g - w) > slack for g, w in zip(got, want)):
        return [f"{where}: counts (tc,tu,fu,fc) at {threshold:g} are {got}, oracle {want}"
                f" (slack {slack})"]
    return []


def check_close(where: str, got, want: float, tol: float) -> list[str]:
    if got is None or not abs(float(got) - want) <= tol:
        return [f"{where}: {got!r}, oracle {want!r} (tolerance {tol:g})"]
    return []


def check_separation(where: str, got: dict, exp: Expected) -> list[str]:
    want = exp.separation()
    slack = int(exp.argmax_tie.sum())
    errors = []
    for key in ("n_correct", "n_incorrect"):
        if abs(int(got[key]) - want[key]) > slack:
            errors.append(f"{where}: {key} {got[key]}, oracle {want[key]}")
    if not slack:
        for key in ("correct_mean", "correct_median", "incorrect_mean", "incorrect_median"):
            errors += check_close(f"{where}: {key}", got[key], want[key], VALUE_TOL)
    return errors


def _body(fh):
    """The lines of an open file after its leading ``#`` comment lines."""
    for line in fh:
        if not line.startswith("#"):
            yield line
            break
    yield from fh


def data_rows(path: Path) -> list[list[str]]:
    """CSV rows after the leading ``#`` comment lines, header first."""
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(_body(fh)))


def check_summaries_file(path: Path, ids: list[str], exp: Expected) -> list[str]:
    """A summaries CSV must restate the oracle's per-sample aggregate."""
    rows = data_rows(path)
    if not rows:
        return [f"{path.name}: empty"]
    col = {name: i for i, name in enumerate(rows[0])}
    body = rows[1:]
    c = exp.mean.shape[1]
    needed = ["sample_id", "predicted_class", "confidence", "entropy",
              "normalized_entropy"] + [f"p_{k}" for k in range(c)]
    if any(name not in col for name in needed) or len(body) != exp.n:
        return [f"{path.name}: header {rows[0]} with {len(body)} rows, want {exp.n}"]
    if [r[col["sample_id"]] for r in body] != ids:
        return [f"{path.name}: sample ids differ from the input order"]

    def column(name, dtype=np.float64):
        return np.array([r[col[name]] for r in body], dtype=dtype)

    errors = []
    predicted = column("predicted_class", np.int64)
    clear = ~exp.argmax_tie
    if np.any(predicted[clear] != exp.predicted[clear]):
        errors.append(f"{path.name}: predicted_class differs from the oracle argmax")
    for name, want in (("confidence", exp.confidence), ("entropy", exp.entropy),
                       ("normalized_entropy", exp.u)):
        worst = float(np.max(np.abs(column(name) - want)))
        if not worst <= VALUE_TOL:
            errors.append(f"{path.name}: {name} off by {worst:g}")
    means = np.stack([column(f"p_{k}") for k in range(c)], axis=1)
    worst = float(np.max(np.abs(means - exp.mean)))
    if not worst <= VALUE_TOL:
        errors.append(f"{path.name}: mean probabilities off by {worst:g}")
    return errors


def check_predictions_file(path: Path, ids: list[str], probs: np.ndarray) -> list[str]:
    """A predictions CSV must parse back to ``probs`` in sample, then pass, order.

    Rows are streamed into one array, so the check adds little to the
    process's peak memory.
    """
    n, t, c = probs.shape
    values = np.empty((n * t, c))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(_body(fh))
        header = next(rows, None)
        if header != ["sample_id", "pass_id"] + [f"p_{k}" for k in range(c)]:
            return [f"{path.name}: unexpected header {header}"]
        count = 0
        for i, row in enumerate(rows):
            if i >= n * t or row[0] != ids[i // t] or row[1] != str(i % t):
                return [f"{path.name}: row {i + 1} is {row[:2]}, not the tensor's next key"]
            values[i] = [float(x) for x in row[2:]]
            count += 1
    if count != n * t:
        return [f"{path.name}: {count} rows, want {n * t}"]
    values = values.reshape(n, t, c)
    if not np.allclose(values, probs, rtol=WRITE_RTOL, atol=0.0):
        worst = float(np.max(np.abs(values - probs) / np.maximum(probs, 1e-300)))
        return [f"{path.name}: probabilities off by a relative {worst:g}"]
    return []


def check_labels_file(path: Path, ids: list[str], labels: np.ndarray) -> list[str]:
    rows = data_rows(path)
    want = [["sample_id", "label"]] + [[sid, str(int(k))] for sid, k in zip(ids, labels)]
    if rows != want:
        return [f"{path.name}: does not parse back to the labels written"]
    return []


def check_ucm_json(path: Path, threshold: float, exp: Expected) -> list[str]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    c = payload["counts"]
    return check_counts(path.name, threshold, (c["tc"], c["tu"], c["fu"], c["fc"]), exp)


def check_sweep_json(path: Path, grid: list[float], exp: Expected) -> list[str]:
    points = json.loads(path.read_text(encoding="utf-8"))["points"]
    if [round(p["threshold"], 9) for p in points] != [round(t, 9) for t in grid]:
        return [f"{path.name}: thresholds {[p['threshold'] for p in points]}, want {grid}"]
    errors = []
    for p in points:
        c = p["counts"]
        errors += check_counts(path.name, p["threshold"], (c["tc"], c["tu"], c["fu"], c["fc"]), exp)
    return errors


def check_calibration_json(path: Path, n_bins: int, exp: Expected) -> list[str]:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if exp.argmax_tie.any():
        return []
    return check_close(f"{path.name}: ece", payload["ece"], exp.ece(n_bins), VALUE_TOL)


def check_separation_json(path: Path, exp: Expected) -> list[str]:
    p = json.loads(path.read_text(encoding="utf-8"))
    got = {
        "n_correct": p["n_correct"], "n_incorrect": p["n_incorrect"],
        "correct_mean": p["correct"]["mean"], "correct_median": p["correct"]["median"],
        "incorrect_mean": p["incorrect"]["mean"], "incorrect_median": p["incorrect"]["median"],
    }
    return check_separation(path.name, got, exp)
