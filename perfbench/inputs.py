"""Seeded benchmark inputs, written without the program's own writers.

Each sample gets a sharpness drawn from U(0, 6) on the logit of one random
class; every pass adds N(0, 1) noise to all logits and applies a softmax.
The label is drawn from the sample's own mean distribution. Normalized
entropy then spreads over [0, 1] and all four cells of the uncertainty
confusion matrix fill, so no count check is vacuous.

The CSV files are rendered here, not by ``save_predictions``/``save_labels``,
so a change to those writers cannot change what the benchmark feeds in.
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

import numpy as np

SHARPNESS_MAX = 6.0


def stochastic_predictions(seed: int, n: int, t: int, c: int):
    """(n, t, c) probability rows and (n,) labels, fixed by ``seed``."""
    rng = np.random.default_rng(seed)
    sharpness = rng.uniform(0.0, SHARPNESS_MAX, n)
    peak = rng.integers(0, c, n)
    logits = rng.standard_normal((n, t, c))
    logits[np.arange(n), :, peak] += sharpness[:, np.newaxis]
    logits -= logits.max(axis=2, keepdims=True)
    e = np.exp(logits)
    probs = e / e.sum(axis=2, keepdims=True)
    cdf = np.cumsum(probs.mean(axis=1), axis=1)
    draw = rng.random(n)
    labels = np.minimum((cdf < draw[:, np.newaxis]).sum(axis=1), c - 1).astype(np.int64)
    return probs, labels


def sample_ids(n: int) -> list[str]:
    return [f"s{i:06d}" for i in range(n)]


def write_predictions_csv(path: Path, ids: list[str], probs: np.ndarray) -> np.ndarray:
    """Write ``sample_id,pass_id,p_0..`` rows at 9 significant digits.

    Returns the probabilities exactly as the file states them, which is what
    the oracles must use.
    """
    n, t, c = probs.shape
    row = "%s,%d," + ",".join(["%.9g"] * c) + "\n"
    buf = io.StringIO()
    buf.write("sample_id,pass_id," + ",".join(f"p_{k}" for k in range(c)) + "\n")
    for i, sid in enumerate(ids):
        for p in range(t):
            buf.write(row % (sid, p, *probs[i, p]))
    text = buf.getvalue()
    Path(path).write_text(text, encoding="utf-8")
    stated = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1,
                        usecols=range(2, 2 + c), dtype=np.float64)
    return stated.reshape(n, t, c)


def write_labels_csv(path: Path, ids: list[str], labels: np.ndarray) -> None:
    lines = ["sample_id,label"] + [f"{sid},{int(k)}" for sid, k in zip(ids, labels)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def describe_file(name: str, path: Path, shape) -> dict:
    data = Path(path).read_bytes()
    return {"name": name, "shape": list(shape), "bytes": len(data),
            "sha256": hashlib.sha256(data).hexdigest()}


def describe_array(name: str, array: np.ndarray) -> dict:
    array = np.ascontiguousarray(array)
    return {"name": name, "shape": list(array.shape), "bytes": int(array.nbytes),
            "sha256": hashlib.sha256(array.tobytes()).hexdigest()}
