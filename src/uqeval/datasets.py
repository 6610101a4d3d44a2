"""Synthetic 2-D binary datasets so the pipeline runs without external data.

Two generators: interleaved half-circles ("two-moons", linearly inseparable)
and a pair of Gaussian blobs centred at (-2, 0) and (2, 0). Points get a
deterministic stratified train/test split, 75/25 in each class, and stable
row ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .tensor import class_indices, write_artifact

GENERATORS = ("two-moons", "gaussian-blobs")
TRAIN_FRACTION = 0.75
BLOB_CENTERS = ((-2.0, 0.0), (2.0, 0.0))


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    x: np.ndarray
    y: np.ndarray
    train_idx: np.ndarray
    test_idx: np.ndarray
    ids: tuple[str, ...] = field(init=False)

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        y = class_indices(self.y)
        if x.ndim != 2 or x.shape[1] != 2 or x.shape[0] != y.shape[0]:
            raise ValidationError(f"bad dataset shapes x{x.shape} y{y.shape}")
        for name, arr in (("x", x), ("y", y), ("train_idx", np.asarray(self.train_idx)),
                          ("test_idx", np.asarray(self.test_idx))):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if set(self.train_idx) | set(self.test_idx) != set(range(len(y))):
            raise ValidationError("train/test indices must partition the dataset")
        if set(self.train_idx) & set(self.test_idx):
            raise ValidationError("train/test indices overlap")
        for split_name, idx in (("train", self.train_idx), ("test", self.test_idx)):
            if len(set(y[idx].tolist())) < 2:
                raise ValidationError(f"{split_name} split misses a class")
        object.__setattr__(self, "ids", tuple(f"s{i:04d}" for i in range(len(y))))

    @property
    def n(self) -> int:
        return len(self.y)

    @property
    def train_x(self) -> np.ndarray:
        return self.x[self.train_idx]

    @property
    def train_y(self) -> np.ndarray:
        return self.y[self.train_idx]

    @property
    def test_x(self) -> np.ndarray:
        return self.x[self.test_idx]

    @property
    def test_y(self) -> np.ndarray:
        return self.y[self.test_idx]

    @property
    def test_ids(self) -> tuple[str, ...]:
        return tuple(self.ids[i] for i in self.test_idx)


def generate_dataset(kind: str, n: int, noise: float, seed: int) -> SyntheticDataset:
    """Deterministic synthetic dataset with a stratified split."""
    if kind not in GENERATORS:
        raise ValidationError(f"unknown generator {kind!r}; expected one of {GENERATORS}")
    if n < 20:
        raise ValidationError(f"need at least 20 points, got {n}")
    if noise < 0:
        raise ValidationError("noise must be nonnegative")
    ss = np.random.SeedSequence(seed)
    points_rng, split_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    if kind == "two-moons":
        x, y = _two_moons(n, noise, points_rng)
    else:
        x, y = _gaussian_blobs(n, noise, points_rng)
    train_idx, test_idx = _stratified_split(y, split_rng)
    return SyntheticDataset(x=x, y=y, train_idx=train_idx, test_idx=test_idx)


def _two_moons(n: int, noise: float, rng: np.random.Generator):
    n_upper = n // 2
    n_lower = n - n_upper
    t_upper = np.linspace(0.0, np.pi, n_upper)
    t_lower = np.linspace(0.0, np.pi, n_lower)
    upper = np.column_stack([np.cos(t_upper), np.sin(t_upper)])
    lower = np.column_stack([1.0 - np.cos(t_lower), 0.5 - np.sin(t_lower)])
    x = np.vstack([upper, lower])
    x += rng.normal(0.0, noise, size=x.shape) if noise > 0 else 0.0
    y = np.concatenate([np.zeros(n_upper, dtype=np.int64), np.ones(n_lower, dtype=np.int64)])
    return x, y


def _gaussian_blobs(n: int, noise: float, rng: np.random.Generator):
    n_a = n // 2
    n_b = n - n_a
    scale = noise if noise > 0 else 1e-12
    a = rng.normal(0.0, scale, size=(n_a, 2)) + np.asarray(BLOB_CENTERS[0])
    b = rng.normal(0.0, scale, size=(n_b, 2)) + np.asarray(BLOB_CENTERS[1])
    x = np.vstack([a, b])
    y = np.concatenate([np.zeros(n_a, dtype=np.int64), np.ones(n_b, dtype=np.int64)])
    return x, y


def _stratified_split(y: np.ndarray, rng: np.random.Generator):
    train_parts, test_parts = [], []
    for cls in np.unique(y):
        members = np.flatnonzero(y == cls)
        members = members[rng.permutation(len(members))]
        cut = int(round(TRAIN_FRACTION * len(members)))
        cut = min(max(cut, 1), len(members) - 1)
        train_parts.append(members[:cut])
        test_parts.append(members[cut:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return train_idx, test_idx


def save_dataset(dataset: SyntheticDataset, path, header_comment: str | None = None) -> None:
    """CSV export: ``x0,x1,label,split``."""
    split = np.empty(dataset.n, dtype=object)
    split[dataset.train_idx] = "train"
    split[dataset.test_idx] = "test"
    rows = "".join(
        "%.17g,%.17g,%d,%s\n" % (dataset.x[i, 0], dataset.x[i, 1], dataset.y[i], split[i])
        for i in range(dataset.n)
    )
    write_artifact(path, "x0,x1,label,split\n" + rows, header_comment)
