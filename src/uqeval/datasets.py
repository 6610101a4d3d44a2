"""A synthetic 2-D binary dataset so the pipeline runs without external data.

Two interleaved half-circles ("two-moons", linearly inseparable), each point
moved by Gaussian noise of standard deviation ``noise``. Points get a
deterministic stratified train/test split, 75/25 in each class, and stable
row ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError
from .tensor import (FULL_FORMAT, class_indices, csv_table, require_integer, require_real,
                     require_seed, write_artifact)

TRAIN_FRACTION = 0.75


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


def generate_dataset(n: int, noise: float, seed: int) -> SyntheticDataset:
    """Deterministic two-moons dataset with a stratified split."""
    require_integer(n, "n", 20, f"need at least 20 points, got {n}")
    noise = require_real(noise, "noise", 0.0, np.inf, "{name} must be nonnegative")
    ss = np.random.SeedSequence(require_seed(seed))
    points_rng, split_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    n_upper = n // 2
    n_lower = n - n_upper
    t_upper = np.linspace(0.0, np.pi, n_upper)
    t_lower = np.linspace(0.0, np.pi, n_lower)
    upper = np.column_stack([np.cos(t_upper), np.sin(t_upper)])
    lower = np.column_stack([1.0 - np.cos(t_lower), 0.5 - np.sin(t_lower)])
    x = np.vstack([upper, lower])
    x += points_rng.normal(0.0, noise, size=x.shape) if noise > 0 else 0.0
    y = np.concatenate([np.zeros(n_upper, dtype=np.int64), np.ones(n_lower, dtype=np.int64)])
    train_idx, test_idx = _stratified_split(y, split_rng)
    return SyntheticDataset(x=x, y=y, train_idx=train_idx, test_idx=test_idx)


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
    text = csv_table(("x0", "x1", "label", "split"), (FULL_FORMAT, FULL_FORMAT, "%d", "%s"),
                     dataset.x[:, 0], dataset.x[:, 1], dataset.y, split)
    write_artifact(path, text, header_comment)
