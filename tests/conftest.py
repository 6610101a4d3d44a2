import numpy as np
import pytest

from uqeval import Summaries, student_t_two_sided_p
from uqeval.demo import DemoPreset, evaluate_demo

DEMO_SEED = 7


@pytest.fixture(scope="session")
def demo_run():
    """One full default-preset demo evaluation shared across the session."""
    result, comparison = evaluate_demo(DEMO_SEED, DemoPreset())
    return result, comparison


def random_prob_rows(rng: np.random.Generator, n_rows: int, n_classes: int) -> np.ndarray:
    """Exactly normalized random probability rows (Dirichlet-flat)."""
    raw = rng.dirichlet(np.ones(n_classes), size=n_rows)
    return raw / raw.sum(axis=1, keepdims=True)


def entropy_of(rows) -> np.ndarray:
    """The ``entropy`` column that ``aggregate`` writes for these mean rows, one per row."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    return Summaries.from_means(tuple(f"s{i}" for i in range(len(rows))), rows).entropy


def t_cdf(x: float, df: float) -> float:
    """Student's t CDF from the two-sided p-value: ``1 - p(x)/2`` for x >= 0, ``p(x)/2`` below."""
    tail = 0.5 * student_t_two_sided_p(x, df)
    return tail if x < 0 else 1.0 - tail
