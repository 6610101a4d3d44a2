"""The statistics of ``scripts/ab_bench.py`` on fixed pair lists; no timing runs here.

``scipy.stats.binomtest`` is the oracle of the sign test.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binomtest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_bench)

# (A, B) walls of ten pairs: B wins nine, by about a third; A's quartiles are 0.063 and 0.06575
PARENT = [0.064, 0.062, 0.066, 0.063, 0.065, 0.067, 0.061, 0.064, 0.070, 0.063]
CHANGE = [0.042, 0.041, 0.045, 0.040, 0.043, 0.044, 0.062, 0.042, 0.046, 0.041]


@pytest.mark.parametrize("n", range(0, 31))
def test_sign_test_equals_scipy_binomtest(n):
    for wins in range(n + 1):
        expected = binomtest(wins, n, 0.5).pvalue if n else 1.0
        assert ab_bench.sign_test_p(wins, n - wins) == pytest.approx(expected, rel=1e-12, abs=0)


def test_abba_order():
    assert ab_bench.abba(3) == [(0, "A"), (0, "B"), (1, "B"), (1, "A"), (2, "A"), (2, "B")]


def test_a_clear_gain():
    m = ab_bench.compare(PARENT, CHANGE, "lower", seed=0)
    assert (m["wins"], m["losses"], m["ties"]) == (9, 1, 0)
    assert m["a"]["median"] == pytest.approx(0.064)
    assert (m["a"]["q1"], m["a"]["q3"]) == pytest.approx((0.063, 0.06575))
    assert m["b"]["median"] == pytest.approx(0.0425)
    assert m["median_change"] == pytest.approx(0.0425 / 0.064 - 1)
    assert not m["quartiles_overlap"]
    assert m["gap_exceeds_spread"] and m["gain_rule_met"]
    assert m["sign_test_p"] == pytest.approx(binomtest(9, 10).pvalue, rel=1e-12)
    ratios = [b / a for a, b in zip(PARENT, CHANGE)]
    assert m["median_ratio"] == pytest.approx(np.median(ratios), rel=1e-15)
    low, high = m["ratio_interval_95"]
    assert min(ratios) <= low <= m["median_ratio"] <= high <= max(ratios)


def test_the_same_revision_twice_meets_no_rule():
    m = ab_bench.compare(PARENT, PARENT[::-1], "lower", seed=0)
    assert m["quartiles_overlap"] and not m["gap_exceeds_spread"] and not m["gain_rule_met"]
    assert m["wins"] == m["losses"] and m["sign_test_p"] == 1.0


def test_a_gain_needs_ten_pairs():
    # the nine pairs B wins
    m = ab_bench.compare(PARENT[:6] + PARENT[7:], CHANGE[:6] + CHANGE[7:], "lower", seed=0)
    assert m["wins"] == 9 and m["gap_exceeds_spread"] and not m["gain_rule_met"]


def test_ties_count_for_neither_side():
    m = ab_bench.compare([1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.0, 4.5], "lower", seed=0)
    assert (m["wins"], m["losses"], m["ties"]) == (1, 1, 2)
    assert m["sign_test_p"] == 1.0


def test_higher_is_better_flips_wins():
    m = ab_bench.compare(PARENT, CHANGE, "higher", seed=0)
    assert (m["wins"], m["losses"]) == (1, 9)
    assert m["gap"] < 0 and not m["gain_rule_met"]


def test_bootstrap_is_seeded():
    ratios = [b / a for a, b in zip(PARENT, CHANGE)]
    assert ab_bench.bootstrap_interval(ratios, 11) == ab_bench.bootstrap_interval(ratios, 11)
    assert ab_bench.bootstrap_interval([0.5] * 4, 0) == (0.5, 0.5)
