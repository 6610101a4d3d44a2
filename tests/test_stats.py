import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqeval import (
    LabelSet,
    MetricDistribution,
    Summaries,
    ValidationError,
    accuracy,
    auc_binary,
    compare_models,
    paired_t_test,
    regularized_incomplete_beta,
    student_t_two_sided_p,
)
from uqeval.stats import _average_ranks, positive_class_scores

import scalar_oracles as oracle
from conftest import t_cdf


def auc_pair_oracle(scores, labels):
    """O(n^2) definition: wins + half ties over all positive-negative pairs."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = scores[np.asarray(labels) == 1]
    neg = scores[np.asarray(labels) == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def betainc_oracle(x, a, b):
    with mpmath.workdps(60):
        return float(mpmath.betainc(a, b, 0, x, regularized=True))


def paired_p_oracle(d):
    """Arbitrary-precision paired-test p on a difference vector."""
    with mpmath.workdps(60):
        d = [mpmath.mpf(float(v)) for v in d]
        n = len(d)
        mean = mpmath.fsum(d) / n
        var = mpmath.fsum((v - mean) ** 2 for v in d) / (n - 1)
        t = mean / mpmath.sqrt(var / n)
        df = mpmath.mpf(n - 1)
        x = df / (df + t * t)
        return float(mpmath.betainc(df / 2, mpmath.mpf("0.5"), 0, x, regularized=True))


def binary_summaries(p1_values):
    p1 = np.asarray(p1_values, dtype=np.float64)
    means = np.stack([1.0 - p1, p1], axis=1)
    ids = [f"s{i}" for i in range(len(p1))]
    return Summaries.from_means(ids, means / means.sum(axis=1, keepdims=True))


class TestAccuracy:
    def test_all_correct(self):
        summaries = binary_summaries([0.9, 0.8])
        labels = LabelSet(("s0", "s1"), np.array([1, 1]))
        assert accuracy(summaries, labels) == 1.0

    def test_complement_labels(self):
        summaries = binary_summaries([0.9, 0.8])
        labels = LabelSet(("s0", "s1"), np.array([0, 0]))
        assert accuracy(summaries, labels) == 0.0

    def test_recount_oracle(self):
        rng = np.random.default_rng(3)
        p1 = rng.uniform(0, 1, 111)
        truth = rng.integers(0, 2, 111)
        summaries = binary_summaries(p1)
        labels = LabelSet(tuple(f"s{i}" for i in range(111)), truth)
        expected = sum(
            1 for predicted, y in zip(summaries.predicted_class, truth) if predicted == y
        ) / 111
        assert accuracy(summaries, labels) == expected


class TestAucBinary:
    def test_perfect_separation(self):
        assert auc_binary([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_ties_is_half(self):
        assert auc_binary([0.5] * 10, [1] * 5 + [0] * 5) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            auc_binary([0.5, 0.6], [1, 1])

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(4, 100))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.uniform(0, 1, n), 1)
            assert abs(auc_binary(scores, labels) - auc_pair_oracle(scores, labels)) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.uniform(0, 1, n)
        transformed = np.exp(3.0 * scores) + 1.0
        assert auc_binary(scores, labels) == pytest.approx(
            auc_binary(transformed, labels), abs=1e-12
        )


def average_ranks_oracle(values):
    """1-based ranks by the tie-group walk over the stably sorted values."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


class TestAverageRanks:
    def test_matches_tie_walk_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 80))
            values = np.round(rng.uniform(0, 1, n), int(rng.integers(0, 3)))
            assert np.array_equal(_average_ranks(values), average_ranks_oracle(values))
        assert np.array_equal(_average_ranks(np.array([0.0, -0.0, 1.0])), [1.5, 1.5, 3.0])


class TestIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert regularized_incomplete_beta(1.0, 2.0, 3.0) == 1.0

    def test_failure_to_converge_names_the_arguments_as_given(self):
        # x lies above (a + 1) / (a + b + 2), so the fraction runs on I_{1-x}(b, a)
        message = "incomplete beta failed to converge for a=1000000.0, b=1100000.0, x=0.4762"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            regularized_incomplete_beta(0.4762, 1e6, 1.1e6)

    def test_against_mpmath(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            x = float(rng.uniform(0, 1))
            a = float(rng.uniform(0.1, 50))
            b = float(rng.uniform(0.1, 50))
            assert regularized_incomplete_beta(x, a, b) == pytest.approx(
                betainc_oracle(x, a, b), abs=1e-13, rel=1e-12
            )

    def test_same_bits_as_two_step_oracle(self):
        # one loop over the even and the odd Lentz step makes the same operations in the same order
        rng = np.random.default_rng(29)
        below = 0
        for _ in range(2000):
            x = float(rng.uniform(0, 1))
            a, b = (float(v) for v in 10.0 ** rng.uniform(-1, 2.5, 2))
            below += x < (a + 1.0) / (a + b + 2.0)
            assert repr(regularized_incomplete_beta(x, a, b)) == repr(
                oracle.regularized_incomplete_beta(x, a, b))
        assert 0 < below < 2000  # both branches of the fraction ran

    def test_demo_t_tests_same_bits_as_two_step_oracle(self, demo_run):
        _, comparison = demo_run
        for cmp in comparison.values():
            t, df = cmp.test.t_statistic, cmp.test.degrees_of_freedom
            assert df == 11 and not cmp.test.degenerate
            assert repr(cmp.test.p_value) == repr(
                oracle.regularized_incomplete_beta(df / (df + t * t), 0.5 * df, 0.5))

    def test_half_degree_shapes(self):
        # the shapes used by the t distribution: (df/2, 1/2)
        for df in (1, 2, 5, 30, 200):
            for x in (1e-6, 0.1, 0.5, 0.9, 1 - 1e-9):
                assert regularized_incomplete_beta(x, df / 2, 0.5) == pytest.approx(
                    betainc_oracle(x, df / 2, 0.5), abs=1e-12
                )


class TestStudentT:
    def test_cdf_at_zero_exact(self):
        for df in (1, 2, 7, 100):
            assert t_cdf(0.0, df) == 0.5

    def test_cdf_symmetry(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            x = float(rng.uniform(-8, 8))
            df = int(rng.integers(1, 60))
            assert abs(t_cdf(x, df) + t_cdf(-x, df) - 1.0) <= 1e-12

    def test_large_df_matches_normal(self):
        df = 100_000
        for x in range(-3, 4):
            normal = 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
            assert abs(t_cdf(float(x), df) - normal) < 1e-3

    def test_two_sided_p_bounds(self):
        assert student_t_two_sided_p(0.0, 5) == 1.0
        assert student_t_two_sided_p(math.inf, 5) == 0.0
        assert 0.0 < student_t_two_sided_p(2.5, 5) < 0.1


def dist(values, seeds=None):
    seeds = tuple(range(len(values))) if seeds is None else tuple(seeds)
    return MetricDistribution(tuple(values), seeds)


class TestPairedTTest:
    def test_identical_runs_degenerate(self):
        a = dist([0.9, 0.8, 0.85])
        result = paired_t_test(a, dist([0.9, 0.8, 0.85]))
        assert result.t_statistic == 0.0
        assert result.p_value == 1.0
        assert result.degenerate

    def test_symmetric_differences(self):
        a = dist([1.0, 0.0])
        b = dist([0.0, 1.0])
        result = paired_t_test(a, b)
        assert result.t_statistic == 0.0
        assert result.p_value == pytest.approx(1.0, abs=1e-12)

    def test_constant_nonzero_difference(self):
        a = dist([1.0, 1.0, 1.0])
        b = dist([0.5, 0.5, 0.5])
        result = paired_t_test(a, b)
        assert result.t_statistic == math.inf
        assert result.p_value == 0.0
        assert result.degenerate

    def test_fixed_vector_against_oracle(self):
        rng = np.random.default_rng(42)
        d = rng.normal(0.02, 0.05, size=10)
        a = dist(0.8 + d)
        b = dist([0.8] * 10)
        result = paired_t_test(a, b)
        assert result.degrees_of_freedom == 9
        assert result.p_value == pytest.approx(paired_p_oracle(d), abs=1e-9)

    def test_antisymmetry(self):
        rng = np.random.default_rng(43)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            a = dist(rng.uniform(0, 1, n))
            b = dist(rng.uniform(0, 1, n))
            ab = paired_t_test(a, b)
            ba = paired_t_test(b, a)
            assert ab.t_statistic == pytest.approx(-ba.t_statistic, abs=1e-12)
            assert ab.p_value == pytest.approx(ba.p_value, abs=1e-12)

    def test_ten_sd_separation_tiny_p(self):
        rng = np.random.default_rng(44)
        base = rng.normal(0.0, 0.01, size=20)
        a = dist(0.9 + base)
        b = dist(0.9 + base - 10 * 0.01)
        result = paired_t_test(a, b)
        assert result.p_value < 1e-6

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            paired_t_test(dist([1, 2]), dist([1, 2, 3]))

    def test_mismatched_seeds_rejected(self):
        a = dist([1.0, 2.0], seeds=(0, 1))
        b = dist([1.0, 2.0], seeds=(1, 0))
        with pytest.raises(ValidationError):
            paired_t_test(a, b)

    def test_single_run_rejected(self):
        with pytest.raises(ValidationError):
            paired_t_test(dist([1.0]), dist([2.0]))

    @pytest.mark.parametrize("seed", [1.7, 2.0, True, "3", None])
    def test_distribution_run_seeds_must_be_integers(self, seed):
        with pytest.raises(ValidationError,
                           match=re.escape(f"run seed must be an integer, got {seed!r}")):
            dist([1.0, 2.0], seeds=(0, seed))


class TestCompareModels:
    def _runs(self, rng, n_runs, shift=0.0):
        runs = []
        for seed in range(n_runs):
            p1 = np.clip(rng.uniform(0.05, 0.95, 40) + shift, 0.0, 1.0)
            summaries = binary_summaries(p1)
            truth = (rng.uniform(0, 1, 40) < p1).astype(np.int64)
            if truth.min() == truth.max():
                truth[0] = 1 - truth[0]
            labels = LabelSet(tuple(f"s{i}" for i in range(40)), truth)
            runs.append((seed, summaries, labels))
        return runs

    def test_identical_run_sets_p_one(self):
        rng = np.random.default_rng(45)
        runs = self._runs(rng, 5)
        result = compare_models(runs, runs)
        assert result["accuracy"].test.p_value == 1.0
        assert result["auc"].test.p_value == 1.0
        assert result["accuracy"].test.degenerate

    def test_mismatched_counts_rejected(self):
        rng = np.random.default_rng(46)
        with pytest.raises(ValidationError):
            compare_models(self._runs(rng, 4), self._runs(rng, 5))

    def test_report_shape(self):
        rng = np.random.default_rng(47)
        result = compare_models(self._runs(rng, 6), self._runs(rng, 6))
        d = result["accuracy"].as_dict()
        assert set(d) == {
            "metric", "mean_a", "sd_a", "mean_b", "sd_b", "t", "df", "p", "degenerate",
        }
        assert d["df"] == 5

    @pytest.mark.parametrize("seed", [1.7, 2.0, True, "3", None])
    def test_run_seeds_must_be_integers(self, seed, monkeypatch):
        rng = np.random.default_rng(48)
        runs = self._runs(rng, 3)
        runs[1] = (seed, *runs[1][1:])

        def scored(*args):
            raise AssertionError("a run was scored")

        monkeypatch.setattr("uqeval.stats.point_metrics", scored)
        with pytest.raises(ValidationError,
                           match=re.escape(f"run seed must be an integer, got {seed!r}")):
            compare_models(runs, runs)

    def test_negative_and_numpy_run_seeds_accepted(self):
        rng = np.random.default_rng(49)
        runs = [(seed, *run[1:]) for seed, run in zip((-1, np.int64(-7), 2**63), self._runs(rng, 3))]
        result = compare_models(runs, runs)
        assert result["accuracy"].a.run_seeds == (-1, -7, 2**63)
        assert {type(s) for s in result["accuracy"].a.run_seeds} == {int}

    def test_positive_scores_need_binary(self):
        summary = Summaries.from_means(["x"], np.array([[0.2, 0.3, 0.5]]))
        with pytest.raises(ValidationError):
            positive_class_scores(summary)


class TestCrossModule:
    def test_uacc_equals_accuracy_above_max_uncertainty(self):
        from uqeval import build_ucm

        rng = np.random.default_rng(48)
        p1 = rng.uniform(0.55, 0.99, 60)  # confidences > 0.55 keep entropy < 1
        summaries = binary_summaries(p1)
        truth = rng.integers(0, 2, 60)
        labels = LabelSet(tuple(f"s{i}" for i in range(60)), truth)
        max_u = max(summaries.normalized_entropy)
        threshold = min(1.0, max_u + 1e-9)
        ucm = build_ucm(summaries, labels, threshold)
        assert ucm.uacc == accuracy(summaries, labels)
