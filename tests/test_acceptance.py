"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import numpy as np

from uqeval import (
    LabelSet,
    MetricDistribution,
    Summaries,
    UncertaintyConfusion,
    auc_binary,
    build_ucm,
    calibration_report,
    paired_t_test,
    threshold_sweep,
)
from uqeval.cli import main
from uqeval.demo import DEMO_ARTIFACTS
from uqeval.models import Mlp, MlpSpec, cross_entropy

from conftest import DEMO_SEED, entropy_of, random_prob_rows, t_cdf
from test_models import engine_gradients


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[PASS] criterion {number}: {description} ({elapsed:.2f}s < {budget_seconds}s)")
    assert elapsed < budget_seconds


def summaries_of(means):
    """Summaries of the given rows after renormalizing each, ids s0, s1, ..."""
    means = np.asarray(means, dtype=np.float64)
    return Summaries.from_means([f"s{i}" for i in range(len(means))],
                                means / means.sum(axis=1, keepdims=True))


def random_binary_summaries(rng, n):
    confidences = rng.uniform(0.5, 1.0, n)
    predicted = rng.integers(0, 2, n)
    pairs = np.stack([confidences, 1.0 - confidences], axis=1)
    return summaries_of(np.where(predicted[:, None] == 0, pairs, pairs[:, ::-1]))


def test_criterion_01_metric_oracle_suite():
    with criterion(1, "confusion metrics match exact-ratio oracle; partition law", 5):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            tc, tu, fu, fc = (int(v) for v in rng.integers(0, 200, 4))
            if tc + tu + fu + fc == 0:
                tc = 1
            ucm = UncertaintyConfusion(0.3, tc=tc, tu=tu, fu=fu, fc=fc)
            for got, num, den in (
                (ucm.usen, tu, tu + fc),
                (ucm.uspe, tc, tc + fu),
                (ucm.upre, tu, tu + fu),
                (ucm.uacc, tu + tc, ucm.n),
            ):
                if den == 0:
                    assert got is None
                else:
                    assert abs(got - float(Fraction(num, den))) <= 1e-15
        for _ in range(1000):
            n = int(rng.integers(1, 40))
            summaries = random_binary_summaries(rng, n)
            labels = LabelSet(summaries.sample_ids, rng.integers(0, 2, n))
            ucm = build_ucm(summaries, labels, float(rng.uniform(0, 1)))
            assert ucm.tc + ucm.tu + ucm.fu + ucm.fc == n


def test_criterion_02_sweep_monotonicity(demo_run):
    with criterion(2, "USpe nondecreasing / USen nonincreasing on all sweeps", 5):
        rng = np.random.default_rng(102)
        grid = [round(0.05 * k, 12) for k in range(21)]
        for _ in range(100):
            n = int(rng.integers(5, 60))
            summaries = random_binary_summaries(rng, n)
            labels = LabelSet(summaries.sample_ids, rng.integers(0, 2, n))
            curve = threshold_sweep(summaries, labels, grid)
            uspes = [p.ucm.uspe for p in curve if p.ucm.uspe is not None]
            usens = [p.ucm.usen for p in curve if p.ucm.usen is not None]
            assert all(b >= a for a, b in zip(uspes, uspes[1:]))
            assert all(b <= a for a, b in zip(usens, usens[1:]))
        result, _ = demo_run
        for name, curve in result.sweeps.items():
            uspes = [p.ucm.uspe for p in curve if p.ucm.uspe is not None]
            usens = [p.ucm.usen for p in curve if p.ucm.usen is not None]
            assert all(b >= a for a, b in zip(uspes, uspes[1:])), name
            assert all(b <= a for a, b in zip(usens, usens[1:])), name


def test_criterion_03_entropy_correctness():
    with criterion(3, "entropy exact at extremes and matches 60-digit oracle", 5):
        assert entropy_of([0.5, 0.5], "2")[0] == 1.0
        assert entropy_of([1.0, 0.0], "2")[0] == 0.0
        assert entropy_of([0.0, 1.0, 0.0], "e")[0] == 0.0
        rng = np.random.default_rng(103)
        with mpmath.workdps(60):
            log2 = mpmath.log(2)
            for _ in range(10_000):
                n_classes = int(rng.integers(2, 6))
                row = random_prob_rows(rng, 1, n_classes)[0]
                got = entropy_of(row, "2")[0]
                expected = -mpmath.fsum(
                    mpmath.mpf(float(p)) * mpmath.log(mpmath.mpf(float(p)))
                    for p in row if p > 0
                ) / log2
                assert abs(got - float(expected)) < 1e-12


def test_criterion_04_ece():
    with criterion(4, "single-bin ECE exactly 0.3; calibrated generator ECE < 0.01", 10):
        summaries = summaries_of([[0.2, 0.8]] * 10)
        labels = LabelSet(summaries.sample_ids, np.array([1] * 5 + [0] * 5))
        report = calibration_report(summaries, labels, 1)
        assert abs(report.ece - 0.3) <= 1e-15

        rng = np.random.default_rng(104)
        n = 100_000
        confidences = rng.uniform(0.5, 1.0, n)
        correct = rng.random(n) < confidences
        summaries = summaries_of(np.stack([1.0 - confidences, confidences], axis=1))
        predicted = summaries.predicted_class
        labels = LabelSet(summaries.sample_ids, np.where(correct, predicted, 1 - predicted))
        report = calibration_report(summaries, labels, 10)
        assert report.ece < 0.01


def test_criterion_05_gradient_check():
    with criterion(5, "analytic gradients match central differences on 2-4-2", 10):
        rng = np.random.default_rng(105)
        model = Mlp(MlpSpec((2, 4, 2), dropout_rate=0.0, seed=105))
        x = rng.normal(size=(16, 2))
        y = rng.integers(0, 2, 16)
        _, grads_w, grads_b = engine_gradients(model, x, y)
        h = 1e-5
        worst = 0.0
        for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
            for p, g in zip(params, grads):
                it = np.nditer(p, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    original = p[idx]
                    p[idx] = original + h
                    up = cross_entropy(model.forward(x), y)
                    p[idx] = original - h
                    down = cross_entropy(model.forward(x), y)
                    p[idx] = original
                    numeric = (up - down) / (2 * h)
                    worst = max(
                        worst,
                        abs(numeric - g[idx]) / max(abs(numeric) + abs(g[idx]), 1e-8),
                    )
        assert worst < 1e-4


def test_criterion_06_separation_finding(demo_run):
    with criterion(6, "misclassified entropy exceeds correct on the seeded demo", 60):
        result, _ = demo_run
        margins = {}
        for name, block in result.report["schemes"].items():
            sep = block["separation"]
            assert sep["incorrect"]["mean"] > sep["correct"]["mean"], name
            margins[name] = sep["mean_difference"]
        assert margins["ensemble"] >= 0.05
        assert margins["emcd"] >= 0.05


def test_criterion_07_flagging_power(demo_run):
    with criterion(7, "USen >= 0.6 at threshold 0.3; ensemble non-inferior to MCD", 60):
        result, _ = demo_run
        usens = {
            name: block["ucm"]["usen"]
            for name, block in result.report["schemes"].items()
        }
        for name, value in usens.items():
            assert value is not None and value >= 0.6, (name, value)
        assert usens["ensemble"] >= usens["mcd"] - 0.1


def test_criterion_08_statistical_test():
    with criterion(8, "paired t-test p matches 60-digit incomplete-beta oracle", 5):
        rng = np.random.default_rng(42)
        d = rng.normal(0.02, 0.05, size=10)
        seeds = tuple(range(10))
        a = MetricDistribution(tuple(0.8 + d), seeds)
        b = MetricDistribution((0.8,) * 10, seeds)
        result = paired_t_test(a, b)
        with mpmath.workdps(60):
            dd = [mpmath.mpf(float(v)) for v in d]
            n = len(dd)
            mean = mpmath.fsum(dd) / n
            var = mpmath.fsum((v - mean) ** 2 for v in dd) / (n - 1)
            t = mean / mpmath.sqrt(var / n)
            df = mpmath.mpf(n - 1)
            p_oracle = float(
                mpmath.betainc(df / 2, mpmath.mpf("0.5"), 0, df / (df + t * t),
                               regularized=True)
            )
        assert abs(result.p_value - p_oracle) <= 1e-9

        for _ in range(50):
            n = int(rng.integers(2, 15))
            seeds = tuple(range(n))
            a = MetricDistribution(tuple(rng.uniform(0, 1, n)), seeds)
            b = MetricDistribution(tuple(rng.uniform(0, 1, n)), seeds)
            ab = paired_t_test(a, b)
            ba = paired_t_test(b, a)
            assert abs(ab.t_statistic + ba.t_statistic) <= 1e-12
            assert abs(ab.p_value - ba.p_value) <= 1e-12
        for _ in range(200):
            x = float(rng.uniform(-8, 8))
            df = int(rng.integers(1, 60))
            assert abs(t_cdf(x, df) + t_cdf(-x, df) - 1.0) <= 1e-12
        assert t_cdf(0.0, 9) == 0.5


def test_criterion_09_auc():
    with criterion(9, "rank AUC equals pair enumeration; all-ties gives 0.5", 10):
        rng = np.random.default_rng(109)
        for _ in range(500):
            n = int(rng.integers(4, 101))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            scores = np.round(rng.uniform(0, 1, n), 1)
            got = auc_binary(scores, labels)
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = (pos[:, None] > neg[None, :]).sum()
            ties = (pos[:, None] == neg[None, :]).sum()
            oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
            assert abs(got - oracle) <= 1e-12
        assert auc_binary([0.7] * 20, [1] * 9 + [0] * 11) == 0.5


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion(10, "demo --seed 7 twice is byte-identical", 120):
        dirs = []
        for name in ("run1", "run2"):
            out = tmp_path / name
            assert main(["demo", "--seed", str(DEMO_SEED), "--out", str(out)]) == 0
            dirs.append(out)
        for artifact in DEMO_ARTIFACTS:
            assert (dirs[0] / artifact).exists(), f"missing artifact {artifact}"
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        # the manifest carries the only timestamp; everything else is data
        for name in names:
            if name == "manifest.json":
                continue
            a = (dirs[0] / name).read_bytes()
            b = (dirs[1] / name).read_bytes()
            assert a == b, f"{name} differs between reruns"
