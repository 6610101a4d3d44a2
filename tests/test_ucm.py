from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqeval import (
    LabelSet,
    Summaries,
    UncertaintyConfusion,
    ValidationError,
    build_ucm,
    separation_report,
    threshold_sweep,
)
from uqeval.cli import _parse_grid
from uqeval.demo import DEFAULT_GRID
from uqeval.ucm import (SWEEP_HEADER, SweepCurve, SweepPoint, save_sweep, sweep_table,
                        threshold_field, ucm_as_dict)

from scalar_oracles import classify_outcome, take


def mean_with(uncertainty: float, predicted: int):
    """Binary mean row whose base-2 entropy equals the requested uncertainty."""
    # binary entropy is invertible on [0.5, 1]; bisect for the confidence
    lo, hi = 0.5, 1.0 - 1e-15
    target = float(uncertainty)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        h = -(mid * np.log2(mid) + (1 - mid) * np.log2(1 - mid)) if mid < 1 else 0.0
        if h > target:
            lo = mid
        else:
            hi = mid
    p = 0.5 * (lo + hi)
    mean = np.array([1.0 - p, p]) if predicted == 1 else np.array([p, 1.0 - p])
    return mean / mean.sum()


def make_case(uncertainties, correct_flags):
    """Summaries plus labels realizing the given uncertainty/correctness lists."""
    ids = tuple(f"s{i}" for i in range(len(uncertainties)))
    summaries = Summaries.from_means(ids, [mean_with(u, predicted=1) for u in uncertainties])
    predicted = summaries.predicted_class
    return summaries, LabelSet(ids, np.where(correct_flags, predicted, 1 - predicted))


class TestClassifyOutcome:
    def test_correct_low_uncertainty_is_tc(self):
        assert classify_outcome(True, 0.17, 0.3) == "TC"

    def test_incorrect_high_uncertainty_is_tu(self):
        assert classify_outcome(False, 0.45, 0.3) == "TU"

    def test_boundary_counts_as_uncertain(self):
        assert classify_outcome(True, 0.3, 0.3) == "FU"
        assert classify_outcome(False, 0.3, 0.3) == "TU"

    def test_incorrect_certain_is_fc(self):
        assert classify_outcome(False, 0.1, 0.3) == "FC"

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            classify_outcome(True, 1.2, 0.3)
        with pytest.raises(ValidationError):
            classify_outcome(True, 0.2, -0.1)

    @given(st.booleans(), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_total_on_valid_domain(self, correct, u, thr):
        outcome = classify_outcome(correct, u, thr)
        assert outcome in ("TC", "TU", "FU", "FC")
        assert (outcome in ("TC", "FU")) == correct
        assert (outcome in ("TU", "FU")) == (u >= thr)


def scalar_counts(summaries, labels, threshold):
    """(TC, TU, FU, FC) recounted one sample at a time by the scalar oracle."""
    counts = {"TC": 0, "TU": 0, "FU": 0, "FC": 0}
    truth = dict(zip(labels.sample_ids, labels.labels.tolist()))
    for sid, predicted, u in zip(summaries.sample_ids, summaries.predicted_class,
                                 summaries.normalized_entropy):
        counts[classify_outcome(predicted == truth[sid], float(u), threshold)] += 1
    return counts["TC"], counts["TU"], counts["FU"], counts["FC"]


class TestBuildUcm:
    def test_two_correct_split_by_threshold(self):
        summaries, labels = make_case([0.1, 0.9], [True, True])
        ucm = build_ucm(summaries, labels, 0.5)
        assert (ucm.tc, ucm.fu, ucm.tu, ucm.fc) == (1, 1, 0, 0)

    def test_all_incorrect_max_uncertainty(self):
        summaries, labels = make_case([1.0] * 5, [False] * 5)
        ucm = build_ucm(summaries, labels, 0.5)
        assert ucm.tu == 5 and ucm.n == 5

    def test_counts_match_per_sample_enumeration(self):
        rng = np.random.default_rng(17)
        u = rng.uniform(0, 1, size=200)
        ok = rng.random(200) < 0.8
        summaries, labels = make_case(u, ok)
        # recount with scalar classification on the summaries' own uncertainty
        for thr in (0.0, 0.3, 0.74, 1.0):
            ucm = build_ucm(summaries, labels, thr)
            assert (ucm.tc, ucm.tu, ucm.fu, ucm.fc) == scalar_counts(summaries, labels, thr)

    def test_partition_law_random_instances(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            summaries, labels = make_case(rng.uniform(0, 1, n), rng.random(n) < 0.5)
            ucm = build_ucm(summaries, labels, float(rng.uniform(0, 1)))
            assert ucm.tc + ucm.tu + ucm.fu + ucm.fc == n

    def test_sample_order_invariance(self):
        rng = np.random.default_rng(19)
        summaries, labels = make_case(rng.uniform(0, 1, 30), rng.random(30) < 0.7)
        base = build_ucm(summaries, labels, 0.4)
        perm = rng.permutation(30)
        shuffled = take(summaries, perm)
        again = build_ucm(shuffled, labels, 0.4)
        assert (base.tc, base.tu, base.fu, base.fc) == (again.tc, again.tu, again.fu, again.fc)

    @pytest.mark.parametrize("normalized", [True, False])
    def test_nan_threshold_rejected(self, normalized):
        # a NaN threshold compares false with every entropy: all samples would count as certain
        summaries, labels = make_case([0.2, 0.6], [True, False])
        with pytest.raises(ValidationError, match="threshold nan "):
            build_ucm(summaries, labels, float("nan"), normalized=normalized)
        with pytest.raises(ValidationError, match="threshold nan "):
            threshold_sweep(summaries, labels, [0.1, float("nan")], normalized=normalized)


class TestMetrics:
    def test_reported_ratio(self):
        ucm = UncertaintyConfusion(0.3, tc=0, tu=5, fu=0, fc=1)
        assert ucm.usen == pytest.approx(5 / 6, abs=1e-15)

    def test_perfect_certain_classifier(self):
        ucm = UncertaintyConfusion(0.3, tc=10, tu=0, fu=0, fc=0)
        assert ucm.uacc == 1.0
        assert ucm.uspe == 1.0
        assert ucm.usen is None
        assert ucm.upre is None

    def test_undefined_rendered_not_zero(self):
        ucm = UncertaintyConfusion(0.3, tc=10, tu=0, fu=0, fc=0)
        d = ucm_as_dict(ucm)
        assert d["usen"] is None and d["upre"] is None
        assert d["uacc_percent"] == 100.0

    def test_random_counts_vs_fraction_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(500):
            tc, tu, fu, fc = (int(v) for v in rng.integers(0, 50, size=4))
            if tc + tu + fu + fc == 0:
                continue
            ucm = UncertaintyConfusion(0.5, tc=tc, tu=tu, fu=fu, fc=fc)
            for got, num, den in (
                (ucm.usen, tu, tu + fc),
                (ucm.uspe, tc, tc + fu),
                (ucm.upre, tu, tu + fu),
                (ucm.uacc, tu + tc, tc + tu + fu + fc),
            ):
                if den == 0:
                    assert got is None
                else:
                    assert abs(got - float(Fraction(num, den))) <= 1e-15
                    assert 0.0 <= got <= 1.0

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            UncertaintyConfusion(0.5, tc=-1, tu=0, fu=0, fc=0)


class TestThresholdSweep:
    def test_single_threshold_equals_build(self):
        rng = np.random.default_rng(51)
        summaries, labels = make_case(rng.uniform(0, 1, 40), rng.random(40) < 0.6)
        curve = threshold_sweep(summaries, labels, [0.3])
        single = build_ucm(summaries, labels, 0.3)
        assert len(curve) == 1
        point = curve.points[0]
        assert (point.ucm.tc, point.ucm.tu) == (single.tc, single.tu)

    def test_unsorted_grid_rejected(self):
        rng = np.random.default_rng(52)
        summaries, labels = make_case(rng.uniform(0, 1, 5), [True] * 5)
        with pytest.raises(ValidationError):
            threshold_sweep(summaries, labels, [0.5, 0.3])
        with pytest.raises(ValidationError):
            threshold_sweep(summaries, labels, [0.3, 0.3])

    def test_monotone_certainty_and_metrics(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            n = int(rng.integers(5, 80))
            summaries, labels = make_case(rng.uniform(0, 1, n), rng.random(n) < 0.7)
            grid = np.sort(rng.choice(np.linspace(0, 1, 101), size=11, replace=False))
            curve = threshold_sweep(summaries, labels, grid)
            tcs = [p.ucm.tc for p in curve]
            fcs = [p.ucm.fc for p in curve]
            tus = [p.ucm.tu for p in curve]
            fus = [p.ucm.fu for p in curve]
            assert all(b >= a for a, b in zip(tcs, tcs[1:]))
            assert all(b >= a for a, b in zip(fcs, fcs[1:]))
            assert all(b <= a for a, b in zip(tus, tus[1:]))
            assert all(b <= a for a, b in zip(fus, fus[1:]))

    def test_dense_sweep_matches_pointwise_recount(self):
        rng = np.random.default_rng(54)
        summaries, labels = make_case(rng.uniform(0, 1, 60), rng.random(60) < 0.8)
        grid = np.linspace(0, 1, 101)
        curve = threshold_sweep(summaries, labels, grid)
        for point in curve:
            single = build_ucm(summaries, labels, point.threshold)
            assert (point.ucm.tc, point.ucm.tu, point.ucm.fu, point.ucm.fc) == (
                single.tc, single.tu, single.fu, single.fc,
            )
            assert (point.ucm.tc, point.ucm.tu, point.ucm.fu, point.ucm.fc) == scalar_counts(
                summaries, labels, point.threshold
            )

    def test_threshold_zero_limit(self):
        rng = np.random.default_rng(55)
        ok = rng.random(50) < 0.7
        summaries, labels = make_case(rng.uniform(0, 1, 50), ok)
        ucm = build_ucm(summaries, labels, 0.0)
        error_rate = float(np.mean(~ok))
        assert ucm.uacc == pytest.approx(error_rate, abs=1e-15)
        if (~ok).any():
            assert ucm.usen == 1.0

    def test_threshold_one_with_all_below(self):
        rng = np.random.default_rng(56)
        ok = rng.random(50) < 0.7
        summaries, labels = make_case(rng.uniform(0.0, 0.99, 50), ok)
        ucm = build_ucm(summaries, labels, 1.0)
        assert ucm.uacc == pytest.approx(float(np.mean(ok)), abs=1e-15)

    def test_sweep_point_reads_its_matrix(self):
        point = SweepPoint(UncertaintyConfusion(0.1, 1, 1, 1, 1))
        assert point.threshold == 0.1
        assert (point.ucm.uacc, point.ucm.usen, point.ucm.uspe, point.ucm.upre) == (0.5,) * 4

    def test_curve_invariant_enforced(self):
        good = SweepPoint(UncertaintyConfusion(0.2, tc=1, tu=1, fu=3, fc=1))
        bad = SweepPoint(UncertaintyConfusion(0.5, tc=0, tu=1, fu=4, fc=1))
        with pytest.raises(ValidationError, match="uspe"):
            SweepCurve((good, bad))

    def test_raw_entropy_mode(self):
        rng = np.random.default_rng(57)
        summaries, labels = make_case(rng.uniform(0, 1, 30), rng.random(30) < 0.7)
        # binary base-2: raw == normalized, so both modes must agree
        a = build_ucm(summaries, labels, 0.4, normalized=True)
        b = build_ucm(summaries, labels, 0.4, normalized=False)
        assert (a.tc, a.tu, a.fu, a.fc) == (b.tc, b.tu, b.fu, b.fc)


class TestSeparation:
    def test_all_correct_flags_absent_group(self):
        summaries, labels = make_case([0.2, 0.4], [True, True])
        report = separation_report(summaries, labels)
        assert report.n_incorrect == 0
        assert report.incorrect_mean is None
        assert report.mean_difference is None

    def test_worked_example(self):
        summaries, labels = make_case([0.1, 0.3, 0.5, 0.7], [True, True, False, False])
        report = separation_report(summaries, labels)
        assert report.correct_mean == pytest.approx(0.2, abs=1e-9)
        assert report.incorrect_mean == pytest.approx(0.6, abs=1e-9)
        assert report.mean_difference == pytest.approx(0.4, abs=1e-9)
        assert report.correct_median == pytest.approx(0.2, abs=1e-9)

    def test_demo_separation_sign(self, demo_run):
        result, _ = demo_run
        for name, block in result.report["schemes"].items():
            sep = block["separation"]
            assert sep["incorrect"]["mean"] > sep["correct"]["mean"], name


class TestSweepRendering:
    def test_undefined_rendered_na(self):
        curve = SweepCurve((SweepPoint(UncertaintyConfusion(0.5, tc=3, tu=0, fu=0, fc=0)),))
        assert sweep_table(curve) == SWEEP_HEADER + "\n0.5,3,0,0,0,1,n/a,1,n/a\n"

    def test_save_sweep_single_and_by_scheme(self, tmp_path):
        a = SweepCurve((SweepPoint(UncertaintyConfusion(0.5, tc=3, tu=0, fu=0, fc=0)),))
        b = SweepCurve((SweepPoint(UncertaintyConfusion(0.5, tc=1, tu=1, fu=1, fc=1)),))
        save_sweep(a, tmp_path / "one.csv", header_comment="manifest_digest=x")
        assert (tmp_path / "one.csv").read_text() == (
            "# manifest_digest=x\nthreshold,tc,tu,fu,fc,uacc,usen,uspe,upre\n"
            "0.5,3,0,0,0,1,n/a,1,n/a\n"
        )
        save_sweep({"mcd": a, "e,mcd": b}, tmp_path / "two.csv")
        assert (tmp_path / "two.csv").read_text() == (
            "scheme,threshold,tc,tu,fu,fc,uacc,usen,uspe,upre\n"
            'mcd,0.5,3,0,0,0,1,n/a,1,n/a\n"e,mcd",0.5,1,1,1,1,0.5,0.5,0.5,0.5\n'
        )

    def test_grid_thresholds_keep_their_12_digit_text(self):
        # every threshold the CLI and the demo grids hold reads back from 12 digits
        grids = [DEFAULT_GRID, _parse_grid("0.1:0.1:0.9"), _parse_grid("0:0.01:1"),
                 _parse_grid("0:0.001:1"), _parse_grid("0:0.05:3")]
        for t in (t for grid in grids for t in grid):
            assert threshold_field(t) == "%.12g" % t

    @given(st.floats(0.0, 1e300))
    @settings(max_examples=300, deadline=None)
    def test_threshold_field_is_the_shortest_that_reads_back(self, t):
        text = threshold_field(t)
        assert float(text) == t
        digits = next(p for p in range(12, 18) if text == "%.*g" % (p, t))
        assert all(float("%.*g" % (p, t)) != t for p in range(12, digits))
