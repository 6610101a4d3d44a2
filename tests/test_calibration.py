import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqeval import LabelSet, Summaries, ValidationError, calibration_report
from uqeval.calibration import CalibrationBin, CalibrationReport, save_reliability

from scalar_oracles import bin_assign, calibration_bins, take


def summaries_from_confidences(confidences, correct_flags, prefix="s"):
    """Binary summaries with the given max-probability confidences (>= 0.5)."""
    confidences = np.asarray(confidences, dtype=np.float64)
    means = np.stack([1.0 - confidences, confidences], axis=1)
    ids = tuple(f"{prefix}{i}" for i in range(len(means)))
    summaries = Summaries.from_means(ids, means / means.sum(axis=1, keepdims=True))
    predicted = summaries.predicted_class
    return summaries, LabelSet(ids, np.where(correct_flags, predicted, 1 - predicted))


class TestBinAssign:
    def test_low_confidence_first_bin(self):
        assert bin_assign(0.05, 10) == 1

    def test_right_closed_boundary(self):
        assert bin_assign(0.10, 10) == 1
        assert bin_assign(0.10000000001, 10) == 2

    def test_zero_goes_to_first_bin(self):
        assert bin_assign(0.0, 10) == 1

    def test_one_goes_to_last_bin(self):
        assert bin_assign(1.0, 10) == 10

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            bin_assign(1.5, 10)

    def test_matches_interval_membership_oracle(self):
        rng = np.random.default_rng(5)
        confidences = rng.uniform(0, 1, size=10_000)
        for m_bins in (1, 3, 10, 17):
            for c in confidences[:2500] if m_bins != 10 else confidences:
                got = bin_assign(float(c), m_bins)
                expected = None
                for m in range(1, m_bins + 1):
                    lo = (m - 1) / m_bins
                    hi = m / m_bins
                    if (lo < c <= hi) or (m == 1 and c == 0.0):
                        expected = m
                        break
                assert got == expected


class TestCalibrationReport:
    @pytest.mark.parametrize("n_bins", [2.5, 2.0, True, "3", None])
    def test_bin_count_must_be_an_integer(self, n_bins):
        summaries, labels = summaries_from_confidences([0.6, 0.9], [True, False])
        with pytest.raises(ValidationError, match=f"n_bins must be an integer, got {n_bins!r}"):
            calibration_report(summaries, labels, n_bins)

    @pytest.mark.parametrize("n_bins", [0, -1])
    def test_bin_count_below_one(self, n_bins):
        summaries, labels = summaries_from_confidences([0.6, 0.9], [True, False])
        with pytest.raises(ValidationError, match="need at least one bin"):
            calibration_report(summaries, labels, n_bins)

    def test_numpy_bin_count_is_an_int(self):
        summaries, labels = summaries_from_confidences([0.6, 0.9], [True, False])
        report = calibration_report(summaries, labels, np.int64(4))
        assert type(report.n_bins) is int and len(report.bins) == 4

    def test_single_bin_worked_example(self):
        # all confidence 0.8, half correct -> ECE |0.5 - 0.8| = 0.3
        summaries, labels = summaries_from_confidences([0.8] * 10, [True] * 5 + [False] * 5)
        report = calibration_report(summaries, labels, 1)
        assert report.ece == pytest.approx(0.3, abs=1e-12)
        assert report.bins[0].count == 10
        assert report.bins[0].accuracy == pytest.approx(0.5, abs=1e-12)
        assert report.bins[0].confidence == pytest.approx(0.8, abs=1e-12)

    def test_two_equal_bins_average(self):
        # equal-count bins with gaps 0.1 and 0.3 -> ECE 0.2
        summaries_a, labels_a = summaries_from_confidences(
            [0.6] * 10, [True] * 5 + [False] * 5
        )  # acc 0.5, conf 0.6, gap 0.1
        summaries_b, labels_b = summaries_from_confidences(
            [0.9] * 10, [True] * 6 + [False] * 4, prefix="t"
        )  # acc 0.6, conf 0.9, gap 0.3
        summaries = Summaries.from_means(
            summaries_a.sample_ids + summaries_b.sample_ids,
            np.concatenate([summaries_a.means, summaries_b.means]),
        )
        labels = LabelSet(
            summaries.sample_ids,
            np.concatenate([labels_a.labels, labels_b.labels]),
        )
        report = calibration_report(summaries, labels, 10)
        assert report.ece == pytest.approx(0.2, abs=1e-12)

    def test_perfectly_calibrated_generator(self):
        rng = np.random.default_rng(12)
        n = 100_000
        confidences = rng.uniform(0.5, 1.0, size=n)
        correct = rng.random(n) < confidences
        summaries, labels = summaries_from_confidences(confidences, correct)
        report = calibration_report(summaries, labels, 10)
        assert report.ece < 0.01

    def test_empty_bins_contribute_zero(self):
        summaries, labels = summaries_from_confidences([0.95] * 4, [True] * 4)
        report = calibration_report(summaries, labels, 10)
        empty = [b for b in report.bins if b.count == 0]
        assert len(empty) == 9
        assert all(b.accuracy is None and b.confidence is None for b in empty)
        assert report.ece == pytest.approx(abs(1.0 - 0.95), abs=1e-12)

    def test_order_invariance(self):
        rng = np.random.default_rng(13)
        confidences = rng.uniform(0.5, 1.0, 200)
        ok = rng.random(200) < 0.8
        summaries, labels = summaries_from_confidences(confidences, ok)
        base = calibration_report(summaries, labels, 10)
        perm = rng.permutation(200)
        again = calibration_report(take(summaries, perm), labels, 10)
        assert again.ece == base.ece

    def test_split_recombination_law(self):
        rng = np.random.default_rng(14)
        confidences = rng.uniform(0.5, 1.0, 300)
        ok = rng.random(300) < 0.8
        summaries, labels = summaries_from_confidences(confidences, ok)

        def sliced(lo, hi):
            return LabelSet(labels.sample_ids[lo:hi], labels.labels[lo:hi])

        whole = calibration_report(summaries, labels, 10)
        part_a = calibration_report(take(summaries, range(120)), sliced(0, 120), 10)
        part_b = calibration_report(take(summaries, range(120, 300)), sliced(120, 300), 10)
        # per-bin counts add; count-weighted accuracies and confidences recombine
        for m in range(10):
            w, a, b = whole.bins[m], part_a.bins[m], part_b.bins[m]
            assert w.count == a.count + b.count
            if w.count:
                acc = sum(p.count * p.accuracy for p in (a, b) if p.count) / w.count
                assert w.accuracy == pytest.approx(acc, abs=1e-12)

    def test_ece_bounds_and_zero_condition(self):
        rng = np.random.default_rng(15)
        confidences = rng.uniform(0.5, 1.0, 100)
        ok = rng.random(100) < 0.6
        summaries, labels = summaries_from_confidences(confidences, ok)
        report = calibration_report(summaries, labels, 10)
        assert 0.0 <= report.ece <= 1.0
        if report.ece == 0.0:
            assert all(b.count == 0 or b.accuracy == b.confidence for b in report.bins)

    def test_zero_samples_rejected(self):
        labels = LabelSet(("a",), np.array([0]))
        with pytest.raises(ValidationError, match="at least one sample"):
            calibration_report(Summaries.from_means((), np.empty((0, 2))), labels, 10)

    def test_bin_counts_match_scalar_oracle(self):
        rng = np.random.default_rng(17)
        confidences = rng.uniform(0.5, 1.0, 500)
        confidences[:4] = (0.5, 0.6, 0.7, 1.0)  # values on bin edges
        summaries, labels = summaries_from_confidences(confidences, rng.random(500) < 0.7)
        for m_bins in (1, 3, 10, 17):
            report = calibration_report(summaries, labels, m_bins)
            oracle = np.bincount([bin_assign(float(c), m_bins) for c in summaries.confidence],
                                 minlength=m_bins + 1)[1:]
            assert [b.count for b in report.bins] == oracle.tolist()

    def test_report_recomposition_enforced(self):
        bins = (CalibrationBin(1, 0.0, 1.0, 2, 0.5, 0.9),)
        with pytest.raises(ValidationError):
            CalibrationReport(n_bins=1, bins=bins, ece=0.1, n=2)


def summaries_at(confidences, correct_flags, n_classes):
    """Summaries of ``n_classes`` classes whose class 0 holds each confidence (>= 1/C)."""
    confidences = np.asarray(confidences, dtype=np.float64)
    rest = np.minimum((1.0 - confidences) / (n_classes - 1), confidences)
    means = np.column_stack([confidences] + [rest] * (n_classes - 1))
    ids = tuple(f"s{i}" for i in range(len(means)))
    summaries = Summaries.from_means(ids, means)
    predicted = summaries.predicted_class
    labels = np.where(correct_flags, predicted, (predicted + 1) % n_classes)
    return summaries, LabelSet(ids, labels)


def assert_bins_equal_oracle(summaries, labels, n_bins):
    """Every bin's count, accuracy and confidence, and the ECE, as the per-bin sorts give them."""
    report = calibration_report(summaries, labels, n_bins)
    bins, ece = calibration_bins(summaries.confidence, summaries.correct(labels), n_bins)
    assert [(b.count, repr(b.accuracy), repr(b.confidence)) for b in report.bins] == [
        (count, repr(acc), repr(conf)) for count, acc, conf in bins]
    assert repr(report.ece) == repr(ece)


class TestBinsFromOneSort:
    """The bins cut from one sort of all confidences hold the per-bin sorts' bits."""

    @given(st.integers(1, 20), st.integers(2, 10), st.data())
    @settings(max_examples=300, deadline=None)
    def test_bins_equal_the_per_bin_sorts(self, n_bins, n_classes, data):
        floor = 1.0 / n_classes
        value = st.one_of(st.integers(0, n_bins).map(lambda k: k / n_bins),
                          st.sampled_from([floor, 1.0]), st.floats(floor, 1.0))
        confidences = data.draw(st.lists(value.filter(lambda c: c >= floor),
                                         min_size=1, max_size=80))
        flags = data.draw(st.lists(st.booleans(), min_size=len(confidences),
                                   max_size=len(confidences)))
        assert_bins_equal_oracle(*summaries_at(confidences, flags, n_classes), n_bins)

    @pytest.mark.parametrize("n_classes", [2, 3, 10])
    @pytest.mark.parametrize("n_bins", range(1, 21))
    def test_edges_bins_equal_the_per_bin_sorts(self, n_bins, n_classes):
        # every edge k/M at or above 1/C, 1/C itself and 1.0, three times each
        floor = 1.0 / n_classes
        edges = [k / n_bins for k in range(n_bins + 1) if k / n_bins >= floor]
        confidences = 3 * (edges + [floor, 1.0])
        flags = [i % 3 > 0 for i in range(len(confidences))]
        assert_bins_equal_oracle(*summaries_at(confidences, flags, n_classes), n_bins)

    @pytest.mark.parametrize("seed", range(4))
    def test_large_bins_equal_the_per_bin_sorts(self, seed):
        # bins of thousands of values, summed pairwise in blocks, with repeated values
        rng = np.random.default_rng(seed)
        n_classes = int(rng.integers(2, 6))
        confidences = rng.uniform(1.0 / n_classes, 1.0, 20_000)
        confidences[rng.random(20_000) < 0.3] = rng.choice([1.0 / n_classes, 0.5, 0.7, 1.0])
        confidences = np.maximum(confidences, 1.0 / n_classes)
        summaries, labels = summaries_at(confidences, rng.random(20_000) < 0.8, n_classes)
        for n_bins in (1, 7, 10, 20):
            assert_bins_equal_oracle(summaries, labels, n_bins)


def reliability_rows(report, path) -> list[dict]:
    """The rows ``save_reliability`` writes for ``report``, as dicts by column."""
    save_reliability(report, path)
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


class TestReliabilityData:
    def test_rows_include_empty_bins(self, tmp_path):
        summaries, labels = summaries_from_confidences([0.8] * 10, [True] * 5 + [False] * 5)
        report = calibration_report(summaries, labels, 10)
        rows = reliability_rows(report, tmp_path / "rel.csv")
        assert len(rows) == 10
        empty = [r for r in rows if r["count"] == "0"]
        assert all(r["gap"] == "n/a" for r in empty)

    def test_single_bin_row(self, tmp_path):
        summaries, labels = summaries_from_confidences([0.8] * 10, [True] * 5 + [False] * 5)
        report = calibration_report(summaries, labels, 1)
        (row,) = reliability_rows(report, tmp_path / "rel.csv")
        assert (float(row["lo"]), float(row["hi"])) == (0.0, 1.0)
        assert float(row["accuracy"]) == pytest.approx(0.5, abs=1e-12)
        assert float(row["confidence"]) == pytest.approx(0.8, abs=1e-12)
        assert float(row["gap"]) == pytest.approx(-0.3, abs=1e-12)

    def test_export_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        summaries, labels = summaries_from_confidences(
            rng.uniform(0.5, 1.0, 50), rng.random(50) < 0.7
        )
        report = calibration_report(summaries, labels, 10)
        path = tmp_path / "rel.csv"
        save_reliability(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin,lo,hi,count,accuracy,confidence,gap"
        assert len(lines) == 11
        # parse back and compare against the report
        for line, b in zip(lines[1:], report.bins):
            cells = line.split(",")
            assert int(cells[0]) == b.index
            assert int(cells[3]) == b.count
            if b.count == 0:
                assert cells[4] == "n/a"
            else:
                assert float(cells[4]) == b.accuracy
                assert float(cells[5]) == b.confidence
