import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqeval import (
    ENSEMBLE,
    MCD,
    FormatError,
    PredictionTensor,
    Summaries,
    ValidationError,
    aggregate,
    emcd_scheme,
    load_summaries,
    save_summaries,
)
from uqeval.aggregate import AggregationScheme, max_entropy

from conftest import entropy_of, random_prob_rows
from scalar_oracles import pass_variance, predictive_mean, summarize_mean


def entropy_oracle(mean, base="2"):
    """Arbitrary-precision entropy evaluation."""
    with mpmath.workdps(60):
        total = mpmath.mpf(0)
        for p in mean:
            p = mpmath.mpf(float(p))
            if p > 0:
                total -= p * mpmath.log(p)
        if base == "2":
            total /= mpmath.log(2)
        return float(total)


class TestPredictiveMean:
    def test_two_rows(self):
        mean = predictive_mean(np.array([[0.6, 0.4], [0.8, 0.2]]))
        assert np.allclose(mean, [0.7, 0.3], atol=1e-12)

    def test_single_row_identity(self):
        assert np.allclose(predictive_mean(np.array([[0.9, 0.1]])), [0.9, 0.1], atol=1e-15)

    def test_empty_pass_set(self):
        with pytest.raises(ValidationError):
            predictive_mean(np.empty((0, 2)))

    def test_against_compensated_summation(self):
        rng = np.random.default_rng(3)
        rows = random_prob_rows(rng, 50, 4)
        mean = predictive_mean(rows)
        oracle = np.array([math.fsum(rows[:, c]) / 50 for c in range(4)])
        oracle /= math.fsum(oracle)
        assert np.max(np.abs(mean - oracle)) < 1e-12

    def test_output_normalized(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            rows = random_prob_rows(rng, 7, 3)
            assert abs(predictive_mean(rows).sum() - 1.0) <= 1e-9


class TestPredictiveEntropy:
    def test_uniform_binary_is_one_bit(self):
        assert entropy_of([0.5, 0.5], "2")[0] == 1.0

    def test_one_hot_is_zero(self):
        for base in ("2", "e"):
            assert entropy_of([1.0, 0.0], base)[0] == 0.0

    def test_fixed_vector_against_oracle(self):
        value = entropy_of([0.9, 0.1], "2")[0]
        assert abs(value - entropy_oracle([0.9, 0.1], "2")) < 1e-12
        # frozen from the oracle
        assert abs(value - 0.4689955935892812) < 1e-12

    def test_non_normalized_rejected(self):
        with pytest.raises(ValidationError):
            entropy_of([0.6, 0.3], "2")

    def test_random_vectors_against_oracle(self):
        rng = np.random.default_rng(8)
        for n_classes in (2, 3, 5):
            rows = random_prob_rows(rng, 200, n_classes)
            for base in ("2", "e"):
                for row, got in zip(rows, entropy_of(rows, base)):
                    assert abs(got - entropy_oracle(row, base)) < 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_bounds_and_extremes(self, seed, n_classes):
        rng = np.random.default_rng(seed)
        row = random_prob_rows(rng, 1, n_classes)[0]
        pe = entropy_of(row, "2")[0]
        assert 0.0 <= pe <= max_entropy(n_classes, "2") + 1e-12
        # maximal only at (numerically) uniform, zero only at one-hot
        if np.max(np.abs(row - 1.0 / n_classes)) > 1e-6:
            assert pe < max_entropy(n_classes, "2")
        if np.max(row) < 1.0 - 1e-6:
            assert pe > 0.0
        uniform = np.full(n_classes, 1.0 / n_classes)
        uniform /= uniform.sum()
        assert abs(entropy_of(uniform, "2")[0] - max_entropy(n_classes, "2")) < 1e-12
        one_hot = np.zeros(n_classes)
        one_hot[seed % n_classes] = 1.0
        assert entropy_of(one_hot, "2")[0] == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            row = random_prob_rows(rng, 1, 4)[0]
            perm = rng.permutation(4)
            assert entropy_of(row[perm], "2")[0] == pytest.approx(
                entropy_of(row, "2")[0], abs=1e-12
            )


def tensor_from_rows(rows_by_sample):
    probs = np.asarray(rows_by_sample, dtype=np.float64)
    ids = tuple(f"s{i}" for i in range(probs.shape[0]))
    return PredictionTensor(probs, ids)


class TestAggregate:
    def test_ensemble_identical_members(self):
        t = tensor_from_rows([[[0.8, 0.2]] * 4])
        summary = aggregate(t, ENSEMBLE, "2")
        assert np.allclose(summary.means[0], [0.8, 0.2], atol=1e-12)
        assert summary.entropy[0] == pytest.approx(entropy_oracle([0.8, 0.2]), abs=1e-12)

    def test_emcd_uniform(self):
        t = tensor_from_rows([[[0.5, 0.5]] * 4])
        summary = aggregate(t, emcd_scheme((2, 2)), "2")
        assert np.allclose(summary.means[0], [0.5, 0.5])
        assert summary.entropy[0] == 1.0

    def test_emcd_unequal_parts_two_stage_oracle(self):
        rng = np.random.default_rng(21)
        rows = random_prob_rows(rng, 4, 3)
        t = tensor_from_rows([rows])
        summary = aggregate(t, emcd_scheme((1, 3)), "2")
        member_a = rows[0]
        member_b = (rows[1] + rows[2] + rows[3]) / 3.0
        oracle = (member_a + member_b) / 2.0
        assert np.max(np.abs(summary.means[0] - oracle)) < 1e-12

    def test_emcd_partition_mismatch(self):
        t = tensor_from_rows([[[0.5, 0.5]] * 4])
        with pytest.raises(ValidationError, match="partition"):
            aggregate(t, emcd_scheme((2, 3)), "2")

    def test_equal_parts_equal_grand_mean(self):
        rng = np.random.default_rng(22)
        rows = random_prob_rows(rng, 12, 3)
        t = tensor_from_rows([rows])
        emcd = aggregate(t, emcd_scheme((4, 4, 4)), "2")
        mcd = aggregate(t, MCD, "2")
        assert np.max(np.abs(emcd.means - mcd.means)) < 1e-15

    def test_argmax_tie_breaks_low(self):
        summary = Summaries.from_means(["s"], np.array([[0.5, 0.5]]))
        assert summary.predicted_class[0] == 0
        assert summary.confidence[0] == 0.5

    def test_normalized_entropy_binary_equals_raw(self):
        rng = np.random.default_rng(23)
        t = tensor_from_rows(random_prob_rows(rng, 12, 2).reshape(4, 3, 2))
        s = aggregate(t, MCD, "2")
        assert np.array_equal(s.normalized_entropy, s.entropy)

    def test_normalized_entropy_in_unit_interval(self):
        rng = np.random.default_rng(24)
        t = tensor_from_rows(random_prob_rows(rng, 40, 5).reshape(8, 5, 5))
        for base in ("2", "e"):
            s = aggregate(t, MCD, base)
            assert np.all((0.0 <= s.normalized_entropy) & (s.normalized_entropy <= 1.0))

    def test_class_permutation_invariance(self):
        rng = np.random.default_rng(25)
        probs = random_prob_rows(rng, 12, 4).reshape(3, 4, 4)
        t = tensor_from_rows(probs)
        perm = rng.permutation(4)
        t_perm = tensor_from_rows(probs[:, :, perm])
        a, b = aggregate(t, MCD, "2"), aggregate(t_perm, MCD, "2")
        assert a.entropy == pytest.approx(b.entropy, abs=1e-12)

    def test_duplicate_pass_moves_mean_toward_row(self):
        rng = np.random.default_rng(26)
        for _ in range(25):
            rows = random_prob_rows(rng, 5, 3)
            base = predictive_mean(rows)
            dup = predictive_mean(np.vstack([rows, rows[-1:]]))
            moved = dup - base
            target = rows[-1] - base
            # every class moves toward the duplicated row (or stays)
            assert np.all(moved * target >= -1e-15)

    def test_scheme_validation(self):
        with pytest.raises(ValidationError):
            AggregationScheme("bogus")
        with pytest.raises(ValidationError):
            AggregationScheme("emcd")
        with pytest.raises(ValidationError):
            AggregationScheme("emcd", (2, 0))
        with pytest.raises(ValidationError):
            AggregationScheme("mcd", (2, 2))

    @pytest.mark.parametrize("parts, bad", [((2.5, 1.5), 2.5), ((2, 2.0), 2.0), ((True, 3), True),
                                            (("2", "2"), "2"), ((2, None), None)])
    def test_member_pass_counts_must_be_integers(self, parts, bad):
        with pytest.raises(ValidationError,
                           match=re.escape(f"member pass count must be an integer, got {bad!r}")):
            AggregationScheme("emcd", parts)

    def test_numpy_member_pass_counts_are_ints(self):
        scheme = AggregationScheme("emcd", (np.int64(2), np.uint8(3)))
        assert scheme.member_pass_counts == (2, 3)
        assert {type(p) for p in scheme.member_pass_counts} == {int}


class TestPassVariance:
    def test_identical_rows_zero(self):
        assert np.array_equal(pass_variance(np.array([[0.5, 0.5]] * 3)), [0.0, 0.0])

    def test_two_point(self):
        assert np.allclose(pass_variance(np.array([[1.0, 0.0], [0.0, 1.0]])), [0.5, 0.5])

    def test_needs_two_passes(self):
        with pytest.raises(ValidationError):
            pass_variance(np.array([[0.5, 0.5]]))

    def test_textbook_two_pass_oracle(self):
        rng = np.random.default_rng(31)
        rows = random_prob_rows(rng, 9, 4)
        got = pass_variance(rows)
        t = rows.shape[0]
        means = [math.fsum(rows[:, c]) / t for c in range(4)]
        oracle = [
            math.fsum((rows[i, c] - means[c]) ** 2 for i in range(t)) / (t - 1)
            for c in range(4)
        ]
        assert np.max(np.abs(got - np.array(oracle))) < 1e-12


class TestSummariesFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(41)
        t = tensor_from_rows(random_prob_rows(rng, 15, 3).reshape(5, 3, 3))
        summaries = aggregate(t, MCD, "2")
        path = tmp_path / "s.csv"
        save_summaries(summaries, path, header_comment="manifest_digest=sha256:t")
        back = load_summaries(path)
        assert back.sample_ids == summaries.sample_ids
        assert np.array_equal(back.means, summaries.means)
        assert np.array_equal(back.entropy, summaries.entropy)
        assert np.array_equal(back.normalized_entropy, summaries.normalized_entropy)
        assert np.array_equal(back.predicted_class, summaries.predicted_class)
        assert np.array_equal(back.confidence, summaries.confidence)

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "sample_id,predicted_class,confidence,entropy,normalized_entropy,p_0,p_1\n"
            "a,0,0.5,1,1,0.5,0.5\na,0,0.5,1,1,0.5,0.5\nb,0,0.5,1,1,0.5,0.5\n"
        )
        with pytest.raises(FormatError, match=r"dup\.csv: duplicate sample id 'a'"):
            load_summaries(path)

    def test_inconsistent_columns_rejected(self, tmp_path):
        header = "sample_id,predicted_class,confidence,entropy,normalized_entropy,p_0,p_1\n"
        for row, message in (
            ("a,1,0.9,0.469,0.469,0.9,0.1", "predicted_class of 'a'"),
            ("a,0,0.8,0.469,0.469,0.9,0.1", "confidence of 'a'"),
            ("a,0,0.9,0.469,1.5,0.9,0.1", "normalized entropy 1.5 of 'a'"),
            ("a,0,0.9,-0.1,0.469,0.9,0.1", "entropy -0.1 of 'a'"),
            ("a,0,0.9,0.469,0.469,0.9,0.2", "mean for 'a' sums to 1.1"),
            ("a,0,1.1,0.469,0.469,1.1,-0.1", "mean for 'a' has a negative or NaN component"),
        ):
            path = tmp_path / "bad.csv"
            path.write_text(header + row + "\n")
            with pytest.raises(FormatError, match=message):
                load_summaries(path)

    def test_entropy_must_match_mean(self, tmp_path):
        # the mean (0.9, 0.1) has entropy 0.469 bits; a stored 0.01 is rejected
        header = "sample_id,predicted_class,confidence,entropy,normalized_entropy,p_0,p_1\n"
        bits = entropy_oracle([0.9, 0.1], "2")
        for row, message in (
            ("a,0,0.9,0.01,0.01,0.9,0.1", "normalized entropy 0.01 of 'a'"),
            (f"a,0,0.9,0.01,{bits:.9g},0.9,0.1", "entropy 0.01 of 'a'"),
            (f"a,0,0.9,{bits / 2:.9g},{bits:.9g},0.9,0.1", "entropy 0.2344.* of 'a'"),
        ):
            path = tmp_path / "wrong.csv"
            path.write_text(header + row + "\n")
            with pytest.raises(FormatError, match=rf"wrong\.csv: {message}"):
                load_summaries(path)

    def test_one_log_base_per_file(self, tmp_path):
        header = "sample_id,predicted_class,confidence,entropy,normalized_entropy,p_0,p_1\n"
        bits, nats = entropy_oracle([0.9, 0.1], "2"), entropy_oracle([0.9, 0.1], "e")
        rows = {
            "2": f"a,0,0.9,{bits:.9g},{bits:.9g},0.9,0.1\nb,0,0.5,1,1,0.5,0.5\n",
            "e": f"a,0,0.9,{nats:.9g},{bits:.9g},0.9,0.1\nb,0,0.5,{math.log(2):.9g},1,0.5,0.5\n",
        }
        for base, body in rows.items():
            path = tmp_path / f"base{base}.csv"
            path.write_text(header + body)
            assert load_summaries(path).entropy[0] == float(f"{(bits if base == '2' else nats):.9g}")
        mixed = tmp_path / "mixed.csv"
        mixed.write_text(header + rows["2"].splitlines()[0] + "\n" + rows["e"].splitlines()[1] + "\n")
        with pytest.raises(FormatError, match=r"mixed\.csv: entropy 0\.693.* of 'b'"):
            load_summaries(mixed)

    @pytest.mark.parametrize("n_classes", [2, 3, 10, 100])
    @pytest.mark.parametrize("base", ["2", "e"])
    def test_nine_digit_rendering_loads(self, tmp_path, base, n_classes):
        # every float column rounded to 9 significant digits stays within the tolerance
        rng = np.random.default_rng(n_classes)
        means = rng.dirichlet(np.full(n_classes, 0.3), size=400)
        means[0] = 1.0 / n_classes
        rendered = np.vectorize(lambda v: float(f"{v:.9g}"))(means)
        summaries = Summaries.from_means([f"s{i}" for i in range(len(means))], means, base)
        header = ["sample_id", "predicted_class", "confidence", "entropy", "normalized_entropy"]
        lines = [",".join(header + [f"p_{c}" for c in range(n_classes)])]
        for i, sid in enumerate(summaries.sample_ids):
            values = [summaries.confidence[i], summaries.entropy[i],
                      summaries.normalized_entropy[i], *means[i]]
            lines.append(f"{sid},{summaries.predicted_class[i]}," + ",".join(f"{v:.9g}" for v in values))
        path = tmp_path / "nine.csv"
        path.write_text("\n".join(lines) + "\n")
        back = load_summaries(path)
        assert np.array_equal(back.means, rendered)
        assert np.max(np.abs(back.entropy - summaries.entropy)) < 1e-8

    @pytest.mark.parametrize("classes, message", [
        ("p_1,p_0", "probability column 0 named 'p_1', expected p_0"),
        ("foo,bar", "probability column 0 named 'foo', expected p_0"),
        ("p_0,p_2", "probability column 1 named 'p_2', expected p_1"),
    ])
    def test_class_columns_named_in_order(self, tmp_path, classes, message):
        # read in file order, p_1,p_0 would give class 1's mean to class 0
        path = tmp_path / "named.csv"
        path.write_text("sample_id,predicted_class,confidence,entropy,normalized_entropy,"
                        f"{classes}\na,0,0.9,0.469,0.469,0.9,0.1\n")
        with pytest.raises(FormatError, match=rf"named\.csv: {message}$"):
            load_summaries(path)

    def test_written_files_pass_the_entropy_check(self, tmp_path):
        rng = np.random.default_rng(43)
        for base in ("2", "e"):
            t = tensor_from_rows(random_prob_rows(rng, 60, 10).reshape(20, 3, 10))
            path = tmp_path / f"s{base}.csv"
            save_summaries(aggregate(t, MCD, base), path)
            assert np.array_equal(load_summaries(path).entropy, aggregate(t, MCD, base).entropy)


class TestColumnarOracle:
    """The columnar aggregate against the per-sample scalar oracles."""

    @pytest.mark.parametrize("n_classes", [2, 3, 10])
    @pytest.mark.parametrize("base", ["2", "e"])
    @pytest.mark.parametrize("parts", [None, (12,), (4, 4, 4), (1, 5, 6), (2, 10)])
    def test_matches_per_sample_oracle(self, parts, base, n_classes):
        n_passes = 12
        rng = np.random.default_rng(7 + n_classes)
        probs = random_prob_rows(rng, 40 * n_passes, n_classes).reshape(40, n_passes, n_classes)
        probs[0] = np.full(n_classes, 1.0 / n_classes)  # a maximal-entropy sample
        probs[1] = np.eye(n_classes)[1]  # a zero-entropy sample
        t = tensor_from_rows(probs)
        got = aggregate(t, MCD if parts is None else emcd_scheme(parts), base)
        # Both sides sum at most T terms in [0, 1] and divide by sums near 1,
        # so in float64 they can differ by a few rounding steps per term.
        mean_tol = (n_passes + 8) * np.finfo(np.float64).eps
        bounds = np.cumsum((0,) + (parts or (n_passes,)))
        for i, sid in enumerate(t.sample_ids):
            members = [predictive_mean(t.probs[i, a:b]) for a, b in zip(bounds, bounds[1:])]
            assert np.max(np.abs(got.means[i] - predictive_mean(np.array(members)))) <= mean_tol
            # on the same mean row the per-sample arithmetic is unchanged: exact
            oracle = summarize_mean(sid, got.means[i], n_classes, base)
            assert got.sample_ids[i] == oracle.sample_id
            assert got.predicted_class[i] == oracle.predicted_class
            assert got.confidence[i] == oracle.confidence
            assert got.entropy[i] == oracle.entropy
            assert got.normalized_entropy[i] == oracle.normalized_entropy
