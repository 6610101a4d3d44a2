import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqeval import (
    MCD,
    AlignmentError,
    FormatError,
    LabelSet,
    PredictionTensor,
    Summaries,
    ValidationError,
    accuracy,
    aggregate,
    aligned_labels,
    build_ucm,
    calibration_report,
    compare_models,
    load_labels,
    load_predictions,
    load_summaries,
    save_labels,
    save_predictions,
    save_summaries,
    separation_report,
    threshold_sweep,
)
from uqeval.tensor import (is_integer, is_real, is_seed, require_choice, require_integer,
                           require_real, require_seed, require_sequence)

from conftest import random_prob_rows
from scalar_oracles import quantize_probs, rows_error


def align(tensor, labels):
    return aligned_labels(tensor.sample_ids, labels, tensor.n_classes)


def assert_same_labels(got, expected):
    assert got.sample_ids == expected.sample_ids
    assert got.labels.tolist() == expected.labels.tolist()


def make_tensor(probs, ids=None, **kw):
    probs = np.asarray(probs, dtype=np.float64)
    if ids is None:
        ids = tuple(f"s{i}" for i in range(probs.shape[0]))
    return PredictionTensor(probs, ids, **kw)


class TestConstruction:
    def test_single_row(self):
        t = make_tensor([[[0.7, 0.3]]])
        assert (t.n_samples, t.n_passes, t.n_classes) == (1, 1, 2)

    def test_row_sum_violation(self):
        with pytest.raises(ValidationError):
            make_tensor([[[0.7, 0.2]]])

    def test_entry_range_violation(self):
        with pytest.raises(ValidationError):
            make_tensor([[[1.2, -0.2]]])

    def test_needs_two_classes(self):
        with pytest.raises(ValidationError):
            make_tensor(np.ones((1, 1, 1)))

    def test_empty_sample_axis_rejected(self):
        with pytest.raises(ValidationError):
            make_tensor(np.empty((0, 1, 2)), ids=())

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            make_tensor([[[0.5, 0.5]], [[0.5, 0.5]]], ids=("a", "a"))

    def test_immutable_after_construction(self):
        t = make_tensor([[[0.5, 0.5]]])
        with pytest.raises(ValueError):
            t.probs[0, 0, 0] = 0.9

    def test_renormalize_within_band(self):
        t = make_tensor([[[0.6993, 0.2999]]], renormalize=True)
        assert abs(t.probs[0, 0].sum() - 1.0) <= 1e-12

    def test_renormalize_outside_band_rejected(self):
        with pytest.raises(ValidationError):
            make_tensor([[[0.6, 0.3]]], renormalize=True)

    def test_strict_mode_rejects_band_rows(self):
        with pytest.raises(ValidationError):
            make_tensor([[[0.6993, 0.2999]]])

    @pytest.mark.parametrize("renormalize,bad_row", [(False, [0.6993, 0.2999]),
                                                      (True, [0.6, 0.3])])
    def test_bad_row_is_named_by_plain_indices(self, renormalize, bad_row):
        probs = np.full((2, 4, 2), 0.5)
        probs[1, 3] = bad_row
        with pytest.raises(ValidationError, match=re.escape("row (1, 3) sums to 0.9")):
            make_tensor(probs, ids=("a", "b"), renormalize=renormalize)

    @pytest.mark.parametrize("faults,message", [
        ({(0, 1, 0): np.nan, (1, 0, 1): -0.5}, "probabilities must be finite"),
        ({(1, 0, 1): -0.5, (0, 1, 0): np.nan}, "probabilities must be finite"),
        ({(0, 0, 0): 1.5, (1, 1, 1): np.inf}, "probabilities must be finite"),
        ({(1, 1, 0): -np.inf}, "probabilities must be finite"),
        ({(1, 0, 1): -0.5}, "probabilities must lie in [0, 1]"),
        ({(0, 1, 1): 1.5}, "probabilities must lie in [0, 1]"),
        ({(0, 1, 1): -0.0}, "row (0, 1) sums to 0.5"),
    ])
    @pytest.mark.parametrize("renormalize", [False, True])
    def test_each_fault_keeps_its_message(self, faults, message, renormalize):
        probs = np.full((2, 2, 2), 0.5)
        for index, value in faults.items():
            probs[index] = value
        assert rows_error(probs, renormalize).startswith(message)
        with pytest.raises(ValidationError, match="^" + re.escape(message)):
            make_tensor(probs, renormalize=renormalize)

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_messages_equal_the_check_by_check_oracle(self, seed, renormalize):
        # a few values made bad in one of six ways, at random places
        rng = np.random.default_rng(seed)
        probs = random_prob_rows(rng, 24, 3).reshape(4, 6, 3)
        for _ in range(int(rng.integers(0, 4))):
            i, t, c = (int(rng.integers(0, n)) for n in probs.shape)
            probs[i, t, c] = rng.choice([np.nan, np.inf, -0.25, 1.25, probs[i, t, c] * 0.9,
                                         probs[i, t, c] * 0.9999])
        expected = rows_error(probs, renormalize)
        if expected is None:
            make_tensor(probs, renormalize=renormalize)
        else:
            with pytest.raises(ValidationError, match="^" + re.escape(expected) + "$"):
                make_tensor(probs, renormalize=renormalize)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_renormalized_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        rows = random_prob_rows(rng, 6, 3)
        rows = rows * (1.0 + rng.uniform(-9e-4, 9e-4, size=(6, 1)))
        rows = np.clip(rows, 0.0, 1.0)
        t = make_tensor(rows.reshape(2, 3, 3), renormalize=True)
        assert np.all(np.abs(t.probs.sum(axis=-1) - 1.0) <= 1e-12)


class TestCsvFormat:
    def test_single_row_parse(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("sample_id,pass_id,p_0,p_1\ns0,0,0.7,0.3\n")
        t = load_predictions(path)
        assert t.sample_ids == ("s0",)
        assert np.array_equal(t.probs, [[[0.7, 0.3]]])

    def test_non_normalized_strict_error(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("sample_id,pass_id,p_0,p_1\ns0,0,0.6,0.3\n")
        with pytest.raises(FormatError):
            load_predictions(path)

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("sample_id,pass_id,p_0,p_1\ns0,zero,0.7,0.3\n")
        with pytest.raises(FormatError):
            load_predictions(path)

    def test_ragged_pass_counts(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text(
            "sample_id,pass_id,p_0,p_1\ns0,0,0.7,0.3\ns0,1,0.7,0.3\ns1,0,0.5,0.5\n"
        )
        with pytest.raises(FormatError, match="ragged"):
            load_predictions(path)

    def test_duplicate_sample_pass(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("sample_id,pass_id,p_0,p_1\ns0,0,0.7,0.3\ns0,0,0.7,0.3\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_predictions(path)

    def test_non_contiguous_pass_ids(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("sample_id,pass_id,p_0,p_1\ns0,1,0.7,0.3\n")
        with pytest.raises(FormatError, match="contiguous"):
            load_predictions(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,pass,p_0,p_1\ns0,0,0.7,0.3\n")
        with pytest.raises(FormatError):
            load_predictions(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# manifest_digest=sha256:x\nsample_id,pass_id,p_0,p_1\ns0,0,0.7,0.3\n")
        assert load_predictions(path).n_samples == 1

    def test_only_leading_comment_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("# manifest\nsample_id,pass_id,p_0,p_1\n#x,0,0.7,0.3\n")
        assert load_predictions(path).sample_ids == ("#x",)


class TestRoundTrip:
    def test_save_then_load_bytes_stable(self, tmp_path):
        rng = np.random.default_rng(11)
        t = make_tensor(random_prob_rows(rng, 12, 3).reshape(4, 3, 3))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_predictions(t, p1)
        save_predictions(load_predictions(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_large_random_round_trip_exact(self, tmp_path):
        # on quantized (9-significant-digit) values the round trip is lossless
        rng = np.random.default_rng(99)
        probs = quantize_probs(random_prob_rows(rng, 1000, 4)).reshape(250, 4, 4)
        t = make_tensor(probs)
        path = tmp_path / "t.csv"
        save_predictions(t, path)
        back = load_predictions(path)
        assert np.max(np.abs(back.probs - t.probs)) == 0.0

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_law(self, tmp_path_factory, seed, n_classes, n_passes):
        rng = np.random.default_rng(seed)
        probs = quantize_probs(random_prob_rows(rng, 3 * n_passes, n_classes))
        t = make_tensor(probs.reshape(3, n_passes, n_classes))
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        save_predictions(t, path)
        back = load_predictions(path)
        assert np.array_equal(back.probs, t.probs)
        assert back.sample_ids == t.sample_ids


# Any text without a line break that UTF-8 can encode (no lone surrogate) is a
# valid sample id; the other ids are rejected by test_unencodable_ids_rejected.
SAMPLE_IDS = st.lists(
    st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=8),
    min_size=1, max_size=6, unique=True,
)


class TestSampleIds:
    @given(SAMPLE_IDS)
    @settings(max_examples=60, deadline=None)
    @example(["#x", "y"])
    @example(["a,1", 'q"uote', "", " lead", "\x00"])
    def test_ids_round_trip_through_every_csv(self, tmp_path_factory, ids):
        rng = np.random.default_rng(len(ids))
        probs = quantize_probs(random_prob_rows(rng, 2 * len(ids), 2)).reshape(len(ids), 2, 2)
        tensor = make_tensor(probs, ids=ids)
        labels = LabelSet(ids, np.arange(len(ids)) % 2)
        summaries = aggregate(tensor, MCD)
        tmp = tmp_path_factory.mktemp("ids")
        stamp = "manifest_digest=sha256:x"
        save_predictions(tensor, tmp / "p.csv", header_comment=stamp)
        save_labels(labels, tmp / "l.csv", header_comment=stamp)
        save_summaries(summaries, tmp / "s.csv", header_comment=stamp)
        assert load_predictions(tmp / "p.csv").sample_ids == tensor.sample_ids
        assert_same_labels(load_labels(tmp / "l.csv"), labels)
        assert load_summaries(tmp / "s.csv").sample_ids == summaries.sample_ids

    @pytest.mark.parametrize("bad", ["\ud800", "a\udfffb"])
    def test_unencodable_ids_rejected(self, bad):
        # a lone surrogate cannot be written to a UTF-8 file
        with pytest.raises(ValidationError, match="cannot be written as UTF-8"):
            make_tensor([[[0.5, 0.5]], [[0.5, 0.5]]], ids=("ok", bad))
        with pytest.raises(ValidationError, match=re.escape(f"sample id {bad!r}")):
            LabelSet(("ok", bad), np.array([0, 1]))

    @pytest.mark.parametrize("bad", ["a\nb", "a\r", "\r\n"])
    def test_line_breaks_rejected(self, bad):
        with pytest.raises(ValidationError, match="line break"):
            make_tensor([[[0.5, 0.5]]], ids=(bad,))
        with pytest.raises(ValidationError, match="line break"):
            LabelSet((bad,), np.array([0]))
        with pytest.raises(ValidationError, match="line break"):
            Summaries.from_means((bad,), np.array([[0.5, 0.5]]))


class TestLabels:
    def test_parse(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("sample_id,label\ns0,1\n")
        labels = load_labels(path)
        assert labels.sample_ids == ("s0",) and labels.labels.tolist() == [1]

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "l.csv"
        path.write_text("sample_id,label\ns0,1\ns0,0\n")
        with pytest.raises(FormatError, match="duplicate"):
            load_labels(path)

    def test_save_load_round_trip(self, tmp_path):
        labels = LabelSet(("a", "b"), np.array([0, 1]))
        path = tmp_path / "l.csv"
        save_labels(labels, path)
        assert_same_labels(load_labels(path), labels)

    def test_negative_label_rejected(self):
        with pytest.raises(ValidationError):
            LabelSet(("a",), np.array([-1]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_label_rejected_before_the_cast(self, bad):
        with pytest.raises(ValidationError, match="labels must be integers"):
            LabelSet(("a", "b"), np.array([0, bad]))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [2.0**63, 1e30, np.finfo(np.float64).max, -1e30])
    def test_label_beyond_int64_rejected_before_the_cast(self, bad):
        message = f"label {float(bad)!r} does not fit in 64 bits"
        with pytest.raises(ValidationError, match=re.escape(message)):
            LabelSet(("a", "b"), np.array([0, bad]))

    def test_largest_float_label_below_2_63_kept(self):
        big = np.nextafter(2.0**63, 0.0)
        labels = LabelSet(("a", "b"), np.array([0, big])).labels
        assert labels.dtype == np.int64 and labels.tolist() == [0, int(big)]

    def test_bool_labels_are_class_indices(self):
        assert LabelSet(("a", "b"), np.array([True, False])).labels.tolist() == [1, 0]


# a value, whether it is an integer, and whether it is a seed
INTEGER_RULE_CASES = [
    (0, True, True), (3, True, True), (np.int64(3), True, True), (np.uint64(2**64 - 1), True, True),
    (-1, True, False), (np.int8(-1), True, False), (True, False, False), (np.True_, False, False),
    (2.0, False, False), (np.float64(2.0), False, False), ("3", False, False),
    (None, False, False),
]


class TestIntegerRule:
    @pytest.mark.parametrize("value, integer, seed", INTEGER_RULE_CASES)
    def test_integer_and_seed_rules(self, value, integer, seed):
        assert (is_integer(value), is_seed(value)) == (integer, seed)

    def test_checked_values_come_back_as_python_ints(self):
        assert type(require_integer(np.int64(5), "n", 1, "too small")) is int
        assert type(require_seed(np.uint64(2**64 - 1))) is int

    def test_below_the_minimum_gives_the_callers_message(self):
        with pytest.raises(ValidationError, match="^need at least 2$"):
            require_integer(1, "n", 2, "need at least 2")
        assert require_integer(-5, "n") == -5


# a value, and whether it is a real
REAL_RULE_CASES = [
    (0, True), (-3, True), (0.25, True), (-1e308, True), (np.float32(0.5), True),
    (np.float16(-2), True), (np.int64(-2**63), True), (np.uint64(2**64 - 1), True),
    (2**1023, True), (10**400, False), (-10**400, False), (float("nan"), False),
    (float("inf"), False), (np.float32("-inf"), False), (np.float64("nan"), False),
    (True, False), (np.True_, False), ("0.3", False), (None, False), (1 + 0j, False),
    (np.array(0.5), False), ([0.5], False),
]


class TestRealAndChoiceRules:
    @pytest.mark.parametrize("value, real", REAL_RULE_CASES)
    def test_real_rule(self, value, real):
        assert is_real(value) is real

    @pytest.mark.parametrize("value", [np.float32(0.25), np.int64(3), 7, np.float64(-0.0)])
    def test_checked_reals_come_back_as_python_floats(self, value):
        checked = require_real(value, "x")
        assert type(checked) is float and checked == float(value)

    def test_bounds_are_inclusive_and_give_the_callers_message(self):
        assert require_real(1.0, "x", 0.0, 1.0) == 1.0
        with pytest.raises(ValidationError, match=r"^x 1.5 outside \[0, 1\]$"):
            require_real(1.5, "x", 0.0, 1.0)
        with pytest.raises(ValidationError, match="^x must be nonnegative, got -2.0$"):
            require_real(np.int8(-2), "x", 0.0, out_of_range="{name} must be nonnegative, got {value}")

    @pytest.mark.parametrize("value", [float("nan"), True, "1", None])
    def test_not_a_real(self, value):
        with pytest.raises(ValidationError, match=f"^x {re.escape(repr(value))} is not a finite number$"):
            require_real(value, "x", 0.0, 1.0)

    def test_choice_rule(self):
        assert require_choice("emcd", "scheme kind", ("mcd", "emcd")) == "emcd"
        for value in ("EMCD", "", 2, None, True, ("mcd",)):
            with pytest.raises(ValidationError, match=re.escape(
                    f"scheme kind must be one of ('mcd', 'emcd'), got {value!r}")):
                require_choice(value, "scheme kind", ("mcd", "emcd"))

    def test_sequence_rule(self):
        assert require_sequence([1, 2], "xs") == (1, 2)
        assert require_sequence(np.arange(2), "xs") == (0, 1)
        assert require_sequence(iter((3,)), "xs") == (3,)
        for value in (5, 0.5, "12", b"12", None):
            with pytest.raises(ValidationError, match=f"^xs must be a sequence, got {re.escape(repr(value))}$"):
                require_sequence(value, "xs")


class TestAlign:
    def test_matching_sets(self):
        t = make_tensor([[[0.5, 0.5]], [[0.4, 0.6]]], ids=("a", "b"))
        labels = LabelSet(("b", "a"), np.array([1, 0]))
        assert np.array_equal(align(t, labels), [0, 1])

    def test_missing_id_named(self):
        t = make_tensor([[[0.5, 0.5]], [[0.4, 0.6]]], ids=("a", "b"))
        labels = LabelSet(("a",), np.array([0]))
        with pytest.raises(AlignmentError) as info:
            align(t, labels)
        assert "b" in str(info.value)
        assert info.value.only_left == ("b",)

    def test_label_out_of_class_range(self):
        t = make_tensor([[[0.5, 0.5]]], ids=("a",))
        labels = LabelSet(("a",), np.array([2]))
        with pytest.raises(ValidationError, match="out of range"):
            align(t, labels)

    @pytest.mark.parametrize("evaluate", [
        lambda s, labels: build_ucm(s, labels, 0.3),
        lambda s, labels: threshold_sweep(s, labels, [0.1, 0.5]),
        lambda s, labels: calibration_report(s, labels, 10),
        separation_report,
        accuracy,
        lambda s, labels: compare_models([(0, s, labels)] * 2, [(0, s, labels)] * 2),
    ], ids=["build_ucm", "threshold_sweep", "calibration_report", "separation_report",
            "accuracy", "compare_models"])
    def test_evaluation_rejects_out_of_range_label(self, evaluate):
        summaries = Summaries.from_means(("a", "b"), np.array([[0.9, 0.1], [0.2, 0.8]]))
        labels = LabelSet(("b", "a"), np.array([7, 0]))
        with pytest.raises(ValidationError, match="label 7 for sample 'b' is out of range"):
            evaluate(summaries, labels)

    def test_permuted_file_gives_same_view(self, tmp_path):
        sorted_path = tmp_path / "sorted.csv"
        sorted_path.write_text("sample_id,label\na,0\nb,1\nc,0\n")
        permuted_path = tmp_path / "permuted.csv"
        permuted_path.write_text("sample_id,label\nc,0\na,0\nb,1\n")
        t = make_tensor([[[0.5, 0.5]]] * 3, ids=("a", "b", "c"))
        assert np.array_equal(
            align(t, load_labels(sorted_path)), align(t, load_labels(permuted_path))
        )

    def test_permutation_property_many_seeds(self):
        rng = np.random.default_rng(0)
        ids = tuple(f"s{i}" for i in range(40))
        t = make_tensor(random_prob_rows(rng, 80, 2).reshape(40, 2, 2), ids=ids)
        base = np.asarray(rng.integers(0, 2, size=40))
        reference = align(t, LabelSet(ids, base))
        for _ in range(100):
            perm = rng.permutation(40)
            shuffled = LabelSet(tuple(ids[i] for i in perm), base[perm])
            assert np.array_equal(align(t, shuffled), reference)
