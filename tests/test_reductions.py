"""The short-axis reductions give numpy's bits, and ids are checked once.

``class_sums`` and ``pass_means`` add an axis a slice at a time where numpy
would reduce once per row; they must equal ``np.sum(axis=-1)`` and
``.mean(axis=1)`` bit for bit, signed zeros included, for every layout the
package hands them: contiguous tensors, EMCD member slices and rescaled
(``renormalize=True``) rows. The separation median must be
``statistics.median``'s, bit for bit, and the column-at-a-time argmax must
be ``np.argmax``'s.
"""

import copy
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqeval import (
    ENSEMBLE,
    MCD,
    LabelSet,
    PredictionTensor,
    Summaries,
    ValidationError,
    aggregate,
    emcd_scheme,
    load_summaries,
    save_summaries,
    separation_report,
)
from uqeval.aggregate import _argmax_rows
from uqeval.tensor import SampleIds, class_sums, pass_means
from uqeval.ucm import _median

import scalar_oracles as oracle

# values whose sums expose a change of order or of the starting zero
SPECIAL = np.array([0.0, -0.0, 1.0, 0.5, 5e-324, 2.2250738585072014e-308, 1e-300, 1 - 2**-53])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def float_values(seed: int, shape) -> np.ndarray:
    """Values in [0, 1] of mixed magnitude, a fifth of them from ``SPECIAL``."""
    rng = np.random.default_rng(seed)
    values = rng.random(shape) ** int(rng.integers(1, 8))
    special = rng.random(shape) < 0.2
    values[special] = rng.choice(SPECIAL, size=int(special.sum()))
    return values


LAYOUTS = {
    "contiguous": lambda x: x,
    "classes reversed": lambda x: x[..., ::-1],
    "every other row": lambda x: x[::2],
    "inner block": lambda x: x[:, 1:-1],
}


class TestClassSums:
    @given(st.integers(0, 2**32 - 1), st.integers(2, 16), st.integers(1, 40),
           st.integers(1, 5), st.sampled_from(sorted(LAYOUTS)))
    @settings(max_examples=300, deadline=None)
    @example(0, 2, 1, 1, "contiguous")
    @example(0, 16, 40, 5, "classes reversed")
    def test_equals_numpy_sum(self, seed, n_classes, n_rows, n_passes, layout):
        values = LAYOUTS[layout](float_values(seed, (n_rows, n_passes + 2, n_classes)))
        assert same_bits(class_sums(values), values.sum(axis=-1))
        rows = values[:, 0]
        assert same_bits(class_sums(rows), rows.sum(axis=-1))
        assert same_bits(class_sums(rows[0]), rows[0].sum(axis=-1))

    @pytest.mark.parametrize("n_classes", range(2, 17))
    def test_a_row_of_negative_zeros_sums_to_positive_zero(self, n_classes):
        row = np.full((1, n_classes), -0.0)
        assert same_bits(class_sums(row), np.zeros(1))
        assert same_bits(class_sums(row), row.sum(axis=-1))


class TestPassMeans:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 60),
           st.integers(2, 16), st.integers(0, 59), st.integers(1, 60))
    @settings(max_examples=300, deadline=None)
    @example(0, 1, 1, 2, 0, 1)
    @example(0, 30, 60, 16, 0, 60)
    def test_equals_numpy_mean_on_tensors_and_member_slices(self, seed, n_samples, n_passes,
                                                             n_classes, start, length):
        probs = float_values(seed, (n_samples, n_passes, n_classes))
        assert same_bits(pass_means(probs), probs.mean(axis=1))
        start = start % n_passes
        member = probs[:, start:start + length, :]  # an EMCD member: a view with the tensor's strides
        assert same_bits(pass_means(member), member.mean(axis=1))
        odd_rows = probs[::2, start:start + length, ::-1]
        assert same_bits(pass_means(odd_rows), odd_rows.mean(axis=1))


def tensor_and_rows(seed: int, n_samples: int, n_passes: int, n_classes: int,
                    renormalize: bool) -> tuple[PredictionTensor, np.ndarray]:
    """A tensor and the rows it was built from: rows summing to 1 (or, rescaled, within 1e-4 of it), with exact zeros, -0.0 and one-hot rows."""
    rng = np.random.default_rng(seed)
    rows = float_values(seed, (n_samples, n_passes, n_classes))
    rows[rng.random((n_samples, n_passes)) < 0.1] = 0.0
    hot = rng.integers(0, n_classes, size=(n_samples, n_passes))
    np.put_along_axis(rows, hot[..., np.newaxis], 1.0, axis=-1)
    rows = rows / rows.sum(axis=-1, keepdims=True)
    rows[rows == 0.0] = np.where(rng.random(np.count_nonzero(rows == 0.0)) < 0.5, -0.0, 0.0)
    one_hot = rng.random(n_samples) < 0.2  # whole samples whose every pass is one-hot
    rows[one_hot] = np.where(np.arange(n_classes) == hot[one_hot][:, :1, np.newaxis], 1.0, -0.0)
    if renormalize:
        scale = 1.0 + rng.uniform(-1e-4, 1e-4, size=(n_samples, n_passes, 1))
        # shrink, not grow, a row that would get a value above 1
        rows = rows * np.where(rows.max(axis=-1, keepdims=True) * scale > 1.0, 2.0 - scale, scale)
    ids = [f"s{i}" for i in range(n_samples)]
    return PredictionTensor(rows, ids, renormalize=renormalize), rows


class TestArgmaxRows:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(2, 12))
    @settings(max_examples=300, deadline=None)
    @example(0, 1, 2)
    def test_equals_numpy_argmax(self, seed, n_rows, n_classes):
        # few distinct values, so most rows hold ties, and -0.0 ties 0.0
        rng = np.random.default_rng(seed)
        means = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0, 5e-324], size=(n_rows, n_classes))
        means[rng.random(means.shape) < 0.2] = rng.random()
        assert same_bits(_argmax_rows(means), np.argmax(means, axis=1))
        assert same_bits(_argmax_rows(means[:, ::-1]), np.argmax(means[:, ::-1], axis=1))

    @pytest.mark.parametrize("row", [[0.0, -0.0], [-0.0, 0.0], [-0.0, 0.0, -0.0], [0.5, 0.5],
                                     [0.25, 0.5, 0.5], [0.0, 0.0, 0.0]])
    def test_ties_break_low(self, row):
        means = np.array([row])
        assert _argmax_rows(means).tolist() == np.argmax(means, axis=1).tolist()


class TestAggregateBits:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 25), st.integers(1, 12),
           st.integers(2, 12), st.booleans(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_summaries_equal_numpy_reductions(self, seed, n_samples, n_passes, n_classes,
                                              renormalize, data):
        tensor, rows = tensor_and_rows(seed, n_samples, n_passes, n_classes, renormalize)
        if renormalize:
            assert same_bits(tensor.probs, rows / rows.sum(axis=-1)[..., np.newaxis])
        cuts = sorted(data.draw(st.sets(st.integers(1, n_passes - 1), max_size=4))) if n_passes > 1 else []
        parts = tuple(np.diff([0, *cuts, n_passes]).tolist())
        for scheme in (MCD, ENSEMBLE, emcd_scheme(parts)):
            got = aggregate(tensor, scheme)
            for column, expected in oracle.numpy_aggregate(tensor, scheme).items():
                assert same_bits(getattr(got, column), expected), (scheme, column)

    def test_one_hot_mean_entropy_keeps_its_sign(self):
        tensor = PredictionTensor(np.array([[[1.0, 0.0]] * 3]), ["a"])
        expected = oracle.numpy_aggregate(tensor, MCD)["entropy"]
        assert not np.signbit(expected).any()  # the entropy of a one-hot mean is +0.0
        assert same_bits(aggregate(tensor, MCD).entropy, expected)

    def test_one_hot_mean_is_written_without_a_sign(self, tmp_path):
        tensor = PredictionTensor(np.array([[[0.0, 1.0]] * 3]), ["a"])
        save_summaries(aggregate(tensor, MCD), tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_text(encoding="utf-8").splitlines()[1] == "a,1,1,0,0,0,1"


def bits(value) -> str | None:
    return None if value is None else repr(value)


ENTROPIES = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 5e-324]) | st.floats(0.0, 1.0)


class TestMedian:
    @given(st.lists(ENTROPIES, min_size=1, max_size=60))
    @settings(max_examples=300, deadline=None)
    @example([-0.0])
    @example([0.0, -0.0, -0.0])
    @example([-0.0, -0.0])
    @example([0.0, -0.0])
    @example([-0.0, 0.0, 0.5, -0.0])
    def test_equals_statistics_median(self, values):
        assert bits(_median(np.array(values))) == bits(oracle.median(values))

    @pytest.mark.parametrize("values", [
        [-0.0, 0.0, 0.0, 0.25, 0.5],          # odd: a zero in the middle
        [-0.0, -0.0, 0.0, 0.5, 0.75],
        [-0.0, 0.0, 0.0, 0.5],                # even: two zeros in the middle
        [-0.0, -0.0, 0.0, 0.0],
        [-0.0, 0.0, 0.5, 1.0],                # even: a zero and a number in the middle
        [-0.5, -0.0, 0.0, -0.0, 0.5],         # zeros between negatives and positives
    ])
    def test_signed_zeros_in_the_middle_in_every_order(self, values):
        for order in set(itertools.permutations(values, len(values))):
            assert bits(_median(np.array(order))) == bits(oracle.median(order)), order

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [9_999, 10_000])
    def test_many_signed_zeros(self, seed, n):
        # thousands of zeros of both signs, enough for an unstable sort to reorder them;
        # with fewer than half of the values positive, the middle is a zero
        rng = np.random.default_rng(seed)
        values = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        positive = rng.random(n) < rng.uniform(0.0, 0.45)
        values[positive] = rng.random(int(positive.sum()))
        assert bits(_median(values)) == bits(oracle.median(values.tolist()))

    @pytest.mark.parametrize("correct,incorrect", [
        ([], [0.3]),                          # empty correct group, singleton incorrect
        ([0.2], []),                          # singleton correct group, empty incorrect
        ([-0.0], [-0.0, -0.0]),               # one-hot means: entropies of -0.0
        ([0.1, -0.0, 0.0], [0.9, 0.4, -0.0, 0.0]),  # odd and even
        ([0.5, 0.25, 0.75, 0.0, 1.0], [1.0, 0.125]),
    ])
    def test_separation_report_medians(self, correct, incorrect):
        values = correct + incorrect
        n = len(values)
        summaries = Summaries(
            sample_ids=[f"s{i}" for i in range(n)],
            means=[[1.0, 0.0]] * n,
            predicted_class=[0] * n,
            confidence=[1.0] * n,
            entropy=[abs(v) for v in values],
            normalized_entropy=values,
        )
        labels = LabelSet(summaries.sample_ids, [0] * len(correct) + [1] * len(incorrect))
        report = separation_report(summaries, labels)
        expected = [oracle.median(g) if g else None for g in (correct, incorrect)]
        assert bits(report.correct_median) == bits(expected[0])
        assert bits(report.incorrect_median) == bits(expected[1])
        difference = None if None in expected else expected[1] - expected[0]
        assert bits(report.median_difference) == bits(difference)


ID_FAULTS = [
    (["a", "b", "a"], "duplicate sample id 'a'"),
    (["a", "b\nc"], "sample id 'b\\\\nc' contains a line break"),
    (["a", "x\ud800"], "sample id 'x\\\\ud800' cannot be written as UTF-8"),
]


class TestIdsCheckedOnce:
    @pytest.mark.parametrize("scheme", [MCD, ENSEMBLE, emcd_scheme((1, 2))])
    def test_summaries_share_the_tensor_ids(self, scheme):
        tensor, _ = tensor_and_rows(3, 5, 3, 2, False)
        assert type(tensor.sample_ids) is SampleIds
        assert aggregate(tensor, scheme).sample_ids is tensor.sample_ids

    def test_checked_ids_are_returned_unchanged(self):
        ids = SampleIds(["a", "b"])
        assert SampleIds(ids) is ids
        assert LabelSet(ids, [0, 1]).sample_ids is ids

    def test_loaded_summaries_keep_one_ids_tuple(self, tmp_path):
        tensor, _ = tensor_and_rows(4, 6, 2, 3, False)
        save_summaries(aggregate(tensor, MCD), tmp_path / "s.csv")
        loaded = load_summaries(tmp_path / "s.csv")
        assert type(loaded.sample_ids) is SampleIds
        assert loaded.sample_ids == tensor.sample_ids

    @pytest.mark.parametrize("build", [
        lambda ids: PredictionTensor(np.full((len(ids), 1, 2), 0.5), ids),
        lambda ids: LabelSet(ids, [0] * len(ids)),
        lambda ids: Summaries.from_means(ids, np.full((len(ids), 2), 0.5)),
        SampleIds,
    ], ids=["PredictionTensor", "LabelSet", "Summaries", "SampleIds"])
    @pytest.mark.parametrize("container", [tuple, list])
    @pytest.mark.parametrize("ids,message", ID_FAULTS)
    def test_caller_ids_are_checked(self, build, container, ids, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            build(container(ids))

    def test_ids_are_strings(self):
        assert SampleIds([1, "b"]) == ("1", "b")
        assert PredictionTensor(np.full((1, 1, 2), 0.5), [7]).sample_ids == ("7",)

    class Id(str):
        pass

    @pytest.mark.parametrize("ids,expected", [
        (np.array(["a", "b"]), ("a", "b")),
        ([np.str_("a"), "b"], ("a", "b")),
        ([Id("a"), Id("b,1")], ("a", "b,1")),
        ([1, 2.5, "c"], ("1", "2.5", "c")),
        ((i for i in ("x", "y")), ("x", "y")),
    ], ids=["numpy array", "numpy str_", "str subclass", "int and float", "generator"])
    def test_ids_are_held_as_exact_str(self, ids, expected):
        held = SampleIds(ids)
        assert held == expected
        assert [type(s) for s in held] == [str] * len(expected)

    def test_an_int_and_its_string_are_one_id(self):
        with pytest.raises(ValidationError, match="^duplicate sample id '1'$"):
            SampleIds((1, "1"))

    @pytest.mark.parametrize("copier", [
        copy.copy,
        copy.deepcopy,
        *(lambda ids, p=p: pickle.loads(pickle.dumps(ids, protocol=p))
          for p in range(pickle.HIGHEST_PROTOCOL + 1)),
    ])
    def test_copies_and_pickles_are_checked_ids(self, copier):
        ids = SampleIds(["a", "b,1", "é"])
        back = copier(ids)
        assert type(back) is SampleIds
        assert back == ids
        summaries = Summaries.from_means(back, np.full((3, 2), 0.5))
        assert summaries.sample_ids is back

    def test_unpickling_checks_the_ids_again(self):
        forged = pickle.dumps(SampleIds(["a", "b"])).replace(b"\x8c\x01b", b"\x8c\x01a")
        with pytest.raises(ValidationError, match="duplicate sample id 'a'"):
            pickle.loads(forged)

    def test_slices_are_plain_tuples(self):
        ids = SampleIds(["a", "b", "c"])
        assert type(ids[1:]) is tuple
