"""Every real-valued setting and named choice goes through one rule where it enters.

A real (``tensor.require_real``) is a finite Python or numpy number, never a
bool or a string, and is kept as a Python float; a named choice
(``tensor.require_choice``) is one of a tuple of strings. Each entry below is
checked with the values that break both rules, and with numpy scalars.
"""

import math
import re

import numpy as np
import pytest

from uqeval import (
    MCD,
    AggregationScheme,
    MetricDistribution,
    MlpSpec,
    PairedTestResult,
    Summaries,
    TrainConfig,
    aggregate,
    build_ucm,
    generate_dataset,
    load_predictions,
    regularized_incomplete_beta,
    save_predictions,
    student_t_two_sided_p,
    threshold_sweep,
)
from uqeval.demo import QUICK_PRESET, evaluate_demo
from uqeval.errors import ValidationError
from uqeval.tensor import LabelSet, PredictionTensor

SUMMARIES = Summaries.from_means(("a", "b"), [[0.9, 0.1], [0.6, 0.4]])
LABELS = LabelSet(("a", "b"), [0, 1])
TENSOR = PredictionTensor(np.full((2, 3, 2), 0.5), ("a", "b"))


@pytest.fixture(autouse=True)
def no_training(monkeypatch):
    """Any model the demo trains fails the test: its settings are checked first."""
    def untrained(*args):
        raise AssertionError("a model trained")

    monkeypatch.setattr("uqeval.demo._map_jobs", untrained)


# each real-valued setting: the name its errors give, and a call that sets it
# to ``value``, writing nothing outside ``tmp``
REAL_ENTRIES = {
    "MlpSpec.dropout_rate": ("dropout rate", lambda v, tmp: MlpSpec((2, 4, 2), dropout_rate=v)),
    "TrainConfig.learning_rate": ("learning rate", lambda v, tmp: TrainConfig(learning_rate=v)),
    "generate_dataset noise": ("noise", lambda v, tmp: generate_dataset(40, v, 0)),
    "build_ucm threshold": ("threshold", lambda v, tmp: build_ucm(SUMMARIES, LABELS, v)),
    "build_ucm raw threshold": (
        "threshold", lambda v, tmp: build_ucm(SUMMARIES, LABELS, v, normalized=False)),
    "threshold_sweep threshold": (
        "threshold", lambda v, tmp: threshold_sweep(SUMMARIES, LABELS, [0.1, v])),
    "threshold_sweep raw threshold": (
        "threshold", lambda v, tmp: threshold_sweep(SUMMARIES, LABELS, [v], normalized=False)),
    "evaluate_demo threshold": (
        "threshold", lambda v, tmp: evaluate_demo(0, QUICK_PRESET, threshold=v)),
    "regularized_incomplete_beta x": (
        "incomplete beta argument", lambda v, tmp: regularized_incomplete_beta(v, 1.0, 1.0)),
    "regularized_incomplete_beta a": (
        "incomplete beta parameter a", lambda v, tmp: regularized_incomplete_beta(0.5, v, 1.0)),
    "regularized_incomplete_beta b": (
        "incomplete beta parameter b", lambda v, tmp: regularized_incomplete_beta(0.5, 1.0, v)),
    "student_t_two_sided_p df": (
        "degrees of freedom", lambda v, tmp: student_t_two_sided_p(1.0, v)),
    "MetricDistribution value": (
        "metric value", lambda v, tmp: MetricDistribution((0.5, v), (0, 1))),
    "PairedTestResult.p_value": ("p-value", lambda v, tmp: PairedTestResult(1.0, 1, v, 0.5)),
}

# each named choice: the name its errors give, and a call that sets it to ``value``
CHOICE_ENTRIES = {
    "AggregationScheme.kind": ("scheme kind", lambda v, tmp: AggregationScheme(v)),
    "aggregate log base": ("log base", lambda v, tmp: aggregate(TENSOR, MCD, v)),
    "Summaries.from_means log base": (
        "log base", lambda v, tmp: Summaries.from_means(("a",), [[0.5, 0.5]], v)),
    "evaluate_demo log base": (
        "log base", lambda v, tmp: evaluate_demo(0, QUICK_PRESET, log_base=v)),
}

NOT_REAL = [math.nan, math.inf, -math.inf, True, "0.3", None]


@pytest.mark.parametrize("value", NOT_REAL + [np.float32("nan"), np.float64("inf"), 10**400])
@pytest.mark.parametrize("entry", REAL_ENTRIES)
def test_a_real_setting_rejects_what_is_not_a_finite_number(entry, value, tmp_path):
    name, call = REAL_ENTRIES[entry]
    with pytest.raises(ValidationError) as info:
        call(value, tmp_path)
    assert str(info.value) == f"{name} {value!r} is not a finite number"
    assert list(tmp_path.iterdir()) == []


NOT_CHOICES = [(entry, value) for entry in CHOICE_ENTRIES for value in NOT_REAL + ["CSV", "mcd "]]


@pytest.mark.parametrize("entry, value", NOT_CHOICES)
def test_a_named_choice_rejects_what_is_not_one_of_its_names(entry, value, tmp_path):
    name, call = CHOICE_ENTRIES[entry]
    with pytest.raises(ValidationError, match=f"^{name} must be one of .*, got {re.escape(repr(value))}$"):
        call(value, tmp_path)
    assert list(tmp_path.iterdir()) == []


# a value outside each real setting's range, and the error it gives
OUT_OF_RANGE = {
    "MlpSpec.dropout_rate": (1.0, "dropout rate 1.0 outside [0, 1)"),
    "TrainConfig.learning_rate": (-1e-3, "learning rate must be nonnegative"),
    "generate_dataset noise": (-0.1, "noise must be nonnegative"),
    "build_ucm threshold": (1.5, "threshold 1.5 outside [0, 1]"),
    "build_ucm raw threshold": (-0.5, "raw-entropy threshold -0.5 is negative"),
    "threshold_sweep threshold": (np.float32(1.5), "threshold 1.5 outside [0, 1]"),
    "threshold_sweep raw threshold": (-1, "raw-entropy threshold -1.0 is negative"),
    "evaluate_demo threshold": (-0.1, "threshold -0.1 outside [0, 1]"),
    "regularized_incomplete_beta x": (1.5, "incomplete beta argument 1.5 outside [0, 1]"),
    "regularized_incomplete_beta a": (0.0, "incomplete beta parameter a 0.0 is not positive"),
    "regularized_incomplete_beta b": (-1, "incomplete beta parameter b -1.0 is not positive"),
    "student_t_two_sided_p df": (0, "degrees of freedom 0.0 is not positive"),
    "PairedTestResult.p_value": (1.5, "p-value 1.5 outside [0, 1]"),
}

# the real settings that take every finite number
UNBOUNDED = {"MetricDistribution value"}


def test_every_bounded_real_setting_has_an_out_of_range_value():
    assert set(REAL_ENTRIES) - set(OUT_OF_RANGE) == UNBOUNDED


@pytest.mark.parametrize("entry", OUT_OF_RANGE)
def test_a_real_setting_outside_its_range_gives_its_message(entry, tmp_path):
    _, call = REAL_ENTRIES[entry]
    value, message = OUT_OF_RANGE[entry]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call(value, tmp_path)


# each stored real setting, read back after it is set to ``value``
STORED = {
    "MlpSpec.dropout_rate": lambda v: MlpSpec((2, 4, 2), dropout_rate=v).dropout_rate,
    "TrainConfig.learning_rate": lambda v: TrainConfig(learning_rate=v).learning_rate,
    "build_ucm threshold": lambda v: build_ucm(SUMMARIES, LABELS, v).threshold,
    "build_ucm raw threshold": lambda v: build_ucm(SUMMARIES, LABELS, v, False).threshold,
    "threshold_sweep threshold":
        lambda v: threshold_sweep(SUMMARIES, LABELS, [v]).points[0].threshold,
    "MetricDistribution value": lambda v: MetricDistribution((v,), (0,)).values[0],
}


@pytest.mark.parametrize("value", [np.float32(0.25), np.float64(0.5), np.int64(0), np.uint8(0), 0])
@pytest.mark.parametrize("entry", STORED)
def test_numpy_scalars_are_kept_as_python_floats(entry, value):
    got = STORED[entry](value)
    assert type(got) is float and got == float(value)


def test_a_numpy_noise_gives_the_dataset_of_its_float():
    a = generate_dataset(40, np.float32(0.25), 3)
    b = generate_dataset(40, float(np.float32(0.25)), 3)
    assert np.array_equal(a.x, b.x)


def test_the_largest_float_below_one_is_a_dropout_rate():
    rate = math.nextafter(1.0, 0.0)
    assert MlpSpec((2, 4, 2), dropout_rate=rate).dropout_rate == rate


@pytest.mark.parametrize("rate", [np.float32(1.0), np.float16(1.0), np.int8(1)])
def test_a_bound_is_compared_as_a_python_float(rate):
    # in float32 the largest float64 below 1 rounds to 1
    with pytest.raises(ValidationError, match=re.escape("dropout rate 1.0 outside [0, 1)")):
        MlpSpec((2, 4, 2), dropout_rate=rate)


def test_a_raw_threshold_has_no_upper_bound():
    assert build_ucm(SUMMARIES, LABELS, 5.0, normalized=False).threshold == 5.0


# a value that should be a sequence but is not, at each entry that takes one
NOT_SEQUENCES = {
    "member_pass_counts": lambda v: AggregationScheme("emcd", v),
    "layer_widths": lambda v: MlpSpec(v),
    "thresholds": lambda v: threshold_sweep(SUMMARIES, LABELS, v),
}


@pytest.mark.parametrize("value", [5, 0.3, "0.3", None, np.float64(0.3)])
@pytest.mark.parametrize("name", NOT_SEQUENCES)
def test_a_sequence_setting_rejects_a_single_value(name, value):
    with pytest.raises(ValidationError, match=f"^{name} must be a sequence, got {re.escape(repr(value))}$"):
        NOT_SEQUENCES[name](value)


def test_sequence_settings_take_lists_tuples_and_arrays():
    assert AggregationScheme("emcd", np.array([2, 1])).member_pass_counts == (2, 1)
    assert MlpSpec([2, 4, 2]).layer_widths == (2, 4, 2)
    curve = threshold_sweep(SUMMARIES, LABELS, np.array([0.1, 0.5]))
    assert [p.threshold for p in curve] == [0.1, 0.5]


@pytest.mark.parametrize("parts", [(), [], (2, 0)])
def test_emcd_needs_members_of_at_least_one_pass(parts):
    with pytest.raises(ValidationError, match="^emcd needs members of at least one pass each"):
        AggregationScheme("emcd", parts)


@pytest.mark.parametrize("grid", [[0.5, 0.3], [0.3, 0.3]])
def test_an_unsorted_grid_is_rejected_by_the_curve(grid):
    with pytest.raises(ValidationError, match="^sweep thresholds must be strictly increasing$"):
        threshold_sweep(SUMMARIES, LABELS, grid)


@pytest.mark.parametrize("value", [math.nan, True, "0.5"])
def test_metric_values_are_reals(value):
    with pytest.raises(ValidationError, match=f"^metric value {re.escape(repr(value))} is not"):
        MetricDistribution((0.5, value), (0, 1))


@pytest.mark.parametrize("name", ["p.txt", "p", "p.csv.gz", "csv", "p.jsonl", "p.JSONL", ".jsonl",
                                  "p.json", "p.tsv", "p.csv.bak", "p.csv ", "p."])
def test_an_unknown_extension_is_a_validation_error(name, tmp_path):
    with pytest.raises(ValidationError, match=f"^the extension of .*{re.escape(name)} must be one of"):
        load_predictions(tmp_path / name)
    with pytest.raises(ValidationError, match=f"^the extension of .*{re.escape(name)} must be one of"):
        save_predictions(TENSOR, tmp_path / name)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["p.CSV", "a.b.csv", "p.Csv", ".csv", "a.jsonl.csv"])
def test_a_known_extension_in_any_case_is_inferred(name, tmp_path):
    save_predictions(TENSOR, tmp_path / name)
    assert np.array_equal(load_predictions(tmp_path / name).probs, TENSOR.probs)


# the t statistic may be infinite (a zero-variance paired difference), but is otherwise a real
NOT_T = [v for v in NOT_REAL if not (isinstance(v, float) and math.isinf(v))]


@pytest.mark.parametrize("value", NOT_T + [np.float32("nan"), pytest.param(10**400, id="10**400")])
def test_a_t_statistic_is_a_number(value):
    with pytest.raises(ValidationError) as info:
        student_t_two_sided_p(value, 5)
    assert str(info.value) == f"t statistic {value!r} is not a finite number"


@pytest.mark.parametrize("value", [math.inf, -math.inf, np.float64("inf"), np.float32("-inf")])
def test_an_infinite_t_statistic_has_p_value_zero(value):
    assert student_t_two_sided_p(value, 5) == 0.0


@pytest.mark.parametrize("value", [np.float32(1.0), np.int64(1), 1])
def test_a_numpy_t_statistic_gives_the_p_value_of_its_float(value):
    assert student_t_two_sided_p(value, 5) == student_t_two_sided_p(1.0, 5)
