"""Checks that reject a malformed value, each met once with its exact message.

Each row of ``ERRORS`` is a call that breaks one invariant of the library and
the message it must raise. Each row of ``CLI_ERRORS`` is a command line that
breaks one rule of the CLI and the line it must print on stderr. Both name
the check that gives the message: module, class or function, then the rule.
"""

import re

import numpy as np
import pytest

from uqeval import (
    CalibrationBin,
    LabelSet,
    MetricDistribution,
    MlpSpec,
    PairedTestResult,
    PredictionTensor,
    Summaries,
    SyntheticDataset,
    UncertaintyConfusion,
    ValidationError,
    auc_binary,
    emcd_predict,
    ensemble_predict,
    save_labels,
    save_summaries,
    threshold_sweep,
)
from uqeval.cli import main
from uqeval.tensor import aligned_labels
from uqeval.ucm import SweepCurve, SweepPoint

SUMMARIES = Summaries.from_means(("a", "b"), [[0.9, 0.1], [0.4, 0.6]])
LABELS = LabelSet(("a", "b"), [0, 1])
X = np.zeros((3, 2))


def summaries(**columns):
    """One sample's summary columns, each replaced by ``columns`` where given."""
    fields = dict(sample_ids=("a",), means=[[0.5, 0.5]], predicted_class=[0], confidence=[0.5],
                  entropy=[1.0], normalized_entropy=[1.0])
    return Summaries(**{**fields, **columns})


def dataset(x=np.zeros((4, 2)), y=(0, 1, 0, 1), train=(0, 1), test=(2, 3)):
    return SyntheticDataset(np.asarray(x), np.asarray(y), np.asarray(train), np.asarray(test))


def sweep_point(threshold, fc):
    """A point whose USen is 1 / (1 + fc)."""
    return SweepPoint(UncertaintyConfusion(threshold, 1, 1, 1, fc))


ERRORS = {
    "Summaries means shape": (lambda: summaries(means=[[1.0]]),
                              "means must have shape (1, classes >= 2), got (1, 1)"),
    "Summaries column shape": (lambda: summaries(predicted_class=[0, 0]),
                               "every per-sample column must have shape (1,)"),
    "Summaries.from_means shape": (lambda: Summaries.from_means(("a",), [0.5, 0.5]),
                                   "means must have shape (samples, classes >= 2), got (2,)"),
    "CalibrationBin count": (lambda: CalibrationBin(0, 0.0, 0.1, -1, None, None),
                             "bin count is negative"),
    "CalibrationBin accuracy": (lambda: CalibrationBin(0, 0.0, 0.1, 1, None, 0.05),
                                "accuracy must be set exactly when the bin is nonempty"),
    "CalibrationBin confidence": (lambda: CalibrationBin(0, 0.0, 0.1, 1, 1.0, None),
                                  "confidence must be set exactly when the bin is nonempty"),
    "SyntheticDataset shapes": (lambda: dataset(x=np.zeros((4, 3))),
                                "bad dataset shapes x(4, 3) y(4,)"),
    "SyntheticDataset partition": (lambda: dataset(test=(2,)),
                                   "train/test indices must partition the dataset"),
    "SyntheticDataset overlap": (lambda: dataset(test=(1, 2, 3)), "train/test indices overlap"),
    "SyntheticDataset split class": (lambda: dataset(train=(0, 2), test=(1, 3)),
                                     "train split misses a class"),
    "MlpSpec zero width": (lambda: MlpSpec((2, 0, 2)),
                           "layer widths must be positive, got (2, 0, 2)"),
    "ensemble_predict no model": (lambda: ensemble_predict([], X), "need at least one model"),
    "emcd_predict no model": (lambda: emcd_predict([], X, 2, 0), "need at least one model"),
    "auc_binary shape": (lambda: auc_binary([0.5, 0.5], [0, 1, 1]),
                         "scores and labels must be parallel 1-D arrays"),
    "auc_binary finite": (lambda: auc_binary([0.5, np.nan], [0, 1]), "scores must be finite"),
    "MetricDistribution parallel": (lambda: MetricDistribution((0.5, 0.6), (0,)),
                                    "values and run_seeds must be parallel"),
    "PairedTestResult df": (lambda: PairedTestResult(0.0, 0, 1.0, 0.0),
                            "paired test needs at least 2 runs"),
    "PredictionTensor ndim": (lambda: PredictionTensor(np.full((1, 2), 0.5), ("a",)),
                              "probs must have shape (samples, passes, classes), got (1, 2)"),
    "PredictionTensor passes": (lambda: PredictionTensor(np.empty((1, 0, 2)), ("a",)),
                                "need at least one forward pass"),
    "PredictionTensor id count": (lambda: PredictionTensor(np.full((1, 1, 2), 0.5), ("a", "b")),
                                  "2 sample ids for 1 samples"),
    "LabelSet shape": (lambda: LabelSet(("a", "b"), [0]), "(1,) labels for 2 sample ids"),
    "aligned_labels extra labels": (lambda: aligned_labels(("a",), LABELS, 2),
                                    "labels without predictions for ['b']"),
    "SweepCurve usen order": (lambda: SweepCurve((sweep_point(0.1, fc=4), sweep_point(0.2, fc=1))),
                              "usen must be nonincreasing along the sweep"),
    "threshold_sweep empty grid": (lambda: threshold_sweep(SUMMARIES, LABELS, []),
                                   "empty threshold grid"),
}


@pytest.mark.parametrize("name", ERRORS)
def test_each_check_gives_its_message(name):
    call, message = ERRORS[name]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()


@pytest.fixture
def inputs(tmp_path):
    """A summaries and a labels file for the CLI commands, in ``tmp_path``."""
    save_summaries(SUMMARIES, tmp_path / "s.csv")
    save_labels(LABELS, tmp_path / "l.csv")
    (tmp_path / "empty").mkdir()
    (tmp_path / "no_runs").mkdir()
    (tmp_path / "no_runs" / "runs.json").write_text('{"runs": []}')
    return tmp_path


EVALUATE = ["evaluate", "--summaries", "{tmp}/s.csv", "--labels", "{tmp}/l.csv"]
SWEEP = ["sweep", "--summaries", "{tmp}/s.csv", "--labels", "{tmp}/l.csv"]
ECE = ["ece", "--summaries", "{tmp}/s.csv", "--labels", "{tmp}/l.csv"]

# a command line with its exit code and the last line it prints on stderr
CLI_ERRORS = {
    # entropy is in bits and every threshold is on normalized entropy: no flag picks another
    "log base flag": (["aggregate", "--in", "{tmp}/p.csv", "--log-base", "e"], 2,
                      "uqeval: error: unrecognized arguments: --log-base e"),
    "entropy scale flag": (EVALUATE + ["--normalize-entropy", "false"], 2,
                           "uqeval: error: unrecognized arguments: --normalize-entropy false"),
    "missing runs index": (["compare", "--a", "{tmp}/empty", "--b", "{tmp}/no_runs"], 1,
                           "uqeval: error: {tmp}/empty: missing runs.json index"),
    "no runs": (["compare", "--a", "{tmp}/no_runs", "--b", "{tmp}/no_runs"], 1,
                "uqeval: error: {tmp}/no_runs: no runs declared"),
    # 1 / 5e-324 is infinite; 1 / 1e-10 would be a list of 10^10 thresholds
    "grid step underflow": (SWEEP + ["--grid", "0:5e-324:1"], 1,
                            "uqeval: error: bad grid '0:5e-324:1': more than 1000000 points"),
    "grid too fine": (SWEEP + ["--grid", "0:1e-10:1"], 1,
                      "uqeval: error: bad grid '0:1e-10:1': more than 1000000 points"),
    # 10001 points, but thresholds are kept to 12 decimals, so only 1001 distinct ones
    "grid finer than its rounding": (SWEEP + ["--grid", "0:1e-13:1e-9"], 1,
                                     "uqeval: error: bad grid '0:1e-13:1e-9': "
                                     "thresholds repeat once rounded to 12 decimals"),
    # like a sweep's grid; a count this large would be read, binned and written in full
    "too many bins": (ECE + ["--bins", "1000000"], 1,
                      "uqeval: error: --bins 1000000: need fewer than 1000000 bins"),
    # CSV is the one predictions format: no flag picks another, and a .jsonl path is
    # rejected before it is opened (this one does not exist)
    "predictions format flag": (["aggregate", "--in", "{tmp}/p.csv", "--in-format", "csv"], 2,
                                "uqeval: error: unrecognized arguments: --in-format csv"),
    "predictions extension": (["aggregate", "--in", "{tmp}/p.jsonl"], 1,
                              "uqeval: error: the extension of {tmp}/p.jsonl must be one of "
                              "('.csv',), got '.jsonl'"),
}


def run(args, tmp):
    """``main``'s exit code for ``args``, each ``{tmp}`` replaced by the directory; out goes in it."""
    args = [a.format(tmp=tmp) for a in args] + ["--out", str(tmp / "out")]
    try:
        return main(args)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("name", CLI_ERRORS)
def test_each_cli_check_gives_its_message(name, inputs, capsys):
    args, code, message = CLI_ERRORS[name]
    assert run(args, inputs) == code
    assert capsys.readouterr().err.splitlines()[-1] == message.format(tmp=inputs)
    assert not (inputs / "out").exists()
