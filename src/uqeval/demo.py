"""End-to-end demo: synthetic data, three prediction schemes, full evaluation.

:func:`build_demo_models` generates a two-moons dataset, trains an MC-dropout
network and a heterogeneous ensemble, and produces prediction tensors under
all three schemes; :func:`evaluate_demo` scores them. The CLI's ``demo``
writes the declared artifact files, plots and a manifest. Everything derives
from a single seed, so reruns are byte-identical (manifest timestamp aside).

The model comparison mirrors the repeated-runs protocol at toy scale:
a warm-start head (fine-tuned from a pretrained backbone) against a
cold-start head (fresh random init), trained briefly on per-run bootstrap
resamples and scored on the shared test split.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .aggregate import ENSEMBLE, MCD, SCHEME_KINDS, aggregate, save_summaries
from .calibration import calibration_as_dict, calibration_report
from .datasets import generate_dataset, save_dataset
from .manifest import canonical_json
from .models import (
    DROPOUT_RATE,
    EnsembleSpec,
    Mlp,
    MlpSpec,
    TrainConfig,
    _ensemble_jobs,
    _map_jobs,
    _train_job,
    _train_stack,
    derived_seed,
    emcd_predict,
    ensemble_predict,
    mc_dropout_predict,
)
from .stats import compare_models, comparison_as_dict, comparison_values_csv, point_metrics
from .svg import reliability_svg, separation_svg, sweep_svg, violin_svg
from .tensor import (LabelSet, require_integer, require_real, require_seed, save_labels,
                     save_predictions, write_artifact)
from .ucm import (
    NORMALIZED_THRESHOLDS,
    build_ucm,
    save_sweep,
    separation_as_dict,
    separation_report,
    threshold_sweep,
    ucm_as_dict,
)

DEMO_ARTIFACTS = (
    "dataset.csv",
    "predictions_mcd.csv",
    "predictions_ensemble.csv",
    "predictions_emcd.csv",
    "summaries_mcd.csv",
    "summaries_ensemble.csv",
    "summaries_emcd.csv",
    "sweep.csv",
    "report.json",
)

DEFAULT_THRESHOLD = 0.3
DEFAULT_GRID = tuple(round(0.1 * k, 12) for k in range(1, 10))

# The same in every demo run: the two-moons dataset's noise, the
# MC-dropout network's hidden widths (its dropout rate is models.DROPOUT_RATE),
# the minibatch size of every fit, the hidden widths of the comparison heads,
# the calibration bins, and the names of the comparison's two sides, in the
# order compare_models pairs them.
DATASET_NOISE = 0.28
MCD_HIDDEN = (32, 16, 4)
BATCH_SIZE = 32
COMPARE_HEAD_HIDDEN = (16, 8)
CALIBRATION_BINS = 10
VARIANTS = ("warm_start", "cold_start")


@dataclass(frozen=True)
class DemoPreset:
    """The demo's sizes: ``QUICK_PRESET`` sets each of them off its default."""

    n_points: int = 600
    epochs: int = 100
    mcd_passes: int = 100
    ensemble_members: int = 10
    emcd_passes_per_member: int = 8
    compare_runs: int = 12
    compare_pretrain_epochs: int = 60
    compare_head_epochs: int = 20

    def __post_init__(self):
        # what the evaluation needs, checked before any model trains
        require_integer(self.n_points, "n_points")
        require_integer(self.epochs, "epochs")
        require_integer(self.mcd_passes, "mcd_passes", 1, "need at least one forward pass")
        require_integer(self.ensemble_members, "ensemble_members")
        require_integer(self.emcd_passes_per_member, "emcd_passes_per_member", 1,
                        "need at least one pass per member")
        require_integer(self.compare_runs, "compare_runs", 2, "paired test needs at least 2 runs")
        require_integer(self.compare_pretrain_epochs, "compare_pretrain_epochs", 1,
                        "need at least one epoch")
        require_integer(self.compare_head_epochs, "compare_head_epochs", 1,
                        "need at least one epoch")


QUICK_PRESET = DemoPreset(
    n_points=240,
    epochs=40,
    mcd_passes=40,
    ensemble_members=4,
    emcd_passes_per_member=4,
    compare_runs=6,
    compare_pretrain_epochs=25,
    compare_head_epochs=10,
)


@dataclass(frozen=True)
class DemoResult:
    dataset: object
    labels: LabelSet
    tensors: dict
    summaries: dict
    report: dict
    sweeps: dict
    calibrations: dict
    separations: dict


def _sub_seeds(seed: int) -> dict[str, int]:
    names = ("data", "mcd_train", "mcd_passes", "ensemble", "emcd_passes", "compare")
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: derived_seed(child) for name, child in zip(names, children)}


def _comparison_heads(dataset, seed: int, preset: DemoPreset) -> list[Mlp]:
    """Each run's warm-start and cold-start heads, alternating, trained as one stack.

    The backbone trains first, on the train split. Both heads of a run train
    on the run's bootstrap resample of the train split and are seeded with
    its run seed; the warm-start head starts from the backbone's parameters.
    """
    train_x, train_y = dataset.train_x, dataset.train_y
    head_widths = (2, *COMPARE_HEAD_HIDDEN, 2)
    seqs = np.random.SeedSequence(seed).spawn(preset.compare_runs + 1)

    backbone_seed = derived_seed(seqs[0])
    backbone = _train_job(MlpSpec(head_widths, dropout_rate=0.0, seed=backbone_seed),
                          TrainConfig(epochs=preset.compare_pretrain_epochs,
                                      batch_size=BATCH_SIZE, seed=backbone_seed),
                          train_x, train_y)
    head_jobs = []
    for seq in seqs[1:]:
        run_seed = derived_seed(seq)
        rng = np.random.default_rng(seq)
        resample = rng.integers(0, len(train_y), size=int(0.8 * len(train_y)))
        # keep both classes present in the bootstrap sample
        resample = np.concatenate([
            resample,
            [int(np.flatnonzero(train_y == 0)[0]), int(np.flatnonzero(train_y == 1)[0])],
        ])
        head = (MlpSpec(head_widths, dropout_rate=0.0, seed=run_seed),
                TrainConfig(epochs=preset.compare_head_epochs, batch_size=BATCH_SIZE,
                            seed=run_seed),
                train_x[resample], train_y[resample])
        head_jobs += [(*head, backbone.flat), (*head, None)]
    return _train_stack(head_jobs)


def build_demo_models(seed: int, preset: DemoPreset = DemoPreset()):
    """Seeds, dataset, labels, each scheme's tensor and aggregation scheme, and comparison heads.

    Every model trains in one :func:`_map_jobs` call: the comparison (one job),
    then the MC-dropout network, then the ensemble members.
    """
    seeds = _sub_seeds(require_seed(seed))
    dataset = generate_dataset(preset.n_points, DATASET_NOISE, seeds["data"])
    labels = LabelSet(dataset.test_ids, dataset.test_y)
    mcd_spec = MlpSpec((2, *MCD_HIDDEN, 2), DROPOUT_RATE, seeds["mcd_train"])
    config = TrainConfig(epochs=preset.epochs, batch_size=BATCH_SIZE, seed=seeds["mcd_train"])
    train = (dataset.train_x, dataset.train_y)
    heads, mcd_model, *members = _map_jobs([
        (_comparison_heads, dataset, seeds["compare"], preset),
        (_train_job, mcd_spec, config, *train),
        *_ensemble_jobs(EnsembleSpec(preset.ensemble_members, seeds["ensemble"]),
                        config, train),
    ])
    test_x, test_ids = dataset.test_x, dataset.test_ids
    mcd_tensor = mc_dropout_predict(mcd_model, test_x, preset.mcd_passes, seeds["mcd_passes"],
                                    test_ids)
    ens_tensor = ensemble_predict(members, test_x, test_ids)
    emcd_tensor, emcd_sch = emcd_predict(members, test_x, preset.emcd_passes_per_member,
                                         seeds["emcd_passes"], test_ids)
    tensors = {"mcd": mcd_tensor, "ensemble": ens_tensor, "emcd": emcd_tensor}
    schemes = {"mcd": MCD, "ensemble": ENSEMBLE, "emcd": emcd_sch}
    return seeds, dataset, labels, tensors, schemes, heads


def _comparison_runs(heads: list[Mlp], dataset, labels: LabelSet):
    """The warm-start and the cold-start runs, ``(run seed, summaries, labels)`` each.

    ``heads`` alternate warm and cold, run by run, as :func:`_comparison_heads` returns them.
    """
    def evaluate(model: Mlp):
        tensor = ensemble_predict([model], dataset.test_x, dataset.test_ids)
        return (model.spec.seed, aggregate(tensor, MCD), labels)

    return [evaluate(m) for m in heads[0::2]], [evaluate(m) for m in heads[1::2]]


def evaluate_demo(seed: int, preset: DemoPreset = DemoPreset(),
                  threshold: float = DEFAULT_THRESHOLD):
    """All analyses of one demo run, as plain data (no files).

    Every model trains in :func:`build_demo_models`, after ``threshold`` is checked.
    """
    threshold = require_real(threshold, "threshold", *NORMALIZED_THRESHOLDS)
    seeds, dataset, labels, tensors, schemes, heads = build_demo_models(seed, preset)
    summaries = {name: aggregate(tensors[name], schemes[name]) for name in SCHEME_KINDS}
    per_scheme, sweeps, calibrations, separations = {}, {}, {}, {}
    for name in SCHEME_KINDS:
        s = summaries[name]
        sweeps[name] = threshold_sweep(s, labels, DEFAULT_GRID)
        calibrations[name] = calibration_report(s, labels, CALIBRATION_BINS)
        separations[name] = separation_report(s, labels)
        per_scheme[name] = {
            "ucm": ucm_as_dict(build_ucm(s, labels, threshold)),
            "calibration": calibration_as_dict(calibrations[name]),
            "separation": separation_as_dict(separations[name]),
            "point": point_metrics(s, labels),
        }
    runs_warm, runs_cold = _comparison_runs(heads, dataset, labels)
    comparison = compare_models(runs_warm, runs_cold)
    report = {
        "seed": seed,
        "derived_seeds": seeds,
        "threshold": threshold,
        "schemes": per_scheme,
        "comparison": {"variant_a": VARIANTS[0], "variant_b": VARIANTS[1],
                       **comparison_as_dict(comparison)},
    }
    result = DemoResult(dataset, labels, tensors, summaries, report, sweeps, calibrations,
                        separations)
    return result, comparison


def write_comparison(comparison, sides, out: Path, digest: str) -> str:
    """``comparison_values.csv`` and one violin plot per metric, its two groups named ``sides``;
    returns the values text written after the header comment."""
    text = write_artifact(out / "comparison_values.csv", comparison_values_csv(comparison),
                          f"manifest_digest={digest}")
    for metric, cmp in comparison.items():
        groups = dict(zip(sides, (cmp.a.values, cmp.b.values)))
        write_artifact(out / f"comparison_{metric}.svg", violin_svg(groups, metric, digest))
    return text


def write_demo_artifacts(result: DemoResult, comparison, out_dir, digest: str) -> str:
    """Write the declared artifact files, labels, comparison values and plots; return the report."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = f"manifest_digest={digest}"
    save_dataset(result.dataset, out / "dataset.csv", header_comment=stamp)
    save_labels(result.labels, out / "labels.csv", header_comment=stamp)
    for name in SCHEME_KINDS:
        save_predictions(result.tensors[name], out / f"predictions_{name}.csv",
                         header_comment=stamp)
        save_summaries(result.summaries[name], out / f"summaries_{name}.csv",
                       header_comment=stamp)

    save_sweep({name: result.sweeps[name] for name in SCHEME_KINDS}, out / "sweep.csv",
               header_comment=stamp)

    report = write_artifact(out / "report.json",
                            canonical_json({**result.report, "manifest_digest": digest}))

    for name in SCHEME_KINDS:
        write_artifact(out / f"sweep_{name}.svg", sweep_svg(result.sweeps[name], digest))
        write_artifact(out / f"reliability_{name}.svg",
                       reliability_svg(result.calibrations[name], digest))
        write_artifact(out / f"separation_{name}.svg",
                       separation_svg(result.separations[name], digest))

    write_comparison(comparison, VARIANTS, out, digest)
    return report
