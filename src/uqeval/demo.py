"""End-to-end demo: synthetic data, three prediction schemes, full evaluation.

One :func:`run_demo` call generates a two-moons dataset, trains an
MC-dropout network and a heterogeneous ensemble, produces prediction
tensors under all three schemes, and writes the declared artifact files
plus plots and a manifest into an output directory. Everything derives
from a single seed, so reruns are byte-identical (manifest timestamp
aside).

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
from .errors import ValidationError
from .manifest import canonical_json
from .models import (
    EnsembleSpec,
    Mlp,
    MlpSpec,
    TrainConfig,
    _ensemble_jobs,
    _map_jobs,
    _train_job,
    derived_seed,
    emcd_predict,
    ensemble_predict,
    is_integer,
    mc_dropout_predict,
)
from .stats import compare_models, comparison_as_dict, comparison_values_csv, point_metrics
from .svg import reliability_svg, separation_svg, sweep_svg, violin_svg
from .tensor import LabelSet, save_labels, save_predictions, write_artifact
from .ucm import (
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

# The same in every demo run: the MC-dropout network's hidden widths, the
# dropout rate of it and of the ensemble members, the minibatch size of every
# fit, the hidden widths of the comparison heads, the calibration bins, and the
# names of the comparison's two sides, in the order compare_models pairs them.
MCD_HIDDEN = (32, 16, 4)
DROPOUT_RATE = 0.25
BATCH_SIZE = 32
COMPARE_HEAD_HIDDEN = (16, 8)
CALIBRATION_BINS = 10
VARIANTS = ("warm_start", "cold_start")


@dataclass(frozen=True)
class DemoPreset:
    """The demo's sizes: ``QUICK_PRESET`` and the ``train-demo`` flags set each of them."""

    kind: str = "two-moons"
    n_points: int = 600
    noise: float = 0.28
    epochs: int = 100
    mcd_passes: int = 100
    ensemble_members: int = 10
    emcd_passes_per_member: int = 8
    compare_runs: int = 12
    compare_pretrain_epochs: int = 60
    compare_head_epochs: int = 20


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


def valid_seed(seed) -> bool:
    """Whether numpy can seed from ``seed``: an integer (not a bool) that is not negative."""
    return is_integer(seed) and seed >= 0


def _sub_seeds(seed: int) -> dict[str, int]:
    names = ("data", "mcd_train", "mcd_passes", "ensemble", "emcd_passes", "compare")
    children = np.random.SeedSequence(seed).spawn(len(names))
    return {name: derived_seed(child) for name, child in zip(names, children)}


def _model_jobs(seed: int, preset: DemoPreset):
    """Seeds, dataset, labels, and the training jobs of the MC-dropout model and members."""
    if not valid_seed(seed):
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    seeds = _sub_seeds(seed)
    dataset = generate_dataset(preset.kind, preset.n_points, preset.noise, seeds["data"])
    labels = LabelSet(dataset.test_ids, dataset.test_y)

    mcd_spec = MlpSpec(
        layer_widths=(2, *MCD_HIDDEN, 2),
        dropout_rate=DROPOUT_RATE,
        seed=seeds["mcd_train"],
    )
    config = TrainConfig(epochs=preset.epochs, batch_size=BATCH_SIZE, seed=seeds["mcd_train"])
    ensemble_spec = EnsembleSpec(
        member_count=preset.ensemble_members,
        dropout_rate=DROPOUT_RATE,
        master_seed=seeds["ensemble"],
    )
    train = (dataset.train_x, dataset.train_y)
    jobs = [(mcd_spec, config, *train), *_ensemble_jobs(ensemble_spec, config, train)]
    return seeds, dataset, labels, jobs


def _predictions(dataset, seeds: dict, preset: DemoPreset, mcd_model: Mlp, members: list[Mlp]):
    """Each scheme's prediction tensor and aggregation scheme on the test split."""
    test_x, test_ids = dataset.test_x, dataset.test_ids
    mcd_tensor = mc_dropout_predict(mcd_model, test_x, preset.mcd_passes,
                                    seeds["mcd_passes"], test_ids)
    ens_tensor = ensemble_predict(members, test_x, test_ids)
    emcd_tensor, emcd_sch = emcd_predict(members, test_x, preset.emcd_passes_per_member,
                                         seeds["emcd_passes"], test_ids)

    tensors = {"mcd": mcd_tensor, "ensemble": ens_tensor, "emcd": emcd_tensor}
    schemes = {"mcd": MCD, "ensemble": ENSEMBLE, "emcd": emcd_sch}
    return tensors, schemes


def build_demo_models(seed: int, preset: DemoPreset = DemoPreset()):
    """Dataset, labels, trained models, and each scheme's tensor and aggregation scheme."""
    seeds, dataset, labels, jobs = _model_jobs(seed, preset)
    mcd_model, *members = _map_jobs(_train_job, jobs)
    tensors, schemes = _predictions(dataset, seeds, preset, mcd_model, members)
    return dataset, labels, tensors, schemes, seeds, (mcd_model, members)


def _comparison_jobs(dataset, seed: int, preset: DemoPreset, first: int) -> list[tuple]:
    """The backbone's job, then each run's warm-start and cold-start head jobs.

    The jobs will stand at index ``first`` onwards of a job list, so each
    warm-start head names the backbone's job, ``first``, as its ``init``.
    Every head trains on its run's bootstrap resample of the train split and
    is seeded with its run seed.
    """
    train_x, train_y = dataset.train_x, dataset.train_y
    head_widths = (2, *COMPARE_HEAD_HIDDEN, 2)
    seqs = np.random.SeedSequence(seed).spawn(preset.compare_runs + 1)

    backbone_seed = derived_seed(seqs[0])
    jobs = [(MlpSpec(head_widths, dropout_rate=0.0, seed=backbone_seed),
             TrainConfig(epochs=preset.compare_pretrain_epochs, batch_size=BATCH_SIZE,
                         seed=backbone_seed),
             train_x, train_y)]
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
        jobs += [(*head, first), head]
    return jobs


def _comparison_runs(heads: list[Mlp], dataset, labels: LabelSet):
    """The warm-start and the cold-start runs, ``(run seed, summaries, labels)`` each.

    ``heads`` alternate warm and cold, run by run, as :func:`_comparison_jobs` lists them.
    """
    def evaluate(model: Mlp):
        tensor = ensemble_predict([model], dataset.test_x, dataset.test_ids)
        return (model.spec.seed, aggregate(tensor, MCD), labels)

    return [evaluate(m) for m in heads[0::2]], [evaluate(m) for m in heads[1::2]]


def evaluate_demo(seed: int, preset: DemoPreset = DemoPreset(), log_base: str = "2",
                  threshold: float = DEFAULT_THRESHOLD):
    """All analyses of one demo run, as plain data (no files).

    The MC-dropout model, the ensemble members and the comparison's backbone
    and heads all train in one :func:`_map_jobs` call.
    """
    seeds, dataset, labels, jobs = _model_jobs(seed, preset)
    n_models = len(jobs)
    jobs += _comparison_jobs(dataset, seeds["compare"], preset, n_models)
    trained = _map_jobs(_train_job, jobs)
    mcd_model, *members = trained[:n_models]
    tensors, schemes = _predictions(dataset, seeds, preset, mcd_model, members)
    summaries = {name: aggregate(tensors[name], schemes[name], log_base) for name in SCHEME_KINDS}
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
    # the backbone, trained[n_models], only seeds the warm-start heads
    runs_warm, runs_cold = _comparison_runs(trained[n_models + 1:], dataset, labels)
    comparison = compare_models(runs_warm, runs_cold)
    report = {
        "seed": seed,
        "derived_seeds": seeds,
        "threshold": threshold,
        "log_base": log_base,
        "schemes": per_scheme,
        "comparison": {"variant_a": VARIANTS[0], "variant_b": VARIANTS[1],
                       **comparison_as_dict(comparison)},
    }
    result = DemoResult(dataset, labels, tensors, summaries, report, sweeps, calibrations,
                        separations)
    return result, comparison


def write_demo_data(dataset, labels: LabelSet, tensors: dict, out: Path, digest: str) -> None:
    """``dataset.csv``, ``labels.csv`` and each scheme's ``predictions_{scheme}.csv``."""
    stamp = f"manifest_digest={digest}"
    save_dataset(dataset, out / "dataset.csv", header_comment=stamp)
    save_labels(labels, out / "labels.csv", header_comment=stamp)
    for name in SCHEME_KINDS:
        save_predictions(tensors[name], out / f"predictions_{name}.csv", header_comment=stamp)


def write_comparison(comparison, sides, out: Path, digest: str) -> None:
    """``comparison_values.csv`` and one violin plot per metric, its two groups named ``sides``."""
    write_artifact(out / "comparison_values.csv", comparison_values_csv(comparison),
                   f"manifest_digest={digest}")
    for metric, cmp in comparison.items():
        groups = dict(zip(sides, (cmp.a.values, cmp.b.values)))
        write_artifact(out / f"comparison_{metric}.svg", violin_svg(groups, metric, digest))


def write_demo_artifacts(result: DemoResult, comparison, out_dir, digest: str) -> None:
    """Write the declared artifact files plus labels, the comparison values and plots."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stamp = f"manifest_digest={digest}"
    write_demo_data(result.dataset, result.labels, result.tensors, out, digest)
    for name in SCHEME_KINDS:
        save_summaries(result.summaries[name], out / f"summaries_{name}.csv",
                       header_comment=stamp)

    save_sweep({name: result.sweeps[name] for name in SCHEME_KINDS}, out / "sweep.csv",
               header_comment=stamp)

    write_artifact(out / "report.json", canonical_json({**result.report, "manifest_digest": digest}))

    for name in SCHEME_KINDS:
        write_artifact(out / f"sweep_{name}.svg", sweep_svg(result.sweeps[name], digest))
        write_artifact(out / f"reliability_{name}.svg",
                       reliability_svg(result.calibrations[name], digest))
        write_artifact(out / f"separation_{name}.svg",
                       separation_svg(result.separations[name], digest))

    write_comparison(comparison, VARIANTS, out, digest)


def run_demo(seed: int, out_dir, preset: DemoPreset = DemoPreset()) -> DemoResult:
    """Full pipeline into ``out_dir``, with base-2 entropies and the digest ``none``."""
    result, comparison = evaluate_demo(seed, preset)
    write_demo_artifacts(result, comparison, out_dir, "none")
    return result
