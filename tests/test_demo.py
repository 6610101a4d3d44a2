import json
import re
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from uqeval.cli import main
from uqeval.aggregate import SCHEME_KINDS
from uqeval.demo import (DEMO_ARTIFACTS, MCD_HIDDEN, QUICK_PRESET, _comparison_heads,
                         build_demo_models, evaluate_demo)
from uqeval.errors import ValidationError
from uqeval.models import EnsembleSpec, _ensemble_jobs, _map_jobs, _train_job
from uqeval.tensor import load_labels, load_predictions, save_predictions

import scalar_oracles as oracle


@pytest.fixture(scope="module")
def quick_demo_dir(tmp_path_factory):
    import time

    out = tmp_path_factory.mktemp("demo")
    start = time.perf_counter()
    code = main(["demo", "--quick", "--seed", "3", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 60.0  # half the full-demo runtime budget
    return out


class TestArtifacts:
    def test_all_declared_files_present(self, quick_demo_dir):
        for name in DEMO_ARTIFACTS:
            assert (quick_demo_dir / name).exists(), name
        assert (quick_demo_dir / "manifest.json").exists()

    def test_report_structure(self, quick_demo_dir):
        report = json.loads((quick_demo_dir / "report.json").read_text())
        assert set(report["schemes"]) == {"mcd", "ensemble", "emcd"}
        for block in report["schemes"].values():
            assert set(block) >= {"ucm", "calibration", "separation", "point"}
            assert block["ucm"]["threshold"] == 0.3
        assert report["comparison"]["accuracy"]["df"] == QUICK_PRESET.compare_runs - 1
        assert report["manifest_digest"].startswith("sha256:")

    def test_predictions_reload(self, quick_demo_dir):
        tensor = load_predictions(quick_demo_dir / "predictions_emcd.csv")
        assert tensor.n_passes == (
            QUICK_PRESET.ensemble_members * QUICK_PRESET.emcd_passes_per_member
        )

    def test_sweep_has_all_schemes(self, quick_demo_dir):
        lines = [
            line for line in (quick_demo_dir / "sweep.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert lines[0].startswith("scheme,threshold")
        schemes = {line.split(",")[0] for line in lines[1:]}
        assert schemes == {"mcd", "ensemble", "emcd"}
        assert len(lines) == 1 + 3 * 9

    def test_cli_reaggregation_matches_emitted_summaries(self, quick_demo_dir, tmp_path):
        # re-running aggregate on the emitted predictions reproduces the
        # emitted summaries up to the 9-significant-digit file rendering
        from uqeval import load_summaries

        k = QUICK_PRESET.ensemble_members
        t = QUICK_PRESET.emcd_passes_per_member
        code = main([
            "aggregate", "--in", str(quick_demo_dir / "predictions_emcd.csv"),
            "--scheme", "emcd", "--partition", f"{k}x{t}", "--out", str(tmp_path),
        ])
        assert code == 0
        again = load_summaries(tmp_path / "summaries.csv")
        emitted = load_summaries(quick_demo_dir / "summaries_emcd.csv")
        assert again.sample_ids == emitted.sample_ids
        assert np.max(np.abs(again.means - emitted.means)) < 1e-8
        assert np.max(np.abs(again.entropy - emitted.entropy)) < 1e-7

    def test_svgs_are_valid_xml(self, quick_demo_dir):
        manifest = json.loads((quick_demo_dir / "manifest.json").read_text())
        for path in quick_demo_dir.glob("*.svg"):
            root = ET.fromstring(path.read_text())
            assert root.get("viewBox") is not None
            ns = "{http://www.w3.org/2000/svg}"
            metadata = root.find(f"{ns}metadata")
            assert metadata is not None
            assert manifest["digest"] in metadata.text


class TestDemoFindings:
    def test_uacc_upre_rank_correlate_positively_with_threshold(self, demo_run):
        # empirical pattern on the demo, not a theorem: check the sign only
        result, _ = demo_run
        for name, curve in result.sweeps.items():
            for metric in ("uacc", "upre"):
                values = [v for p in curve if (v := getattr(p.ucm, metric)) is not None]
                ranks = np.argsort(np.argsort(values))
                thr_ranks = np.arange(len(values))
                rho = np.corrcoef(ranks, thr_ranks)[0, 1]
                assert rho > 0, (name, metric)

    def test_high_usen_at_operating_point(self, demo_run):
        result, _ = demo_run
        for name, block in result.report["schemes"].items():
            assert block["ucm"]["usen"] >= 0.6, name

    def test_comparison_favours_warm_start(self, demo_run):
        result, _ = demo_run
        cmp = result.report["comparison"]
        assert cmp["accuracy"]["mean_a"] >= cmp["accuracy"]["mean_b"]
        assert 0.0 <= cmp["accuracy"]["p"] <= 1.0


def test_flat_engine_artifacts_match_list_engine(tmp_path, monkeypatch):
    # the stacked flat-buffer engine trains the same weights bit for bit, so
    # every declared artifact matches the one written with every model trained
    # alone by the list engine
    assert main(["demo", "--quick", "--seed", "7", "--out", str(tmp_path / "flat")]) == 0
    monkeypatch.setattr("uqeval.models._train_stack", oracle.train_stack)
    monkeypatch.setattr("uqeval.demo._train_stack", oracle.train_stack)
    assert main(["demo", "--quick", "--seed", "7", "--out", str(tmp_path / "list")]) == 0
    for name in DEMO_ARTIFACTS:
        assert (tmp_path / "flat" / name).read_bytes() == (tmp_path / "list" / name).read_bytes(), name


def test_json_stdout_is_the_written_report(tmp_path, capsys):
    assert main(["demo", "--quick", "--seed", "3", "--format", "json",
                 "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out == (tmp_path / "report.json").read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", [-1, 2.0, 1.5, True, "3", None])
@pytest.mark.parametrize("entry", ["build_demo_models", "evaluate_demo"])
def test_library_entry_points_reject_a_bad_seed(entry, seed):
    calls = {
        "build_demo_models": lambda: build_demo_models(seed, QUICK_PRESET),
        "evaluate_demo": lambda: evaluate_demo(seed, QUICK_PRESET),
    }
    with pytest.raises(ValidationError, match=f"seed must be a non-negative integer, got {seed!r}"):
        calls[entry]()


def test_build_demo_models_makes_what_the_demo_writes(quick_demo_dir, tmp_path):
    # the seeds, labels and tensors the demo's artifacts hold; the comparison
    # heads come warm and cold, run by run
    seeds, dataset, labels, tensors, schemes, heads = build_demo_models(3, QUICK_PRESET)
    report = json.loads((quick_demo_dir / "report.json").read_text())
    assert seeds == report["derived_seeds"]
    written_labels = load_labels(quick_demo_dir / "labels.csv")
    assert tuple(labels.sample_ids) == tuple(written_labels.sample_ids) == tuple(dataset.test_ids)
    assert np.array_equal(labels.labels, written_labels.labels)
    assert set(tensors) == set(schemes) == set(SCHEME_KINDS)
    for name in SCHEME_KINDS:
        save_predictions(tensors[name], tmp_path / f"{name}.csv")
        built = load_predictions(tmp_path / f"{name}.csv")
        written = load_predictions(quick_demo_dir / f"predictions_{name}.csv")
        assert tuple(built.sample_ids) == tuple(written.sample_ids), name
        assert np.array_equal(built.probs, written.probs), name
    assert len(heads) == 2 * QUICK_PRESET.compare_runs


def test_every_model_trains_in_one_map_of_ordered_jobs(monkeypatch):
    # the comparison, then the MC-dropout network, then the ensemble members
    calls = []

    def recorded(jobs):
        calls.append(jobs)
        return _map_jobs(jobs)

    monkeypatch.setattr("uqeval.demo._map_jobs", recorded)
    result, _ = evaluate_demo(7, QUICK_PRESET)
    (jobs,) = calls
    seeds = result.report["derived_seeds"]
    comparison, mcd, *members = jobs
    assert comparison[0] is _comparison_heads and comparison[2] == seeds["compare"]
    assert mcd[0] is _train_job
    assert mcd[1].layer_widths == (2, *MCD_HIDDEN, 2) and mcd[1].seed == seeds["mcd_train"]
    ensemble = EnsembleSpec(QUICK_PRESET.ensemble_members, seeds["ensemble"])
    expected = _ensemble_jobs(ensemble, mcd[2], mcd[3:])
    assert len(members) == QUICK_PRESET.ensemble_members
    assert [job[:3] for job in members] == [job[:3] for job in expected]


# a preset value no demo can run with, and the error it gives
UNRUNNABLE_PRESETS = {
    "mcd_passes": (0, "need at least one forward pass"),
    "emcd_passes_per_member": (0, "need at least one pass per member"),
    "compare_runs": (1, "paired test needs at least 2 runs"),
    "compare_pretrain_epochs": (0, "need at least one epoch"),
    "compare_head_epochs": (0, "need at least one epoch"),
}


@pytest.fixture
def no_training(monkeypatch):
    def untrained(*args):
        raise AssertionError("a model trained")

    monkeypatch.setattr("uqeval.demo._map_jobs", untrained)


@pytest.mark.parametrize("field", list(UNRUNNABLE_PRESETS))
def test_unrunnable_preset_rejected_before_training(field, no_training):
    value, message = UNRUNNABLE_PRESETS[field]
    for bad in (value, -1):
        with pytest.raises(ValidationError, match=message):
            evaluate_demo(0, replace(QUICK_PRESET, **{field: bad}))


@pytest.mark.parametrize("setting, message", [
    ({"threshold": 1.5}, "threshold 1.5 outside [0, 1]"),
    ({"threshold": float("nan")}, "threshold nan is not a finite number"),
    ({"threshold": "0.3"}, "threshold '0.3' is not a finite number"),
])
def test_threshold_checked_before_training(setting, message, no_training, tmp_path):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        evaluate_demo(0, QUICK_PRESET, **setting)


PRESET_COUNTS = ["n_points", "epochs", "mcd_passes", "ensemble_members", "emcd_passes_per_member",
                 "compare_runs", "compare_pretrain_epochs", "compare_head_epochs"]


@pytest.mark.parametrize("value", [2.5, 6.0, True, "6", None])
@pytest.mark.parametrize("field", PRESET_COUNTS)
def test_preset_counts_must_be_integers(field, value):
    with pytest.raises(ValidationError, match=f"{field} must be an integer, got {value!r}"):
        replace(QUICK_PRESET, **{field: value})
