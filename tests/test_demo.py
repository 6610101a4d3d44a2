import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from uqeval.cli import main
from uqeval.demo import DEMO_ARTIFACTS, QUICK_PRESET, build_demo_models, evaluate_demo, run_demo
from uqeval.errors import ValidationError
from uqeval.tensor import load_predictions

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
                values = [getattr(p, metric) for p in curve if getattr(p, metric) is not None]
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
    # the flat-buffer engine trains the same weights bit for bit, so every
    # declared artifact matches the one written with the list engine
    run_demo(7, tmp_path / "flat", QUICK_PRESET)
    monkeypatch.setattr("uqeval.models.fit_adam", oracle.fit_adam)
    run_demo(7, tmp_path / "list", QUICK_PRESET)
    for name in DEMO_ARTIFACTS:
        assert (tmp_path / "flat" / name).read_bytes() == (tmp_path / "list" / name).read_bytes(), name


def test_train_demo_writes_the_demos_data_files(tmp_path):
    # train-demo with the quick preset's sizes writes what demo --quick writes
    q = QUICK_PRESET
    assert main(["demo", "--quick", "--seed", "5", "--out", str(tmp_path / "demo")]) == 0
    assert main([
        "train-demo", "--kind", q.kind, "--n", str(q.n_points), "--noise", str(q.noise),
        "--epochs", str(q.epochs), "--passes", str(q.mcd_passes),
        "--members", str(q.ensemble_members), "--passes-per-member", str(q.emcd_passes_per_member),
        "--seed", "5", "--out", str(tmp_path / "train"),
    ]) == 0
    names = ["dataset.csv", "labels.csv",
             "predictions_mcd.csv", "predictions_ensemble.csv", "predictions_emcd.csv"]
    for name in names:
        demo = (tmp_path / "demo" / name).read_bytes().split(b"\n", 1)
        train = (tmp_path / "train" / name).read_bytes().split(b"\n", 1)
        assert demo[0].startswith(b"# manifest_digest=") and train[0].startswith(b"# manifest_digest=")
        assert demo[1] == train[1], name


@pytest.mark.parametrize("seed", [-1, 2.0, 1.5, True, "3", None])
@pytest.mark.parametrize("entry", ["build_demo_models", "evaluate_demo", "run_demo"])
def test_library_entry_points_reject_a_bad_seed(entry, seed, tmp_path):
    calls = {
        "build_demo_models": lambda: build_demo_models(seed, QUICK_PRESET),
        "evaluate_demo": lambda: evaluate_demo(seed, QUICK_PRESET),
        "run_demo": lambda: run_demo(seed, tmp_path / "out", QUICK_PRESET),
    }
    with pytest.raises(ValidationError, match=f"seed must be a non-negative integer, got {seed!r}"):
        calls[entry]()
    assert not (tmp_path / "out").exists()
