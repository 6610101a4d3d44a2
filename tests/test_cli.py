import argparse
import ast
import dataclasses
import hashlib
import importlib.util
import json
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import uqeval
from uqeval import (
    MCD,
    aggregate,
    build_ucm,
    calibration_report,
    load_summaries,
    save_labels,
    save_predictions,
    save_summaries,
    separation_report,
    threshold_sweep,
)
from uqeval.aggregate import emcd_scheme
from uqeval.cli import build_parser, main, _parse_grid
from uqeval.demo import DEFAULT_GRID, QUICK_PRESET, DemoPreset
from uqeval.errors import ValidationError
from uqeval.manifest import canonical_json
from uqeval.tensor import LabelSet, PredictionTensor
from uqeval.ucm import SWEEP_HEADER

from conftest import random_prob_rows
from scalar_oracles import quantize_probs


@pytest.fixture()
def workdir(tmp_path):
    rng = np.random.default_rng(55)
    probs = quantize_probs(random_prob_rows(rng, 120, 2)).reshape(20, 6, 2)
    ids = tuple(f"s{i}" for i in range(20))
    tensor = PredictionTensor(probs, ids)
    save_predictions(tensor, tmp_path / "p.csv")
    labels = LabelSet(ids, rng.integers(0, 2, 20))
    save_labels(labels, tmp_path / "l.csv")
    return tmp_path, tensor, labels


def run_cli(args):
    return main([str(a) for a in args])


def subparsers() -> dict:
    """Each subcommand's parser, by name."""
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def design_counts():
    """``scripts/design_counts.py``, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "design_counts", Path(__file__).resolve().parents[1] / "scripts" / "design_counts.py")
    counts = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(counts)
    return counts


def options(parser) -> dict:
    """A parser's flags, by destination, without ``--help``."""
    return {a.dest: a.option_strings for a in parser._actions
            if a.option_strings and a.dest != "help"}


SEEDLESS = {"aggregate", "evaluate", "sweep", "ece", "separate", "compare"}


class TestAggregateCommand:
    def test_mcd_matches_library(self, workdir):
        tmp, tensor, _ = workdir
        assert run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp / "agg"]) == 0
        got = load_summaries(tmp / "agg" / "summaries.csv")
        expected = aggregate(tensor, MCD, "2")
        assert np.array_equal(got.means, expected.means)
        assert np.array_equal(got.entropy, expected.entropy)

    def test_emcd_partition_matches_library(self, workdir):
        tmp, tensor, _ = workdir
        code = run_cli([
            "aggregate", "--in", tmp / "p.csv", "--scheme", "emcd",
            "--partition", "2x3", "--out", tmp / "agg2",
        ])
        assert code == 0
        got = load_summaries(tmp / "agg2" / "summaries.csv")
        expected = aggregate(tensor, emcd_scheme((3, 3)), "2")
        assert np.array_equal(got.means, expected.means)

    def test_unknown_scheme_is_usage_error(self, workdir, capsys):
        tmp, _, _ = workdir
        with pytest.raises(SystemExit) as info:
            run_cli(["aggregate", "--in", tmp / "p.csv", "--scheme", "bogus"])
        assert info.value.code == 2

    def test_missing_file_is_failure(self, tmp_path):
        assert run_cli(["aggregate", "--in", tmp_path / "nope.csv"]) == 1

    def test_two_pass_example(self, tmp_path):
        (tmp_path / "p.csv").write_text(
            "sample_id,pass_id,p_0,p_1\ns0,0,0.6,0.4\ns0,1,0.8,0.2\n"
        )
        assert run_cli(["aggregate", "--in", tmp_path / "p.csv", "--out", tmp_path]) == 0
        summary = load_summaries(tmp_path / "summaries.csv")
        assert len(summary) == 1
        assert np.allclose(summary.means[0], [0.7, 0.3], atol=1e-12)

    def test_renormalize_flag(self, tmp_path):
        (tmp_path / "p.csv").write_text(
            "sample_id,pass_id,p_0,p_1\ns0,0,0.6995,0.2999\n"
        )
        assert run_cli(["aggregate", "--in", tmp_path / "p.csv", "--out", tmp_path]) == 1
        assert run_cli([
            "aggregate", "--in", tmp_path / "p.csv", "--renormalize", "--out", tmp_path,
        ]) == 0
        summary = load_summaries(tmp_path / "summaries.csv")
        assert len(summary) == 1
        assert abs(summary.means[0].sum() - 1.0) <= 1e-12

    def test_natural_log_base(self, workdir):
        import math

        tmp, tensor, _ = workdir
        assert run_cli([
            "aggregate", "--in", tmp / "p.csv", "--log-base", "e", "--out", tmp / "ln",
        ]) == 0
        s = load_summaries(tmp / "ln" / "summaries.csv")
        assert np.all(np.abs(s.normalized_entropy - s.entropy / math.log(2)) <= 1e-12)
        assert np.all((0.0 <= s.normalized_entropy) & (s.normalized_entropy <= 1.0))

    def test_malformed_runs_index_is_failure(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "runs.json").write_text('{"runs": []}')
        for text in ("{not json", "[]",
                     '{"runs": [{"seed": 0, "summaries": 5, "labels": "l.csv"}]}'):
            (tmp_path / "a" / "runs.json").write_text(text)
            assert run_cli(["compare", "--a", tmp_path / "a", "--b", tmp_path / "b",
                            "--out", tmp_path / "c"]) == 1
            assert "runs.json: malformed run index: " in capsys.readouterr().err

    def test_mcd_rejects_partition(self, workdir, capsys):
        tmp, _, _ = workdir
        code = run_cli(["aggregate", "--in", tmp / "p.csv", "--scheme", "mcd",
                        "--partition", "3x2", "--out", tmp / "agg3"])
        assert code == 1
        assert "mcd does not take member_pass_counts" in capsys.readouterr().err
        assert not (tmp / "agg3").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--scheme", "emcd"], "emcd needs --partition (KxT or comma list)"),
        (["--scheme", "emcd", "--partition", "2xthree"], "bad partition '2xthree'"),
        (["--scheme", "emcd", "--partition", "3,,2"], "bad partition '3,,2'"),
    ], ids=["emcd without partition", "bad KxT", "bad comma list"])
    def test_partition_checked_before_the_input_is_read(self, workdir, monkeypatch, capsys,
                                                         flags, message):
        tmp, _, _ = workdir

        def unread(*args, **kwargs):
            raise AssertionError("the predictions file was read")

        monkeypatch.setattr("uqeval.cli.load_predictions", unread)
        code = run_cli(["aggregate", "--in", tmp / "p.csv", *flags, "--out", tmp / "bad"])
        assert code == 1
        assert f"uqeval: error: {message}" in capsys.readouterr().err
        assert not (tmp / "bad").exists()


class TestEvaluateCommand:
    def test_matches_library(self, workdir, capsys):
        tmp, tensor, labels = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        capsys.readouterr()
        code = run_cli([
            "evaluate", "--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv",
            "--threshold", "0.3", "--format", "json", "--out", tmp,
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        expected = build_ucm(load_summaries(tmp / "summaries.csv"), labels, 0.3)
        assert payload["counts"] == {
            "tc": expected.tc, "tu": expected.tu, "fu": expected.fu, "fc": expected.fc,
        }
        on_disk = json.loads((tmp / "ucm.json").read_text())
        assert on_disk["counts"] == payload["counts"]

    def test_csv_threshold_is_the_one_in_ucm_json(self, workdir, capsys):
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        capsys.readouterr()
        code = run_cli([
            "evaluate", "--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv",
            "--threshold", "0.1234567", "--format", "csv", "--out", tmp,
        ])
        assert code == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header == SWEEP_HEADER
        assert row.split(",")[0] == "0.1234567"
        assert json.loads((tmp / "ucm.json").read_text())["threshold"] == 0.1234567

    def test_csv_threshold_keeps_every_digit(self, workdir, capsys):
        # 14 significant digits, which a 12-digit rendering would cut
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        capsys.readouterr()
        assert run_cli([
            "evaluate", "--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv",
            "--threshold", "0.12345678901234", "--format", "csv", "--out", tmp,
        ]) == 0
        _, row = capsys.readouterr().out.splitlines()
        assert row.split(",")[0] == "0.12345678901234"
        assert json.loads((tmp / "ucm.json").read_text())["threshold"] == 0.12345678901234

    def test_threshold_out_of_range_is_failure(self, workdir):
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        code = run_cli([
            "evaluate", "--summaries", tmp / "summaries.csv",
            "--labels", tmp / "l.csv", "--threshold", "1.5",
        ])
        assert code == 1

    def test_perfect_certain_renders_na(self, tmp_path, capsys):
        (tmp_path / "p.csv").write_text(
            "sample_id,pass_id,p_0,p_1\ns0,0,0.99,0.01\ns1,0,0.98,0.02\n"
        )
        (tmp_path / "l.csv").write_text("sample_id,label\ns0,0\ns1,0\n")
        run_cli(["aggregate", "--in", tmp_path / "p.csv", "--out", tmp_path])
        capsys.readouterr()
        code = run_cli([
            "evaluate", "--summaries", tmp_path / "summaries.csv",
            "--labels", tmp_path / "l.csv", "--threshold", "0.9",
            "--format", "json", "--out", tmp_path,
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["uacc"] == 1.0
        assert payload["usen"] is None
        text = (tmp_path / "ucm.json").read_text()
        assert '"usen": null' in text


class TestSweepCommand:
    def test_default_grid_nine_rows(self, workdir):
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        assert run_cli([
            "sweep", "--summaries", tmp / "summaries.csv",
            "--labels", tmp / "l.csv", "--out", tmp / "sw",
        ]) == 0
        lines = [
            line for line in (tmp / "sw" / "sweep.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert lines[0] == "threshold,tc,tu,fu,fc,uacc,usen,uspe,upre"
        assert len(lines) == 10

    def test_dense_grid_101_rows(self, workdir):
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        run_cli([
            "sweep", "--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv",
            "--grid", "0:0.01:1", "--out", tmp / "sw2",
        ])
        lines = [
            line for line in (tmp / "sw2" / "sweep.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(lines) == 102

    def test_raw_thresholds_keep_every_digit(self, workdir):
        # a raw-entropy grid may start above 1, where 12 digits cut 1.123456789012
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        assert run_cli([
            "sweep", "--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv",
            "--normalize-entropy", "false", "--grid", "1.123456789012:0.5:2", "--out", tmp / "sw",
        ]) == 0
        rows = (tmp / "sw" / "sweep.csv").read_text().splitlines()[2:]
        points = json.loads((tmp / "sw" / "sweep.json").read_text())["points"]
        assert [row.split(",")[0] for row in rows] == ["1.123456789012", "1.623456789012"]
        assert [float(row.split(",")[0]) for row in rows] == [p["threshold"] for p in points]

    def test_matches_library(self, workdir):
        tmp, _, labels = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        run_cli([
            "sweep", "--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv",
            "--out", tmp / "sw3",
        ])
        summaries = load_summaries(tmp / "summaries.csv")
        curve = threshold_sweep(summaries, labels, [round(0.1 * k, 12) for k in range(1, 10)])
        lines = [
            line for line in (tmp / "sw3" / "sweep.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ][1:]
        for line, point in zip(lines, curve):
            cells = line.split(",")
            assert [int(c) for c in cells[1:5]] == [
                point.ucm.tc, point.ucm.tu, point.ucm.fu, point.ucm.fc,
            ]

    def test_svg_one_polyline_per_metric(self, workdir):
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        run_cli([
            "sweep", "--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv",
            "--out", tmp / "sw4",
        ])
        root = ET.fromstring((tmp / "sw4" / "sweep.svg").read_text())
        ns = "{http://www.w3.org/2000/svg}"
        polylines = root.findall(f".//{ns}polyline")
        assert len(polylines) == 4
        assert root.get("viewBox") is not None
        texts = [t.text for t in root.findall(f".//{ns}text")]
        assert "threshold" in texts

    def test_grid_parsing(self):
        assert _parse_grid("0.1:0.1:0.9") == [pytest.approx(0.1 * k) for k in range(1, 10)]
        assert len(_parse_grid("0:0.01:1")) == 101
        with pytest.raises(ValidationError):
            _parse_grid("0.5:0:0.9")
        with pytest.raises(ValidationError):
            _parse_grid("nonsense")
        for text in ("nan:0.1:1", "0:nan:1", "0:0.1:inf", "0:inf:1", "-inf:0.1:0"):
            with pytest.raises(ValidationError, match="finite"):
                _parse_grid(text)

    def test_default_grid_is_the_demo_grid(self):
        # the flag's default text is recorded in every sweep manifest, so it stays text
        default = subparsers()["sweep"].get_default("grid")
        assert _parse_grid(default) == list(DEFAULT_GRID)

    def test_non_finite_grid_is_failure(self, workdir, capsys):
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        assert run_cli(["sweep", "--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv",
                        "--grid", "nan:0.1:1", "--out", tmp / "sw5"]) == 1
        assert "uqeval: error: bad grid 'nan:0.1:1'" in capsys.readouterr().err


class TestEceCommand:
    def test_single_bin_worked_example(self, tmp_path, capsys):
        rows = ["sample_id,pass_id,p_0,p_1"]
        label_rows = ["sample_id,label"]
        for i in range(10):
            rows.append(f"s{i},0,0.2,0.8")
            label_rows.append(f"s{i},{1 if i < 5 else 0}")
        (tmp_path / "p.csv").write_text("\n".join(rows) + "\n")
        (tmp_path / "l.csv").write_text("\n".join(label_rows) + "\n")
        run_cli(["aggregate", "--in", tmp_path / "p.csv", "--out", tmp_path])
        code = run_cli([
            "ece", "--summaries", tmp_path / "summaries.csv",
            "--labels", tmp_path / "l.csv", "--bins", "1",
            "--format", "json", "--out", tmp_path,
        ])
        assert code == 0
        payload = json.loads((tmp_path / "calibration.json").read_text())
        assert payload["ece"] == pytest.approx(0.3, abs=1e-12)
        assert payload["M"] == 1

    def test_default_bins_match_library(self, workdir):
        tmp, _, labels = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        run_cli([
            "ece", "--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv",
            "--out", tmp / "cal",
        ])
        payload = json.loads((tmp / "cal" / "calibration.json").read_text())
        expected = calibration_report(load_summaries(tmp / "summaries.csv"), labels, 10)
        assert payload["ece"] == expected.ece
        root = ET.fromstring((tmp / "cal" / "reliability.svg").read_text())
        assert root.get("viewBox") is not None
        # bars only for nonempty bins (plus the background rect)
        ns = "{http://www.w3.org/2000/svg}"
        rects = root.findall(f".//{ns}rect")
        nonempty = sum(1 for b in expected.bins if b.count > 0)
        assert len(rects) == nonempty + 1


class TestSeparateCommand:
    def test_matches_library(self, workdir, capsys):
        tmp, _, labels = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        code = run_cli([
            "separate", "--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv",
            "--format", "json", "--out", tmp / "sep",
        ])
        assert code == 0
        payload = json.loads((tmp / "sep" / "separation.json").read_text())
        expected = separation_report(load_summaries(tmp / "summaries.csv"), labels)
        assert payload["correct"]["mean"] == expected.correct_mean
        assert payload["incorrect"]["mean"] == expected.incorrect_mean


def write_run_dir(path, runs):
    path.mkdir(parents=True, exist_ok=True)
    index = []
    for i, (seed, tensor, labels) in enumerate(runs):
        s_name = f"run_{i}_summaries.csv"
        l_name = f"run_{i}_labels.csv"
        from uqeval import save_summaries

        save_summaries(aggregate(tensor, MCD, "2"), path / s_name)
        save_labels(labels, path / l_name)
        index.append({"seed": seed, "summaries": s_name, "labels": l_name})
    (path / "runs.json").write_text(canonical_json({"runs": index}))


def make_runs(rng, n_runs, n_samples=16):
    runs = []
    for seed in range(n_runs):
        probs = quantize_probs(random_prob_rows(rng, n_samples * 2, 2)).reshape(n_samples, 2, 2)
        ids = tuple(f"s{i}" for i in range(n_samples))
        truth = rng.integers(0, 2, n_samples)
        if truth.min() == truth.max():
            truth[0] = 1 - truth[0]
        runs.append((seed, PredictionTensor(probs, ids), LabelSet(ids, truth)))
    return runs


class TestCompareCommand:
    def test_identical_dirs_p_one(self, tmp_path, capsys):
        rng = np.random.default_rng(66)
        runs = make_runs(rng, 4)
        write_run_dir(tmp_path / "a", runs)
        write_run_dir(tmp_path / "b", runs)
        code = run_cli([
            "compare", "--a", tmp_path / "a", "--b", tmp_path / "b",
            "--format", "json", "--out", tmp_path / "cmp",
        ])
        assert code == 0
        payload = json.loads((tmp_path / "cmp" / "comparison.json").read_text())
        assert payload["accuracy"]["p"] == 1.0
        assert payload["accuracy"]["degenerate"] is True
        root = ET.fromstring((tmp_path / "cmp" / "comparison_accuracy.svg").read_text())
        assert root.get("viewBox") is not None

    def test_digest_covers_every_run_file(self, tmp_path):
        rng = np.random.default_rng(69)
        write_run_dir(tmp_path / "a", make_runs(rng, 3))
        write_run_dir(tmp_path / "b", make_runs(rng, 3))
        args = ["compare", "--a", tmp_path / "a", "--b", tmp_path / "b", "--out", tmp_path / "c"]
        manifest = tmp_path / "c" / "manifest.json"
        assert run_cli(args) == 0
        before = json.loads(manifest.read_text())["digest"]
        _, tensor, _ = make_runs(rng, 1)[0]
        save_summaries(aggregate(tensor, MCD, "2"), tmp_path / "a" / "run_1_summaries.csv")
        assert run_cli(args) == 0
        assert json.loads(manifest.read_text())["digest"] != before

    @pytest.mark.parametrize("seed", [1.7, True, "3"], ids=["float", "bool", "string"])
    def test_seed_of_another_type_is_malformed(self, tmp_path, capsys, seed):
        runs = make_runs(np.random.default_rng(71), 2)
        runs[1] = (seed, *runs[1][1:])
        write_run_dir(tmp_path / "a", runs)
        write_run_dir(tmp_path / "b", runs)
        assert run_cli(["compare", "--a", tmp_path / "a", "--b", tmp_path / "b",
                        "--out", tmp_path / "cmp"]) == 1
        assert capsys.readouterr().err.endswith(
            f"runs.json: malformed run index: seed must be an integer, got {json.dumps(seed)}\n")
        assert not (tmp_path / "cmp").exists()

    def test_mismatched_run_counts_fail(self, tmp_path):
        rng = np.random.default_rng(67)
        write_run_dir(tmp_path / "a", make_runs(rng, 3))
        write_run_dir(tmp_path / "b", make_runs(rng, 4))
        assert run_cli(["compare", "--a", tmp_path / "a", "--b", tmp_path / "b",
                        "--out", tmp_path / "cmp2"]) == 1


def sha256(path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


class TestManifest:
    @pytest.mark.parametrize("command", ["aggregate", "evaluate", "sweep", "ece", "separate",
                                         "compare", "demo"])
    def test_outputs_reference_manifest(self, workdir, command):
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        rng = np.random.default_rng(70)
        write_run_dir(tmp / "ra", make_runs(rng, 2))
        write_run_dir(tmp / "rb", make_runs(rng, 2))
        scored = ["--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv"]
        run_files = [d / name for d in (tmp / "ra", tmp / "rb") for name in
                     ("runs.json", "run_0_summaries.csv", "run_0_labels.csv",
                      "run_1_summaries.csv", "run_1_labels.csv")]
        args, read = {
            "aggregate": (["--in", tmp / "p.csv"], [tmp / "p.csv"]),
            "evaluate": (scored, scored[1::2]),
            "sweep": (scored, scored[1::2]),
            "ece": (scored, scored[1::2]),
            "separate": (scored, scored[1::2]),
            "compare": (["--a", tmp / "ra", "--b", tmp / "rb"], run_files),
            "demo": (["--quick"], []),
        }[command]
        out = tmp / "m"
        assert run_cli([command, *args, "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        digest = manifest["digest"]
        assert manifest["subcommand"] == command
        assert "timestamp" in manifest
        assert set(manifest["flags"]) == set(options(subparsers()[command]))
        assert (manifest["seed"] is None) == (command in SEEDLESS)
        artifacts = sorted(p for p in out.iterdir() if p.name != "manifest.json")
        assert artifacts
        for path in artifacts:
            text = path.read_text()
            if path.suffix == ".csv":
                assert text.splitlines()[0] == f"# manifest_digest={digest}", path.name
            elif path.suffix == ".json":
                assert json.loads(text)["manifest_digest"] == digest, path.name
            else:
                assert f"<metadata>manifest_digest={digest}</metadata>" in text, path.name
        inputs = manifest["inputs"].values()
        assert sorted(str(p) for p in read) == sorted(entry["path"] for entry in inputs)
        for entry in inputs:
            assert entry["digest"] == sha256(Path(entry["path"]))

    def test_rerun_byte_identical_results(self, workdir):
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp / "r1"])
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp / "r2"])
        assert (tmp / "r1" / "summaries.csv").read_bytes() == (
            tmp / "r2" / "summaries.csv"
        ).read_bytes()


class TestTextOutput:
    def test_no_ansi_codes(self, workdir, capsys):
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        capsys.readouterr()
        run_cli(["evaluate", "--summaries", tmp / "summaries.csv",
                 "--labels", tmp / "l.csv", "--out", tmp])
        out = capsys.readouterr().out
        assert out.startswith("uncertainty confusion matrix @ threshold 0.3")
        assert "\x1b[" not in out

    def test_matrix_layout(self, workdir, capsys):
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        capsys.readouterr()
        run_cli(["evaluate", "--summaries", tmp / "summaries.csv",
                 "--labels", tmp / "l.csv", "--out", tmp])
        out = capsys.readouterr().out
        assert "certain" in out and "uncertain" in out
        assert "TC" in out and "TU" in out and "FU" in out and "FC" in out
        assert "UAcc" in out


class TestCsvFormat:
    def test_compare_values_csv(self, tmp_path, capsys):
        rng = np.random.default_rng(68)
        runs = make_runs(rng, 3)
        write_run_dir(tmp_path / "a", runs)
        write_run_dir(tmp_path / "b", make_runs(rng, 3))
        code = run_cli([
            "compare", "--a", tmp_path / "a", "--b", tmp_path / "b",
            "--format", "csv", "--out", tmp_path / "c",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "metric,run_index,seed,value_a,value_b"
        assert (tmp_path / "c" / "comparison_values.csv").exists()

    def test_ece_csv_prints_reliability(self, workdir, capsys):
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        capsys.readouterr()
        run_cli([
            "ece", "--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv",
            "--format", "csv", "--out", tmp / "e",
        ])
        out = capsys.readouterr().out
        assert "bin,lo,hi,count,accuracy,confidence,gap" in out

    @pytest.mark.parametrize("command, artifact", [
        ("aggregate", "summaries.csv"), ("sweep", "sweep.csv"), ("ece", "reliability.csv"),
        ("compare", "comparison_values.csv"),
    ])
    def test_csv_view_is_the_artifact_without_its_stamp(self, workdir, capsys, command,
                                                        artifact):
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        rng = np.random.default_rng(72)
        write_run_dir(tmp / "ra", make_runs(rng, 2))
        write_run_dir(tmp / "rb", make_runs(rng, 2))
        args = {
            "aggregate": ["--in", tmp / "p.csv"],
            "compare": ["--a", tmp / "ra", "--b", tmp / "rb"],
        }.get(command, ["--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv"])
        capsys.readouterr()
        assert run_cli([command, *args, "--format", "csv", "--out", tmp / "v"]) == 0
        out = capsys.readouterr().out
        stamp, *table = (tmp / "v" / artifact).read_text().splitlines(keepends=True)
        assert stamp.startswith("# manifest_digest=")
        assert not any(line.startswith("#") for line in out.splitlines())
        assert out == "".join(table)

    @pytest.mark.parametrize("command", ["aggregate", "sweep", "ece", "compare"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_each_table_is_rendered_once(self, workdir, monkeypatch, command, fmt):
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        rng = np.random.default_rng(72)
        write_run_dir(tmp / "ra", make_runs(rng, 2))
        write_run_dir(tmp / "rb", make_runs(rng, 2))
        args = {
            "aggregate": ["--in", tmp / "p.csv"],
            "compare": ["--a", tmp / "ra", "--b", tmp / "rb"],
        }.get(command, ["--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv"])
        real, headers = uqeval.tensor.csv_table, []

        def counted(header, *rest):
            headers.append(",".join(header))
            return real(header, *rest)

        # csv_table is the one writer of these tables; count its calls in every module bound to it
        for module in [m for name, m in sys.modules.items() if name.startswith("uqeval")]:
            if getattr(module, "csv_table", None) is real:
                monkeypatch.setattr(module, "csv_table", counted)
        assert run_cli([command, *args, "--format", fmt, "--out", tmp / "v"]) == 0
        assert headers and len(headers) == len(set(headers)), headers

    def test_sweep_json_mirror_written(self, workdir):
        tmp, _, _ = workdir
        run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp])
        run_cli([
            "sweep", "--summaries", tmp / "summaries.csv", "--labels", tmp / "l.csv",
            "--out", tmp / "sj",
        ])
        payload = json.loads((tmp / "sj" / "sweep.json").read_text())
        assert len(payload["points"]) == 9


class TestFloatFlags:
    @pytest.mark.parametrize("args", [
        ["evaluate", "--normalize-entropy", "false", "--threshold", "nan"],
        ["evaluate", "--threshold", "inf"],
        ["demo", "--quick", "--threshold", "nan"],
    ], ids=["evaluate-nan", "evaluate-inf", "demo-nan"])
    def test_non_finite_value_is_usage_error(self, workdir, capsys, args):
        tmp, _, _ = workdir
        flag, value = args[-2:]
        if args[0] == "evaluate":
            args = [*args, "--summaries", tmp / "s.csv", "--labels", tmp / "l.csv"]
        with pytest.raises(SystemExit) as info:
            run_cli([*args, "--out", tmp / "nf"])
        assert info.value.code == 2
        assert f"argument {flag}: expected a finite number, got '{value}'" in capsys.readouterr().err
        assert not (tmp / "nf").exists()

    def test_non_numeric_message_unchanged(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["demo", "--threshold", "abc"])
        assert info.value.code == 2
        assert "argument --threshold: invalid float value: 'abc'" in capsys.readouterr().err


class TestErrorContract:
    """A bad input fails with exit 1, one ``uqeval: error:`` line and no file in ``--out``."""

    CASES = {
        "unknown extension": ["aggregate", "--in", "{tmp}/preds.txt"],
        "predictions csv not utf-8": ["aggregate", "--in", "{tmp}/bad.csv"],
        "summaries not utf-8": ["evaluate", "--summaries", "{tmp}/bad.csv",
                                "--labels", "{tmp}/l.csv"],
        "labels not utf-8": ["evaluate", "--summaries", "{tmp}/summaries.csv",
                             "--labels", "{tmp}/bad.csv"],
        "demo threshold": ["demo", "--quick", "--threshold", "1.5"],
    }

    @pytest.mark.parametrize("case", CASES)
    def test_bad_input_fails_cleanly(self, workdir, capsys, monkeypatch, case):
        tmp, _, _ = workdir
        assert run_cli(["aggregate", "--in", tmp / "p.csv", "--out", tmp]) == 0
        (tmp / "preds.txt").write_bytes((tmp / "p.csv").read_bytes())
        (tmp / "bad.csv").write_bytes(b"\xff" + (tmp / "p.csv").read_bytes())
        monkeypatch.setattr("uqeval.demo._map_jobs", lambda jobs: pytest.fail("a model trained"))
        capsys.readouterr()
        code = run_cli([a.format(tmp=tmp) for a in self.CASES[case]] + ["--out", tmp / "out"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("uqeval: error: ") and err.count("\n") == 1, err
        assert not (tmp / "out").exists()


class TestEntryPoint:
    def test_console_script_runs(self, workdir):
        tmp, _, _ = workdir
        proc = subprocess.run(
            [sys.executable, "-m", "uqeval.cli", "aggregate", "--in", str(tmp / "p.csv"),
             "--out", str(tmp / "sub")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp / "sub" / "summaries.csv").exists()

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "uqeval.cli", "aggregate"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2


class TestFlagSets:
    @pytest.mark.parametrize("args", [
        ["separate", "--normalize-entropy", "false"],
        ["evaluate", "--log-base", "e"],
        ["ece", "--renormalize"],
        ["compare", "--seed", "1"],
        ["demo", "--format", "csv"],
        ["demo", "--normalize-entropy", "false"],
    ], ids=lambda args: " ".join(args))
    def test_unread_flag_is_usage_error(self, workdir, capsys, args):
        tmp, _, _ = workdir
        command, flag = args[:2]
        required = {
            "separate": ["--summaries", tmp / "s.csv", "--labels", tmp / "l.csv"],
            "evaluate": ["--summaries", tmp / "s.csv", "--labels", tmp / "l.csv"],
            "ece": ["--summaries", tmp / "s.csv", "--labels", tmp / "l.csv"],
            "compare": ["--a", tmp / "ra", "--b", tmp / "rb"],
        }.get(command, [])
        with pytest.raises(SystemExit) as info:
            run_cli([*args, *required, "--out", tmp / "unread"])
        assert info.value.code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp / "unread").exists()

    def test_retired_command_is_usage_error(self, tmp_path, capsys):
        # train-demo wrote model files nothing read; it is no longer a subcommand
        with pytest.raises(SystemExit) as info:
            run_cli(["train-demo", "--out", tmp_path / "td"])
        assert info.value.code == 2
        assert "invalid choice: 'train-demo'" in capsys.readouterr().err
        assert not (tmp_path / "td").exists()

    def test_readme_table_matches_parser(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme, re.MULTILINE)
        table = {command: sorted(re.findall(r"`(--[a-z-]+)`", flags)) for command, flags in rows}
        parsed = {name: sorted(f for flags in options(p).values() for f in flags)
                  for name, p in subparsers().items()}
        assert table == parsed

    def test_readme_flag_total_matches_parser(self):
        root = Path(__file__).resolve().parents[1]
        readme = (root / "README.md").read_text(encoding="utf-8")
        (total,) = re.findall(r"Each subcommand takes only the flags it reads\s+\((\d+) in all\)",
                              readme)
        assert int(total) == design_counts().cli_flags()


def test_every_demo_preset_field_has_a_caller():
    # the demo runs with two presets; a field QUICK_PRESET leaves at its
    # default has one used value, so it is a constant and belongs in the demo as one
    default = DemoPreset()
    unset = [f.name for f in dataclasses.fields(DemoPreset)
             if getattr(QUICK_PRESET, f.name) == getattr(default, f.name)]
    assert unset == []


def test_every_export_is_used_or_documented():
    # an exported name that no package module uses and the README does not
    # name is reached only by the tests: it belongs there, not in the API
    package = Path(uqeval.__file__).parent
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exported = [alias.asname or alias.name for node in init.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set()
    for module in package.glob("*.py"):
        if module.name != "__init__.py":
            for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    unused = [name for name in exported
              if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert len(exported) == design_counts().exports() and unused == []


class TestSeedFlag:
    @pytest.mark.parametrize("args", [
        ["demo", "--quick", "--seed", "-1"],
    ], ids=["demo"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, args):
        with pytest.raises(SystemExit) as info:
            run_cli([*args, "--out", tmp_path / "neg"])
        assert info.value.code == 2
        value = args[-1]
        assert (f"argument --seed: expected a non-negative integer, got '{value}'"
                in capsys.readouterr().err)
        assert not (tmp_path / "neg").exists()

    def test_non_integer_message_unchanged(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(["demo", "--seed", "abc", "--out", tmp_path / "abc"])
        assert info.value.code == 2
        assert "argument --seed: invalid int value: 'abc'" in capsys.readouterr().err
        assert not (tmp_path / "abc").exists()


def test_design_counts_script_prints_four_counts():
    script = Path(__file__).resolve().parents[1] / "scripts" / "design_counts.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split(" ") for line in proc.stdout.splitlines()]
    assert [name for name, _ in lines] == ["src_lines", "cli_flags", "settable_values", "exports"]
    counts = {name: int(count) for name, count in lines}
    assert counts["cli_flags"] == sum(len(options(p)) for p in subparsers().values())
