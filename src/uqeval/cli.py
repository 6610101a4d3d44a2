"""Command-line entry point exposing the full pipeline as subcommands.

Exit codes: 0 success, 1 computation or validation failure, 2 usage error.
Set ``UQEVAL_NO_COLOR`` to disable ANSI styling in text output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from .aggregate import (
    ENSEMBLE,
    MCD,
    aggregate,
    emcd_scheme,
    load_summaries,
    save_summaries,
)
from .calibration import calibration_as_dict, calibration_report, save_reliability
from .datasets import save_dataset
from .demo import (
    DEFAULT_THRESHOLD,
    DemoPreset,
    QUICK_PRESET,
    build_demo_models,
    evaluate_demo,
    write_demo_artifacts,
)
from .errors import UqevalError, ValidationError
from .manifest import build_manifest, canonical_json, manifest_digest, write_manifest
from .stats import compare_models, comparison_values_csv
from .svg import reliability_svg, separation_svg, sweep_svg, violin_svg
from .tensor import load_labels, load_predictions, save_labels, save_predictions, write_artifact
from .ucm import (
    SWEEP_HEADER,
    build_ucm,
    format_metric,
    render_sweep_rows,
    save_sweep,
    separation_as_dict,
    separation_report,
    threshold_sweep,
    uacc,
    ucm_as_dict,
    upre,
    usen,
    uspe,
)

import numpy as np


def _color_enabled() -> bool:
    return "UQEVAL_NO_COLOR" not in os.environ


def _bold(text: str) -> str:
    return f"\x1b[1m{text}\x1b[0m" if _color_enabled() else text


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


def _parse_grid(text: str) -> list[float]:
    """``start:step:stop`` inclusive grid, e.g. 0.1:0.1:0.9."""
    try:
        start, step, stop = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}: expected start:step:stop") from exc
    if step <= 0 or stop < start:
        raise ValidationError(f"bad grid {text!r}: need step > 0 and stop >= start")
    count = int(round((stop - start) / step))
    grid = [round(start + i * step, 12) for i in range(count + 1)]
    if grid[-1] > stop + 1e-12:
        grid.pop()
    return grid


def _parse_partition(text: str) -> tuple[int, ...]:
    """``KxT`` or a comma list of member pass counts."""
    if "x" in text:
        try:
            k, t = (int(p) for p in text.split("x"))
        except ValueError as exc:
            raise ValidationError(f"bad partition {text!r}") from exc
        return tuple([t] * k)
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise ValidationError(f"bad partition {text!r}") from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text",
                        help="stdout rendering")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--log-base", choices=("2", "e"), default="2",
                        help="entropy log base")
    parser.add_argument("--normalize-entropy", type=_parse_bool, default=True,
                        metavar="BOOL", help="threshold on normalized entropy")
    parser.add_argument("--renormalize", action="store_true",
                        help="rescale near-normalized probability rows on load")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqeval",
        description="Aggregate stochastic predictions and evaluate uncertainty quality.",
    )
    parser.add_argument("--version", action="version", version=f"uqeval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aggregate", help="collapse a prediction tensor into summaries")
    p.add_argument("--in", dest="input", required=True, help="predictions CSV/JSONL")
    p.add_argument("--in-format", choices=("csv", "jsonl"), default=None)
    p.add_argument("--scheme", choices=("mcd", "ensemble", "emcd"), default="mcd")
    p.add_argument("--partition", default=None,
                   help="emcd pass partition: KxT or comma list")
    _add_common(p)

    p = sub.add_parser("evaluate", help="uncertainty confusion matrix at one threshold")
    p.add_argument("--summaries", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    _add_common(p)

    p = sub.add_parser("sweep", help="confusion metrics across a threshold grid")
    p.add_argument("--summaries", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--grid", default="0.1:0.1:0.9", help="start:step:stop")
    _add_common(p)

    p = sub.add_parser("ece", help="expected calibration error and reliability data")
    p.add_argument("--summaries", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--bins", type=int, default=10)
    _add_common(p)

    p = sub.add_parser("separate", help="entropy statistics of correct vs incorrect groups")
    p.add_argument("--summaries", required=True)
    p.add_argument("--labels", required=True)
    _add_common(p)

    p = sub.add_parser("compare", help="paired t-tests between two run directories")
    p.add_argument("--a", dest="dir_a", required=True)
    p.add_argument("--b", dest="dir_b", required=True)
    _add_common(p)

    p = sub.add_parser("train-demo", help="generate data, train demo models, emit predictions")
    p.add_argument("--kind", choices=("two-moons", "gaussian-blobs"), default="two-moons")
    p.add_argument("--n", type=int, default=600)
    p.add_argument("--noise", type=float, default=0.28)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--members", type=int, default=10)
    p.add_argument("--passes", type=int, default=100)
    p.add_argument("--passes-per-member", type=int, default=8)
    _add_common(p)

    p = sub.add_parser("demo", help="full pipeline into an artifact directory")
    p.add_argument("--quick", action="store_true", help="small preset for smoke runs")
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)
    _add_common(p)

    return parser


def _flags_dict(args: argparse.Namespace) -> dict:
    skip = {"command", "func"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(out_dir: str) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _print(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_aggregate(args) -> int:
    tensor = load_predictions(args.input, args.in_format, renormalize=args.renormalize)
    if args.scheme == "emcd":
        if args.partition is None:
            raise ValidationError("emcd needs --partition (KxT or comma list)")
        scheme = emcd_scheme(_parse_partition(args.partition))
    elif args.scheme == "ensemble":
        scheme = ENSEMBLE
    else:
        scheme = MCD
    summaries = aggregate(tensor, scheme, args.log_base)
    out = _emit(args.out)
    manifest = build_manifest("aggregate", _flags_dict(args), args.seed,
                              {"predictions": args.input})
    digest = manifest_digest(manifest)
    save_summaries(summaries, out / "summaries.csv",
                   header_comment=f"manifest_digest={digest}")
    write_manifest(manifest, out / "manifest.json")
    if args.format == "json":
        _print(canonical_json({
            "n_samples": len(summaries),
            "scheme": args.scheme,
            "summaries_file": str(out / "summaries.csv"),
            "manifest_digest": digest,
        }).rstrip("\n"))
    elif args.format == "csv":
        _print((out / "summaries.csv").read_text().rstrip("\n"))
    else:
        _print(f"wrote {out / 'summaries.csv'} ({len(summaries)} samples, scheme {args.scheme})")
    return 0


def _load_pair(args):
    summaries = load_summaries(args.summaries)
    labels = load_labels(args.labels)
    return summaries, labels


def _ucm_text(ucm, normalized: bool) -> str:
    d = ucm_as_dict(ucm)
    scale = "normalized entropy" if normalized else "raw entropy"
    lines = [
        _bold(f"uncertainty confusion matrix @ threshold {ucm.threshold:g} ({scale})"),
        "                 certain      uncertain",
        f"  correct        TC {ucm.tc:6d}    FU {ucm.fu:6d}",
        f"  incorrect      FC {ucm.fc:6d}    TU {ucm.tu:6d}",
        "  " + "   ".join([
            f"UAcc {_pct(d['uacc'])}",
            f"USen {_val(d['usen'])}",
            f"USpe {_val(d['uspe'])}",
            f"UPre {_val(d['upre'])}",
        ]),
    ]
    return "\n".join(lines)


def _val(value) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def _pct(value) -> str:
    return "n/a" if value is None else f"{100 * value:.1f}% ({value:.3f})"


def cmd_evaluate(args) -> int:
    summaries, labels = _load_pair(args)
    if args.normalize_entropy and not 0.0 <= args.threshold <= 1.0:
        raise ValidationError(f"threshold {args.threshold} outside [0, 1]")
    ucm = build_ucm(summaries, labels, args.threshold, normalized=args.normalize_entropy)
    out = _emit(args.out)
    manifest = build_manifest("evaluate", _flags_dict(args), args.seed,
                              {"summaries": args.summaries, "labels": args.labels})
    digest = manifest_digest(manifest)
    payload = ucm_as_dict(ucm)
    payload["manifest_digest"] = digest
    write_artifact(out / "ucm.json", canonical_json(payload))
    write_manifest(manifest, out / "manifest.json")
    if args.format == "json":
        _print(canonical_json(payload).rstrip("\n"))
    elif args.format == "csv":
        _print("threshold,tc,tu,fu,fc,uacc,usen,uspe,upre")
        _print(
            f"{ucm.threshold:g},{ucm.tc},{ucm.tu},{ucm.fu},{ucm.fc},"
            f"{format_metric(uacc(ucm))},{format_metric(usen(ucm))},"
            f"{format_metric(uspe(ucm))},{format_metric(upre(ucm))}"
        )
    else:
        _print(_ucm_text(ucm, args.normalize_entropy))
    return 0


def cmd_sweep(args) -> int:
    summaries, labels = _load_pair(args)
    grid = _parse_grid(args.grid)
    curve = threshold_sweep(summaries, labels, grid, normalized=args.normalize_entropy)
    out = _emit(args.out)
    manifest = build_manifest("sweep", _flags_dict(args), args.seed,
                              {"summaries": args.summaries, "labels": args.labels})
    digest = manifest_digest(manifest)
    save_sweep(curve, out / "sweep.csv", header_comment=f"manifest_digest={digest}")
    sweep_json = canonical_json(
        {"points": [ucm_as_dict(p.ucm) for p in curve], "manifest_digest": digest}
    )
    write_artifact(out / "sweep.json", sweep_json)
    write_artifact(out / "sweep.svg", sweep_svg(curve, digest))
    write_manifest(manifest, out / "manifest.json")
    if args.format == "json":
        _print(sweep_json.rstrip("\n"))
    elif args.format == "csv":
        _print(SWEEP_HEADER)
        sys.stdout.write(render_sweep_rows(curve))
    else:
        _print(f"wrote {out / 'sweep.csv'} and sweep.svg ({len(curve)} thresholds)")
    return 0


def cmd_ece(args) -> int:
    summaries, labels = _load_pair(args)
    report = calibration_report(summaries, labels, args.bins)
    out = _emit(args.out)
    manifest = build_manifest("ece", _flags_dict(args), args.seed,
                              {"summaries": args.summaries, "labels": args.labels})
    digest = manifest_digest(manifest)
    payload = calibration_as_dict(report)
    payload["manifest_digest"] = digest
    write_artifact(out / "calibration.json", canonical_json(payload))
    save_reliability(report, out / "reliability.csv",
                     header_comment=f"manifest_digest={digest}")
    write_artifact(out / "reliability.svg", reliability_svg(report, digest))
    write_manifest(manifest, out / "manifest.json")
    if args.format == "json":
        _print(canonical_json(payload).rstrip("\n"))
    elif args.format == "csv":
        _print((out / "reliability.csv").read_text().rstrip("\n"))
    else:
        _print(f"ECE {report.ece:.6f} over {report.n} samples in {report.n_bins} bins")
    return 0


def cmd_separate(args) -> int:
    summaries, labels = _load_pair(args)
    report = separation_report(summaries, labels)
    out = _emit(args.out)
    manifest = build_manifest("separate", _flags_dict(args), args.seed,
                              {"summaries": args.summaries, "labels": args.labels})
    digest = manifest_digest(manifest)
    payload = separation_as_dict(report)
    payload["manifest_digest"] = digest
    write_artifact(out / "separation.json", canonical_json(payload))
    write_artifact(out / "separation.svg", separation_svg(report, digest))
    write_manifest(manifest, out / "manifest.json")
    if args.format == "json":
        _print(canonical_json(payload).rstrip("\n"))
    elif args.format == "csv":
        _print("group,count,mean,median")
        _print(f"correct,{report.n_correct},{format_metric(report.correct_mean)},"
               f"{format_metric(report.correct_median)}")
        _print(f"incorrect,{report.n_incorrect},{format_metric(report.incorrect_mean)},"
               f"{format_metric(report.incorrect_median)}")
    else:
        _print(
            "mean normalized entropy: correct "
            f"{_val(report.correct_mean)}, incorrect {_val(report.incorrect_mean)}, "
            f"difference {_val(report.mean_difference)}"
        )
    return 0


def _load_run_dir(path: str):
    index = Path(path) / "runs.json"
    if not index.exists():
        raise ValidationError(f"{path}: missing runs.json index")
    try:
        spec = json.loads(index.read_text(encoding="utf-8"))
        entries = [
            (int(e["seed"]), e["summaries"], e["labels"]) for e in spec.get("runs", [])
        ]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{index}: malformed run index: {exc}") from exc
    runs = [
        (seed, load_summaries(Path(path) / s_file), load_labels(Path(path) / l_file))
        for seed, s_file, l_file in entries
    ]
    if not runs:
        raise ValidationError(f"{path}: no runs declared")
    return runs


def cmd_compare(args) -> int:
    runs_a = _load_run_dir(args.dir_a)
    runs_b = _load_run_dir(args.dir_b)
    comparison = compare_models(runs_a, runs_b)
    out = _emit(args.out)
    manifest = build_manifest("compare", _flags_dict(args), args.seed)
    digest = manifest_digest(manifest)
    payload = {
        "accuracy": comparison["accuracy"].as_dict(),
        "auc": comparison["auc"].as_dict(),
        "manifest_digest": digest,
    }
    write_artifact(out / "comparison.json", canonical_json(payload))
    write_artifact(out / "comparison_values.csv", comparison_values_csv(comparison),
                   f"manifest_digest={digest}")
    for metric in ("accuracy", "auc"):
        cmp = comparison[metric]
        write_artifact(
            out / f"comparison_{metric}.svg",
            violin_svg({"a": np.array(cmp.a.values), "b": np.array(cmp.b.values)},
                       metric, digest),
        )
    write_manifest(manifest, out / "manifest.json")
    if args.format == "json":
        _print(canonical_json(payload).rstrip("\n"))
    elif args.format == "csv":
        _print(comparison_values_csv(comparison).rstrip("\n"))
    else:
        for metric in ("accuracy", "auc"):
            d = payload[metric]
            _print(
                f"{metric}: a {d['mean_a']:.4f}±{d['sd_a']:.4f} vs "
                f"b {d['mean_b']:.4f}±{d['sd_b']:.4f}, t={d['t']}, p={d['p']:.3g}"
                + (" (degenerate)" if d["degenerate"] else "")
            )
    return 0


def cmd_train_demo(args) -> int:
    preset = DemoPreset(
        kind=args.kind,
        n_points=args.n,
        noise=args.noise,
        epochs=args.epochs,
        ensemble_members=args.members,
        mcd_passes=args.passes,
        emcd_passes_per_member=args.passes_per_member,
    )
    dataset, labels, tensors, schemes, summaries, seeds, (mcd_model, members) = (
        build_demo_models(args.seed, preset, args.log_base)
    )
    out = _emit(args.out)
    manifest = build_manifest("train-demo", _flags_dict(args), args.seed,
                              derived_seeds=seeds)
    digest = manifest_digest(manifest)
    stamp = f"manifest_digest={digest}"
    save_dataset(dataset, out / "dataset.csv", header_comment=stamp)
    save_labels(labels, out / "labels.csv", header_comment=stamp)
    from .models import save_model

    save_model(mcd_model, out / "model_mcd.json", manifest_digest=digest)
    for i, member in enumerate(members):
        save_model(member, out / f"model_member_{i:02d}.json", manifest_digest=digest)
    for name in ("mcd", "ensemble", "emcd"):
        save_predictions(tensors[name], out / f"predictions_{name}.csv",
                         header_comment=stamp)
    write_manifest(manifest, out / "manifest.json")
    _print(f"wrote dataset, labels, {1 + len(members)} models and 3 prediction files to {out}")
    return 0


def cmd_demo(args) -> int:
    from .demo import _sub_seeds

    preset = QUICK_PRESET if args.quick else DemoPreset()
    manifest = build_manifest("demo", _flags_dict(args), args.seed,
                              derived_seeds=_sub_seeds(args.seed))
    digest = manifest_digest(manifest)
    result, comparison = evaluate_demo(args.seed, preset, args.log_base,
                                       threshold=args.threshold)
    out = _emit(args.out)
    write_demo_artifacts(result, comparison, out, digest)
    write_manifest(manifest, out / "manifest.json")
    if args.format == "json":
        payload = dict(result.report)
        payload["manifest_digest"] = digest
        _print(canonical_json(payload).rstrip("\n"))
    else:
        for name, block in result.report["schemes"].items():
            u = block["ucm"]
            _print(
                f"{name}: UAcc {_pct(u['uacc'])}  USen {_val(u['usen'])}  "
                f"USpe {_val(u['uspe'])}  UPre {_val(u['upre'])}  "
                f"acc {block['point']['accuracy']:.3f}  "
                f"ECE {block['calibration']['ece']:.4f}"
            )
        _print(f"artifacts in {out}")
    return 0


COMMANDS = {
    "aggregate": cmd_aggregate,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "ece": cmd_ece,
    "separate": cmd_separate,
    "compare": cmd_compare,
    "train-demo": cmd_train_demo,
    "demo": cmd_demo,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except UqevalError as exc:
        sys.stderr.write(f"uqeval: error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"uqeval: i/o error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
