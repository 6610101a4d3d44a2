"""Command-line entry point exposing the full pipeline as subcommands.

Exit codes: 0 success, 1 computation or validation failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import __version__
from .aggregate import (
    SCHEME_KINDS,
    AggregationScheme,
    aggregate,
    load_summaries,
    save_summaries,
)
from .calibration import calibration_as_dict, calibration_report, save_reliability
from .demo import (
    DEFAULT_THRESHOLD,
    DemoPreset,
    QUICK_PRESET,
    evaluate_demo,
    write_comparison,
    write_demo_artifacts,
)
from .errors import UqevalError, ValidationError
from .manifest import build_manifest, canonical_json, manifest_digest, write_manifest
from .stats import compare_models, comparison_as_dict
from .svg import reliability_svg, separation_svg, sweep_svg
from .tensor import (FULL_FORMAT, csv_table, is_real, is_seed, load_labels, load_predictions,
                     write_artifact)
from .ucm import (
    SweepCurve,
    SweepPoint,
    build_ucm,
    save_sweep,
    separation_as_dict,
    separation_report,
    sweep_table,
    threshold_sweep,
    ucm_as_dict,
)


def _checked(parse, name: str, valid, wanted: str):
    """An argparse type that parses the text (with argparse's message on failure) and checks it."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {name} value: {text!r}") from None
        if not valid(value):
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value

    return convert


# NaN and infinities cannot be recorded in a manifest; numpy seeds only from integers >= 0
_finite_float = _checked(float, "float", is_real, "a finite number")
_seed = _checked(int, "int", is_seed, "a non-negative integer")


# a sweep grid or an ECE binning must have fewer points than this
MAX_GRID_POINTS = 10**6


def _parse_grid(text: str) -> list[float]:
    """``start:step:stop`` inclusive grid, e.g. 0.1:0.1:0.9."""
    try:
        start, step, stop = (float(p) for p in text.split(":"))
    except ValueError as exc:
        raise ValidationError(f"bad grid {text!r}: expected start:step:stop") from exc
    if not all(map(is_real, (start, step, stop))):
        raise ValidationError(f"bad grid {text!r}: start, step and stop must be finite")
    if step <= 0 or stop < start:
        raise ValidationError(f"bad grid {text!r}: need step > 0 and stop >= start")
    if not (stop - start) / step < MAX_GRID_POINTS:  # also an infinite quotient
        raise ValidationError(f"bad grid {text!r}: more than {MAX_GRID_POINTS} points")
    count = int(round((stop - start) / step))
    grid = [round(start + i * step, 12) for i in range(count + 1)]
    if grid[-1] > stop + 1e-12:
        grid.pop()
    if len(set(grid)) < len(grid):
        raise ValidationError(f"bad grid {text!r}: thresholds repeat once rounded to 12 decimals")
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


# Flags more than one subcommand reads; each subparser names the ones it takes.
SHARED_FLAGS = {
    "--summaries": dict(required=True),
    "--labels": dict(required=True),
    "--threshold": dict(type=_finite_float, default=DEFAULT_THRESHOLD),
    "--seed": dict(type=_seed, default=0, help="master seed"),
    "--format": dict(choices=("text", "json", "csv"), default="text", help="stdout rendering"),
    "--out": dict(default=".", help="output directory"),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each declaring only the flags its command reads."""
    parser = argparse.ArgumentParser(
        prog="uqeval",
        description="Aggregate stochastic predictions and evaluate uncertainty quality.",
    )
    parser.add_argument("--version", action="version", version=f"uqeval {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    def shared(p: argparse.ArgumentParser, *flags: str) -> None:
        for flag in flags:
            p.add_argument(flag, **SHARED_FLAGS[flag])

    p = command("aggregate", cmd_aggregate, "collapse a prediction tensor into summaries")
    p.add_argument("--in", dest="input", required=True, help="predictions CSV")
    p.add_argument("--scheme", choices=SCHEME_KINDS, default="mcd")
    p.add_argument("--partition", default=None,
                   help="emcd pass partition: KxT or comma list")
    shared(p, "--format", "--out")
    p.add_argument("--renormalize", action="store_true",
                   help="rescale near-normalized probability rows on load")

    p = command("evaluate", cmd_evaluate, "uncertainty confusion matrix at one threshold")
    shared(p, "--summaries", "--labels", "--threshold", "--format", "--out")
    p = command("sweep", cmd_sweep, "confusion metrics across a threshold grid")
    shared(p, "--summaries", "--labels")
    p.add_argument("--grid", default="0.1:0.1:0.9", help="start:step:stop")
    shared(p, "--format", "--out")
    p = command("ece", cmd_ece, "expected calibration error and reliability data")
    shared(p, "--summaries", "--labels")
    p.add_argument("--bins", type=int, default=10)
    shared(p, "--format", "--out")
    p = command("separate", cmd_separate, "entropy statistics of correct vs incorrect groups")
    shared(p, "--summaries", "--labels", "--format", "--out")

    p = command("compare", cmd_compare, "paired t-tests between two run directories")
    p.add_argument("--a", dest="dir_a", required=True)
    p.add_argument("--b", dest="dir_b", required=True)
    shared(p, "--format", "--out")

    p = command("demo", cmd_demo, "full pipeline into an artifact directory")
    p.add_argument("--quick", action="store_true", help="small preset for smoke runs")
    shared(p, "--threshold", "--seed")
    p.add_argument("--format", choices=("text", "json"), default="text", help="stdout rendering")
    shared(p, "--out")

    return parser


class Run(NamedTuple):
    """What a command computed, ready to be stamped with its manifest digest.

    ``inputs`` maps a name to each file the command read; ``write(out, digest)``
    writes the command's artifacts into ``out`` and returns its stdout text.
    """

    inputs: dict
    write: Callable[[Path, str], str]
    derived_seeds: dict | None = None


def cmd_aggregate(args) -> Run:
    # the flags are checked before the input is read
    if args.scheme == "emcd" and args.partition is None:
        raise ValidationError("emcd needs --partition (KxT or comma list)")
    partition = None if args.partition is None else _parse_partition(args.partition)
    scheme = AggregationScheme(args.scheme, partition)
    tensor = load_predictions(args.input, renormalize=args.renormalize)
    summaries = aggregate(tensor, scheme)

    def write(out: Path, digest: str) -> str:
        table = save_summaries(summaries, out / "summaries.csv",
                               header_comment=f"manifest_digest={digest}")
        if args.format == "json":
            return canonical_json({
                "n_samples": len(summaries),
                "scheme": args.scheme,
                "summaries_file": str(out / "summaries.csv"),
                "manifest_digest": digest,
            })
        if args.format == "csv":
            return table
        return f"wrote {out / 'summaries.csv'} ({len(summaries)} samples, scheme {args.scheme})"

    return Run({"predictions": args.input}, write)


def _ucm_text(ucm) -> str:
    d = ucm_as_dict(ucm)
    lines = [
        f"uncertainty confusion matrix @ threshold {ucm.threshold:g} (normalized entropy)",
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


def cmd_evaluate(args) -> Run:
    summaries, labels = load_summaries(args.summaries), load_labels(args.labels)
    ucm = build_ucm(summaries, labels, args.threshold)

    def write(out: Path, digest: str) -> str:
        payload = canonical_json({**ucm_as_dict(ucm), "manifest_digest": digest})
        write_artifact(out / "ucm.json", payload)
        if args.format == "json":
            return payload
        if args.format == "csv":
            return sweep_table(SweepCurve((SweepPoint(ucm),)))
        return _ucm_text(ucm)

    return Run({"summaries": args.summaries, "labels": args.labels}, write)


def cmd_sweep(args) -> Run:
    summaries, labels = load_summaries(args.summaries), load_labels(args.labels)
    curve = threshold_sweep(summaries, labels, _parse_grid(args.grid))

    def write(out: Path, digest: str) -> str:
        table = save_sweep(curve, out / "sweep.csv", header_comment=f"manifest_digest={digest}")
        sweep_json = canonical_json(
            {"points": [ucm_as_dict(p.ucm) for p in curve], "manifest_digest": digest}
        )
        write_artifact(out / "sweep.json", sweep_json)
        write_artifact(out / "sweep.svg", sweep_svg(curve, digest))
        if args.format == "json":
            return sweep_json
        if args.format == "csv":
            return table
        return f"wrote {out / 'sweep.csv'} and sweep.svg ({len(curve)} thresholds)"

    return Run({"summaries": args.summaries, "labels": args.labels}, write)


def cmd_ece(args) -> Run:
    if args.bins >= MAX_GRID_POINTS:
        raise ValidationError(f"--bins {args.bins}: need fewer than {MAX_GRID_POINTS} bins")
    report = calibration_report(load_summaries(args.summaries), load_labels(args.labels),
                                args.bins)

    def write(out: Path, digest: str) -> str:
        payload = canonical_json({**calibration_as_dict(report), "manifest_digest": digest})
        write_artifact(out / "calibration.json", payload)
        table = save_reliability(report, out / "reliability.csv",
                                 header_comment=f"manifest_digest={digest}")
        write_artifact(out / "reliability.svg", reliability_svg(report, digest))
        if args.format == "json":
            return payload
        if args.format == "csv":
            return table
        return f"ECE {report.ece:.6f} over {report.n} samples in {report.n_bins} bins"

    return Run({"summaries": args.summaries, "labels": args.labels}, write)


def cmd_separate(args) -> Run:
    report = separation_report(load_summaries(args.summaries), load_labels(args.labels))

    def write(out: Path, digest: str) -> str:
        payload = canonical_json({**separation_as_dict(report), "manifest_digest": digest})
        write_artifact(out / "separation.json", payload)
        write_artifact(out / "separation.svg", separation_svg(report, digest))
        if args.format == "json":
            return payload
        if args.format == "csv":
            return csv_table(("group", "count", "mean", "median"),
                             ("%s", "%d", FULL_FORMAT, FULL_FORMAT), ["correct", "incorrect"],
                             [report.n_correct, report.n_incorrect],
                             [report.correct_mean, report.incorrect_mean],
                             [report.correct_median, report.incorrect_median])
        return (
            "mean normalized entropy: correct "
            f"{_val(report.correct_mean)}, incorrect {_val(report.incorrect_mean)}, "
            f"difference {_val(report.mean_difference)}"
        )

    return Run({"summaries": args.summaries, "labels": args.labels}, write)


JSON_TYPES = {  # the types a JSON field can be required to have; true and false are not integers
    "a string": lambda v: type(v) is str,
    "an integer": lambda v: type(v) is int,
}


def json_field(record: dict, key: str, kind: str):
    """``record[key]``, which must be ``kind`` (a ``JSON_TYPES`` key); raises KeyError or TypeError."""
    value = record[key]
    if not JSON_TYPES[kind](value):
        raise TypeError(f"{key} must be {kind}, got {json.dumps(value)}")
    return value


def _load_run_dir(path: str, side: str):
    """The runs a ``runs.json`` index lists, and every file read for them by input name."""
    directory = Path(path)
    index = directory / "runs.json"
    if not index.exists():
        raise ValidationError(f"{path}: missing runs.json index")
    try:
        spec = json.loads(index.read_text(encoding="utf-8"))
        if not isinstance(spec, dict):
            raise TypeError(f"expected a JSON object, got {type(spec).__name__}")
        entries = [
            (json_field(e, "seed", "an integer"), directory / json_field(e, "summaries", "a string"),
             directory / json_field(e, "labels", "a string"))
            for e in spec.get("runs", [])
        ]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{index}: malformed run index: {exc}") from exc
    runs = [(seed, load_summaries(s_file), load_labels(l_file)) for seed, s_file, l_file in entries]
    if not runs:
        raise ValidationError(f"{path}: no runs declared")
    inputs = {f"{side}_index": index}
    for i, (_, s_file, l_file) in enumerate(entries):
        inputs[f"{side}_summaries_{i}"] = s_file
        inputs[f"{side}_labels_{i}"] = l_file
    return runs, inputs


def cmd_compare(args) -> Run:
    runs_a, inputs_a = _load_run_dir(args.dir_a, "a")
    runs_b, inputs_b = _load_run_dir(args.dir_b, "b")
    comparison = compare_models(runs_a, runs_b)
    metrics = comparison_as_dict(comparison)

    def write(out: Path, digest: str) -> str:
        payload = canonical_json({**metrics, "manifest_digest": digest})
        write_artifact(out / "comparison.json", payload)
        values_csv = write_comparison(comparison, ("a", "b"), out, digest)
        if args.format == "json":
            return payload
        if args.format == "csv":
            return values_csv
        return "\n".join(
            f"{metric}: a {d['mean_a']:.4f}±{d['sd_a']:.4f} vs "
            f"b {d['mean_b']:.4f}±{d['sd_b']:.4f}, t={d['t']}, p={d['p']:.3g}"
            + (" (degenerate)" if d["degenerate"] else "")
            for metric, d in metrics.items()
        )

    return Run({**inputs_a, **inputs_b}, write)


def cmd_demo(args) -> Run:
    preset = QUICK_PRESET if args.quick else DemoPreset()
    result, comparison = evaluate_demo(args.seed, preset, args.threshold)

    def write(out: Path, digest: str) -> str:
        report_json = write_demo_artifacts(result, comparison, out, digest)
        if args.format == "json":
            return report_json
        lines = []
        for name, block in result.report["schemes"].items():
            u = block["ucm"]
            lines.append(
                f"{name}: UAcc {_pct(u['uacc'])}  USen {_val(u['usen'])}  "
                f"USpe {_val(u['uspe'])}  UPre {_val(u['upre'])}  "
                f"acc {block['point']['accuracy']:.3f}  "
                f"ECE {block['calibration']['ece']:.4f}"
            )
        return "\n".join(lines + [f"artifacts in {out}"])

    return Run({}, write, result.report["derived_seeds"])


def _run(args) -> int:
    """Load and compute, then write the results stamped with one manifest digest.

    The manifest records the flags, the seed (``None`` for a command without
    ``--seed``) and a sha256 of every input the command read; its artifacts go
    to ``--out`` before ``manifest.json``, and stdout shows the view
    ``--format`` picks.
    """
    run = args.handler(args)
    flags = {k: v for k, v in sorted(vars(args).items()) if k not in ("command", "handler")}
    manifest = build_manifest(args.command, flags, getattr(args, "seed", None), run.inputs,
                              run.derived_seeds)
    digest = manifest_digest(manifest)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    text = run.write(out, digest)
    write_manifest(manifest, out / "manifest.json")
    sys.stdout.write(text if text.endswith("\n") else text + "\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except UqevalError as exc:
        sys.stderr.write(f"uqeval: error: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"uqeval: i/o error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
