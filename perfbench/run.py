"""Benchmark of uqeval: seeded workloads, end-to-end metrics, per-layer trace.

Run from the root of a checkout (nothing needs installing; the checkout's
``src`` is put first on ``PYTHONPATH``)::

    python3 perfbench/run.py                          # all four workloads
    python3 perfbench/run.py --workload cli-files --seed 3 --seconds 25 --trace 0

With ``--trace 0`` it prints, per workload, ``wall_s`` (median wall time of
one closed-loop iteration), ``setup_s`` (median time of a fresh interpreter
importing ``uqeval`` and ``uqeval.cli``), ``peak_rss_mb`` and ``error_rate``.
With ``--trace 1`` it prints the per-layer metrics of a traced in-process
run instead. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; names and units of the metrics are
those declared in ``BENCHMARK.json``. The exit code is 0 only when every
output check passed. The workloads and their reasons are in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
from pathlib import Path

import process

CHECKOUT = Path(__file__).resolve().parent.parent
WORK = CHECKOUT / ".perfbench-work"
SETUP_RUNS = 7
SETUP_TIMEOUT = 30.0
WORKER_TIMEOUT = 150.0


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(CHECKOUT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_times(env: dict, work: Path) -> list[float] | None:
    """Wall times of fresh interpreters importing the package, after one discarded run."""
    argv = [sys.executable, "-c", "import uqeval, uqeval.cli"]
    runs = [process.run(argv, env, SETUP_TIMEOUT, work / "setup.err", own_group=True)
            for _ in range(SETUP_RUNS + 1)][1:]
    failed = [r for r in runs if r.code]
    if failed:
        sys.stderr.write(f"perfbench: importing uqeval failed\n{failed[0].stderr}\n")
        return None
    return [r.wall for r in runs]


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    value = sorted(samples)[n - 11]
    return f"p{math.floor(100 * (n - 10) / n)} {value:.4f} s (n={n})"


def run_workload(name: str, args, env: dict) -> tuple[dict, dict] | None:
    """(metrics, tally) of one workload, printing its report; None if it could not run."""
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup = [] if args.trace else setup_times(env, work)
    if setup is None:
        return None
    result_path = work / "result.json"
    argv = [sys.executable, str(Path(__file__).with_name("worker.py")),
            "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work), "--result", str(result_path),
            "--spans", str(WORK / f"spans-{name}.json")]
    done = process.run(argv, env, WORKER_TIMEOUT, WORK / f"worker-{name}.err", own_group=True)
    if done.code != 0 or not result_path.exists():
        sys.stderr.write(f"perfbench: {name} worker exited {done.code}\n{done.stderr}\n")
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    shutil.rmtree(work, ignore_errors=True)

    walls = result["walls"]
    env_info = result["environment"]
    runs = (f"{len(walls)} untraced + {len(result['traced_walls'])} traced iterations in process"
            if args.trace else f"{len(walls)} iterations")
    print(f"== {name}  seed {args.seed}  trace {args.trace}  {runs} after 1 discarded warm-up")
    print(f"   python {env_info['python']}  numpy {env_info['numpy']}  nproc {env_info['nproc']}"
          f"  {env_info['platform']}")
    print("   " + "  ".join(f"{k}={v}" for k, v in env_info["threads"].items()))
    if not result["inputs"]:
        print(f"   inputs made by the program from seed {args.seed}")
    for item in result["inputs"]:
        print(f"   input {item['name']}  shape {item['shape']}  {item['bytes']} B"
              f"  sha256 {item['sha256']}")
    tally = {k: result[k] for k in ("attempted", "failed")}
    rate = tally["failed"] / tally["attempted"] if tally["attempted"] else 1.0
    if args.trace:
        metrics = result["layers"]
        for key, value in metrics.items():
            print(f"   {key:42s} {value:.6g}")
    else:
        wall = statistics.median(walls)
        units, label = result["throughput"]
        peaks = result["peak_rss_mb"] or [done.peak_rss_mb]
        metrics = {"wall_s": wall, "setup_s": statistics.median(setup),
                   "peak_rss_mb": statistics.median(peaks)}
        print(f"   wall_s       {wall:.4f} s  median of {len(walls)}; {tail_percentile(walls)};"
              f" throughput {units / wall:.6g} {label}/s at {units} {label} per iteration")
        print(f"   setup_s      {metrics['setup_s']:.4f} s  median of {len(setup)} fresh"
              " interpreters importing uqeval and uqeval.cli")
        print(f"   peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  "
              + ("median over iterations of the largest CLI process" if result["peak_rss_mb"]
                 else "whole worker process, from os.wait4"))
    print(f"   error_rate   {rate:.6g} ratio  ({tally['failed']} failed of {tally['attempted']}"
          " operations)")
    for error in result["errors"]:
        print(f"   FAILED {error}")
    return metrics, tally


def main() -> int:
    spec_path = CHECKOUT / "BENCHMARK.json"
    if not (CHECKOUT / "src" / "uqeval" / "__init__.py").is_file():
        return fail(f"no uqeval sources under {CHECKOUT / 'src'}; run from a checkout")
    if not spec_path.is_file():
        return fail(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = child_env()
    chosen = names if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in chosen:
        outcome = run_workload(name, args, env)
        if outcome is None:
            return 1
        values, tally = outcome
        if set(values) != set(declared):
            return fail(f"{name} measured {sorted(values)}, BENCHMARK.json declares"
                        f" {sorted(declared)}")
        prefix = "" if len(chosen) == 1 else f"{name}."
        metrics.update({prefix + k: {"value": v, "unit": declared[k]} for k, v in values.items()})
        attempted += tally["attempted"]
        failed += tally["failed"]
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
