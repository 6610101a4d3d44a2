"""Time two revisions on one perfbench workload, in alternating pairs of runs.

    python scripts/ab_bench.py REV_A REV_B --workload api-eval --seed 0 --pairs 10 --out BENCH.json

``REV_A`` and ``REV_B`` are any git tree-ish of this repository: a commit,
a branch, or a tree id (``git stash create`` or a ``git write-tree`` from a
scratch index names uncommitted work). Each is exported with ``git archive``
into a temporary directory, and ``perfbench/run.py --workload W --seed S``
runs in each export, ``--pairs`` times a side, in ABBA order: pair ``i``
runs A first when ``i`` is even and B first when it is odd. Both sides run
at the benchmark's own run length. A run that exits non-zero or reports a
failed operation stops the tool.

Each run records the end-to-end metrics of the JSON line perfbench prints,
its failed and attempted operations, and ``cpu_s``: the user plus system
CPU time of the run's process tree, from ``os.wait4``, which counts every
descendant a process waited for. ``cpu_s`` is evidence beside the wall
time, not a benchmark metric.

The result is appended, as one entry of its ``runs`` list, to the JSON file
``--out`` (created if missing). The entry holds every pair and, per metric:

* each side's median and quartiles (``numpy.percentile``'s default linear
  interpolation between order statistics);
* B's wins, losses and ties over the pairs (a win is a better value: lower
  for every metric here);
* ``median_change``, B's median over A's minus 1, and whether the two
  sides' quartile ranges overlap (a change within the spread is unresolved,
  not "unchanged");
* ``gap_exceeds_spread``: whether B's median beats A's by more than the
  distance between A's quartiles, and ``gain_rule_met``: that, with B
  winning at least nine tenths of at least ten pairs;
* the median of the pair ratios B/A, the exact two-sided sign-test p-value
  of the wins against the losses (ties dropped), and a 95% interval of the
  median ratio from a bootstrap over pairs seeded by ``--seed``;

and a machine block: platform, CPU, Python and numpy versions, thread
variables, and the load average before and after.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
BOOTSTRAP_DRAWS = 10_000
MIN_PAIRS = 10  # the fewest pairs a gain may be claimed from
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "OPENBLAS_CORETYPE")


def quantile(values, q: float) -> float:
    """The ``q`` quantile of ``values``, interpolated linearly between order statistics."""
    return float(numpy.percentile(values, 100 * q))


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p-value: the binomial(n, 1/2) mass of every outcome
    no likelier than ``wins`` of ``n = wins + losses``."""
    n = wins + losses
    observed = math.comb(n, wins)
    mass = sum(c for c in (math.comb(n, k) for k in range(n + 1)) if c <= observed)
    return min(1.0, mass / 2**n)


def bootstrap_interval(ratios, seed: int, draws: int = BOOTSTRAP_DRAWS) -> tuple[float, float]:
    """A 95% percentile interval of the median ratio, resampling the pairs ``draws`` times."""
    rng = random.Random(seed)
    medians = [statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(draws)]
    return quantile(medians, 0.025), quantile(medians, 0.975)


def compare(a: list[float], b: list[float], better: str, seed: int) -> dict:
    """Side summaries and paired statistics of one metric; ``a[i]`` and ``b[i]`` are pair ``i``."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    losses = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    sides = {name: {"median": statistics.median(v), "q1": quantile(v, 0.25),
                    "q3": quantile(v, 0.75)} for name, v in (("a", a), ("b", b))}
    ratios = [y / x for x, y in zip(a, b)]
    gain = sign * (sides["a"]["median"] - sides["b"]["median"])
    spread = sides["a"]["q3"] - sides["a"]["q1"]
    return {
        "better": better,
        **sides,
        "median_change": sides["b"]["median"] / sides["a"]["median"] - 1.0,
        "quartiles_overlap": (sides["a"]["q1"] <= sides["b"]["q3"]
                              and sides["b"]["q1"] <= sides["a"]["q3"]),
        "wins": wins,
        "losses": losses,
        "ties": len(a) - wins - losses,
        "gap": gain,
        "spread_a": spread,
        "gap_exceeds_spread": gain > spread,
        "gain_rule_met": len(a) >= MIN_PAIRS and wins >= 0.9 * len(a) and gain > spread,
        "median_ratio": statistics.median(ratios),
        "sign_test_p": sign_test_p(wins, losses),
        "ratio_interval_95": list(bootstrap_interval(ratios, seed)),
    }


def abba(pairs: int) -> list[tuple[int, str]]:
    """``(pair, side)`` in run order: A first in even pairs, B first in odd ones."""
    return [(i, side) for i in range(pairs) for side in ("AB" if i % 2 == 0 else "BA")]


def export(rev: str, dest: Path) -> dict:
    """Extract ``rev`` into ``dest``; its resolved ids, for the record."""
    ids = {"rev": rev}
    for key, spec in (("tree", f"{rev}^{{tree}}"), ("src_tree", f"{rev}:src")):
        ids[key] = subprocess.run(["git", "rev-parse", spec], cwd=ROOT, check=True,
                                  capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return ids


def run_once(checkout: Path, workload: str, seed: int, log: Path) -> dict:
    """One perfbench run in ``checkout``: its metrics, tally, CPU time and elapsed time."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with open(log, "w+b") as out:
        proc = subprocess.Popen(argv, cwd=checkout, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", errors="replace")
    elapsed = time.perf_counter() - start
    lines = text.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench in {checkout} exited {proc.returncode}:\n{text}")
    report = json.loads(lines[-1])
    if report["failed"]:
        raise RuntimeError(
            f"perfbench in {checkout}: {report['failed']} failed operations:\n{text}")
    return {
        **{name: m["value"] for name, m in report["metrics"].items()},
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "failed": report["failed"],
        "attempted": report["attempted"],
        "elapsed_s": elapsed,
    }


def cpu_model() -> str:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return platform.processor()
    return next((line.split(":", 1)[1].strip() for line in lines
                 if line.startswith("model name")), platform.processor())


def machine() -> dict:
    return {
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better["cpu_s"] = "lower"
    host = {**machine(), "load_before": os.getloadavg()}
    runs = {"A": [None] * args.pairs, "B": [None] * args.pairs}
    with tempfile.TemporaryDirectory(prefix="ab_bench-") as tmp:
        tmp = Path(tmp)
        checkouts = {"A": tmp / "a", "B": tmp / "b"}
        revisions = {side: export(rev, checkouts[side])
                     for side, rev in (("A", args.rev_a), ("B", args.rev_b))}
        for order, (pair, side) in enumerate(abba(args.pairs)):
            record = run_once(checkouts[side], args.workload, args.seed, tmp / "run.log")
            runs[side][pair] = {"order": order, **record}
            print(f"pair {pair} {side}: " + "  ".join(
                f"{name} {record[name]:.6g}" for name in better), flush=True)
    host["load_after"] = os.getloadavg()

    entry = {
        "workload": args.workload,
        "seed": args.seed,
        "revisions": revisions,
        "pairs": [{"a": a, "b": b} for a, b in zip(runs["A"], runs["B"])],
        "metrics": {name: compare([r[name] for r in runs["A"]], [r[name] for r in runs["B"]],
                                  direction, args.seed)
                    for name, direction in better.items()},
        "machine": host,
    }
    document = (json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists()
                else {"runs": []})
    document["runs"].append(entry)
    args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    for name, m in entry["metrics"].items():
        print(f"{name:12s} A {m['a']['median']:.6g} [{m['a']['q1']:.6g}, {m['a']['q3']:.6g}]"
              f"  B {m['b']['median']:.6g} [{m['b']['q1']:.6g}, {m['b']['q3']:.6g}]"
              f"  wins {m['wins']}/{args.pairs}  ratio {m['median_ratio']:.4g}"
              f"  p {m['sign_test_p']:.3g}  gap>spread {m['gap_exceeds_spread']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
