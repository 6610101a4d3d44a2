"""One benchmark run of one workload, in a process of its own.

``run.py`` starts this script with the checkout's ``src`` first on
``PYTHONPATH`` and reaps it with ``os.wait4``. It makes the inputs from the
seed, runs one discarded warm-up iteration, then closed-loop iterations for
the given seconds, checks every output against the oracles, and writes a
JSON result file. With ``--trace 1`` it alternates untraced and traced
iterations in process and adds the per-layer metrics of the traced ones.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import oracles
import process
from tracer import Tracer, layer_metrics

CHECKOUT = Path(__file__).resolve().parent.parent
CLI_TIMEOUT = 120.0
MAX_ERRORS = 20

# The files the demo declares as its results (DEMO_ARTIFACTS in uqeval.demo).
DEMO_ARTIFACTS = (
    "dataset.csv", "predictions_mcd.csv", "predictions_ensemble.csv", "predictions_emcd.csv",
    "summaries_mcd.csv", "summaries_ensemble.csv", "summaries_emcd.csv", "sweep.csv",
    "report.json",
)
DEMO_TEST_SIZE = 150  # test split of the default preset's 600 points
SCHEMES = ("mcd", "ensemble", "emcd")
CLI_THRESHOLD = 0.3
CLI_GRID = [k / 10 for k in range(1, 10)]  # the sweep subcommand's default grid
API_GRID = [k / 100 for k in range(101)]
BINS = 10


@dataclass(frozen=True)
class Timed:
    wall: float
    cpu: float


@contextlib.contextmanager
def stopwatch(out: list):
    """Append the wall and CPU time (this process and reaped children) of the block."""

    def cpu():
        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
        return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime

    wall0, cpu0 = time.perf_counter(), cpu()
    yield
    out.append(Timed(time.perf_counter() - wall0, cpu() - cpu0))


def digests(paths) -> dict[str, str]:
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}


class Tally:
    """Operations attempted and failed; an operation is a CLI command or a public call."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def op(self, name: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            room = MAX_ERRORS - len(self.errors)
            self.errors += [f"{name}: {e}" for e in errors[:min(3, max(room, 0))]]


def checked(check, *args) -> list[str]:
    """Run an output check; a check that raises (missing file, bad JSON) is a failure."""
    try:
        return check(*args)
    except Exception as exc:  # a malformed output must fail the operation, not the run
        return [f"{type(exc).__name__}: {exc}"]


def run_steps(steps, timings: list):
    """Call each (name, step(results)) in turn, timed as one block; stop at an exception.

    Returns the results by name and, for the step that raised, its error.
    """
    results, failure = {}, None
    with stopwatch(timings):
        for name, step in steps:
            try:
                results[name] = step(results)
            except Exception as exc:  # counted as a failed operation by the caller
                failure = (name, f"{type(exc).__name__}: {exc}")
                break
    return results, failure


def tally_steps(tally: Tally, results: dict, failure, checks: dict) -> None:
    for name, value in results.items():
        tally.op(name, checked(checks[name], value))
    if failure is not None:
        name, error = failure
        tally.op(name, [error])


class Subprocesses:
    """Each CLI command in a fresh interpreter, as a user runs it."""

    def __init__(self, work: Path):
        self.work = work
        self.peak_rss_mb = 0.0

    def __call__(self, argv: list[str]) -> list[str]:
        done = process.run([sys.executable, "-m", "uqeval.cli", *argv], dict(os.environ),
                           CLI_TIMEOUT, self.work / "stderr.txt")
        self.peak_rss_mb = max(self.peak_rss_mb, done.peak_rss_mb)
        return [] if done.code == 0 else [f"exit {done.code}: {done.stderr.strip()[-400:]}"]


class InProcess:
    """``uqeval.cli.main(argv)`` in this interpreter, so the tracer sees every call."""

    def __call__(self, argv: list[str]) -> list[str]:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = sys.modules["uqeval.cli"].main(argv)
        except Exception as exc:  # the command crashed: a failed operation
            return [f"{type(exc).__name__}: {exc}"]
        return [] if code == 0 else [f"exit {code}"]


class Demo:
    """``uqeval demo`` with the default preset; the warm-up runs ``--quick``."""

    throughput = (1, "demo runs")
    via_cli = True

    def __init__(self, seed: int, work: Path, cli, tally: Tally):
        self.seed, self.work, self.cli, self.tally = seed, work, cli, tally
        self.inputs = []  # the demo makes its own data from the seed
        self.reference = None

    def _run(self, extra: list[str], out: Path, timings: list) -> list[str]:
        shutil.rmtree(out, ignore_errors=True)
        with stopwatch(timings):
            return self.cli(["demo", "--seed", str(self.seed), *extra, "--out", str(out)])

    def warm_up(self) -> None:
        self._run(["--quick"], self.work / "warm", [])

    def iteration(self) -> Timed:
        out, timings = self.work / "demo", []
        errors = self._run([], out, timings)
        self.tally.op("demo", errors or checked(self.check, out))
        return timings[0]

    def check(self, out: Path) -> list[str]:
        missing = [n for n in DEMO_ARTIFACTS if not (out / n).is_file()]
        if missing:
            return [f"missing artifacts {missing}"]
        errors = []
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        for scheme in SCHEMES:
            n = sum(report["schemes"][scheme]["ucm"]["counts"].values())
            if n != DEMO_TEST_SIZE:
                errors.append(f"report.json: {scheme} counts sum to {n}, want {DEMO_TEST_SIZE}")
        rows = oracles.data_rows(out / "sweep.csv")
        col = {name: i for i, name in enumerate(rows[0])}
        for row in rows[1:]:
            n = sum(int(row[col[k]]) for k in ("tc", "tu", "fu", "fc"))
            if n != DEMO_TEST_SIZE:
                errors.append(f"sweep.csv: row {row[:2]} counts sum to {n}")
        got = digests(out / name for name in DEMO_ARTIFACTS)
        if self.reference is None:
            self.reference = got
        elif got != self.reference:
            changed = sorted(k for k in got if got[k] != self.reference[k])
            errors.append(f"artifacts differ from the first iteration at one seed: {changed}")
        return errors


class CliFiles:
    """A 4000 x 50 x 10 predictions CSV through five chained CLI commands."""

    N, T, C, MEMBERS = 4000, 50, 10, 10
    WARM_N = 100
    throughput = (N * T, "prediction rows")
    via_cli = True

    def __init__(self, seed: int, work: Path, cli, tally: Tally):
        self.work, self.cli, self.tally = work, cli, tally
        probs, labels = inputs.stochastic_predictions(seed, self.N, self.T, self.C)
        self.ids = inputs.sample_ids(self.N)
        self.files = (work / "predictions.csv", work / "labels.csv")
        stated = inputs.write_predictions_csv(self.files[0], self.ids, probs)
        inputs.write_labels_csv(self.files[1], self.ids, labels)
        self.expected = oracles.expected(stated, labels, self.MEMBERS)
        self.inputs = [inputs.describe_file("predictions.csv", self.files[0], probs.shape),
                       inputs.describe_file("labels.csv", self.files[1], labels.shape)]
        k = self.WARM_N
        self.warm_files = (work / "warm_predictions.csv", work / "warm_labels.csv")
        inputs.write_predictions_csv(self.warm_files[0], self.ids[:k], probs[:k])
        inputs.write_labels_csv(self.warm_files[1], self.ids[:k], labels[:k])

    def chain(self, files, out: Path) -> list[tuple[str, list[str]]]:
        predictions, labels = (str(f) for f in files)
        pair = ["--summaries", str(out / "aggregate" / "summaries.csv"), "--labels", labels]
        return [
            ("aggregate", ["aggregate", "--in", predictions, "--scheme", "emcd",
                           "--partition", f"{self.MEMBERS}x{self.T // self.MEMBERS}"]),
            ("evaluate", ["evaluate", *pair, "--threshold", str(CLI_THRESHOLD)]),
            ("sweep", ["sweep", *pair]),
            ("ece", ["ece", *pair]),
            ("separate", ["separate", *pair]),
        ]

    def _run(self, files, out: Path, timings: list) -> list[tuple[str, list[str]]]:
        shutil.rmtree(out, ignore_errors=True)
        with stopwatch(timings):
            return [(name, self.cli(argv + ["--out", str(out / name)]))
                    for name, argv in self.chain(files, out)]

    def warm_up(self) -> None:
        self._run(self.warm_files, self.work / "warm", [])

    def iteration(self) -> Timed:
        out, timings = self.work / "cli", []
        exp = self.expected
        checks = {
            "aggregate": lambda: oracles.check_summaries_file(
                out / "aggregate" / "summaries.csv", self.ids, exp),
            "evaluate": lambda: oracles.check_ucm_json(
                out / "evaluate" / "ucm.json", CLI_THRESHOLD, exp),
            "sweep": lambda: oracles.check_sweep_json(out / "sweep" / "sweep.json", CLI_GRID, exp),
            "ece": lambda: oracles.check_calibration_json(
                out / "ece" / "calibration.json", BINS, exp),
            "separate": lambda: oracles.check_separation_json(
                out / "separate" / "separation.json", exp),
        }
        for name, errors in self._run(self.files, out, timings):
            self.tally.op(name, errors or checked(checks[name]))
        return timings[0]


class ApiEval:
    """The evaluation calls in process on 10^5 x 10 x 2 in-memory predictions."""

    N, T, C = 100_000, 10, 2
    WARM_N = 1000
    throughput = (N, "samples")
    via_cli = False

    def __init__(self, seed: int, work: Path, cli, tally: Tally):
        import uqeval

        self.api, self.tally = uqeval, tally
        self.probs, self.labels = inputs.stochastic_predictions(seed, self.N, self.T, self.C)
        self.ids = tuple(inputs.sample_ids(self.N))
        self.label_set = uqeval.LabelSet(self.ids, self.labels)
        self.expected = oracles.expected(self.probs, self.labels)
        self.inputs = [inputs.describe_array("probs", self.probs),
                       inputs.describe_array("labels", self.labels)]
        k = self.WARM_N
        self.warm = (self.probs[:k], self.ids[:k], uqeval.LabelSet(self.ids[:k], self.labels[:k]),
                     self.labels[:k])

    def steps(self, probs, ids, label_set, labels):
        api = self.api
        scores = sys.modules["uqeval.stats"].positive_class_scores
        return [
            ("PredictionTensor", lambda r: api.PredictionTensor(probs, ids)),
            ("aggregate", lambda r: api.aggregate(r["PredictionTensor"], api.MCD)),
            ("build_ucm", lambda r: api.build_ucm(r["aggregate"], label_set, CLI_THRESHOLD)),
            ("threshold_sweep", lambda r: api.threshold_sweep(r["aggregate"], label_set, API_GRID)),
            ("calibration_report", lambda r: api.calibration_report(r["aggregate"], label_set, BINS)),
            ("separation_report", lambda r: api.separation_report(r["aggregate"], label_set)),
            ("accuracy", lambda r: api.accuracy(r["aggregate"], label_set)),
            ("positive_class_scores", lambda r: scores(r["aggregate"])),
            ("auc_binary", lambda r: api.auc_binary(r["positive_class_scores"], labels)),
        ]

    def warm_up(self) -> None:
        run_steps(self.steps(*self.warm), [])

    def iteration(self) -> Timed:
        timings = []
        results, failure = run_steps(
            self.steps(self.probs, self.ids, self.label_set, self.labels), timings)
        exp = self.expected

        def counts(where, ucm):
            return oracles.check_counts(where, ucm.threshold, (ucm.tc, ucm.tu, ucm.fu, ucm.fc), exp)

        def sweep(curve):
            points = list(curve)
            if [p.threshold for p in points] != API_GRID:
                return [f"threshold_sweep: {len(points)} points, want {len(API_GRID)}"]
            return [e for p in points for e in counts("threshold_sweep", p.ucm)]

        def separation(report):
            keys = ("n_correct", "n_incorrect", "correct_mean", "correct_median",
                    "incorrect_mean", "incorrect_median")
            return oracles.check_separation("separation_report",
                                            {k: getattr(report, k) for k in keys}, exp)

        slack = int(exp.argmax_tie.sum())
        checks = {
            "PredictionTensor": lambda t: [] if (t.n_samples, t.n_passes, t.n_classes) == (
                self.N, self.T, self.C) else ["wrong shape"],
            "aggregate": lambda s: [],  # its numbers are checked through every report below
            "build_ucm": lambda u: counts("build_ucm", u),
            "threshold_sweep": sweep,
            "calibration_report": lambda r: oracles.check_close(
                "calibration_report.ece", r.ece, exp.ece(BINS), oracles.VALUE_TOL),
            "separation_report": separation,
            "accuracy": lambda a: oracles.check_close(
                "accuracy", a, float(exp.correct.mean()), slack / self.N),
            "positive_class_scores": lambda s: [] if np.allclose(
                s, exp.mean[:, 1], rtol=0.0, atol=oracles.VALUE_TOL) else ["scores differ"],
            "auc_binary": lambda a: [] if slack else oracles.check_close(
                "auc_binary", a, exp.auc(), oracles.AUC_TOL),
        }
        tally_steps(self.tally, results, failure, checks)
        return timings[0]


class Export:
    """Write a 4000 x 50 x 10 tensor, its EMCD summaries and its labels."""

    N, T, C, MEMBERS = 4000, 50, 10, 10
    throughput = (N * T, "prediction rows")
    via_cli = False

    def __init__(self, seed: int, work: Path, cli, tally: Tally):
        import uqeval

        self.api, self.work, self.tally = uqeval, work, tally
        self.probs, self.labels = inputs.stochastic_predictions(seed, self.N, self.T, self.C)
        self.ids = inputs.sample_ids(self.N)
        self.tensor = uqeval.PredictionTensor(self.probs, tuple(self.ids))
        scheme = uqeval.emcd_scheme([self.T // self.MEMBERS] * self.MEMBERS)
        self.summaries = uqeval.aggregate(self.tensor, scheme)
        self.label_set = uqeval.LabelSet(tuple(self.ids), self.labels)
        self.expected = oracles.expected(self.probs, self.labels, self.MEMBERS)
        self.inputs = [inputs.describe_array("probs", self.probs),
                       inputs.describe_array("labels", self.labels)]
        self.paths = {name: work / f"{name}.csv" for name in ("predictions", "summaries", "labels")}
        self.reference = None

    def steps(self):
        api, paths = self.api, self.paths
        return [
            ("save_predictions", lambda r: api.save_predictions(self.tensor, paths["predictions"])),
            ("save_summaries", lambda r: api.save_summaries(self.summaries, paths["summaries"])),
            ("save_labels", lambda r: api.save_labels(self.label_set, paths["labels"])),
        ]

    def warm_up(self) -> None:
        run_steps(self.steps(), [])

    def iteration(self) -> Timed:
        timings = []
        results, failure = run_steps(self.steps(), timings)
        files = {"save_predictions": "predictions", "save_summaries": "summaries",
                 "save_labels": "labels"}
        full = {
            "predictions": lambda p: oracles.check_predictions_file(p, self.ids, self.probs),
            "summaries": lambda p: oracles.check_summaries_file(p, self.ids, self.expected),
            "labels": lambda p: oracles.check_labels_file(p, self.ids, self.labels),
        }

        def check(f):
            # The first iteration's files are parsed in full; later ones must match them.
            if self.reference is None:
                return full[f](self.paths[f])
            if digests([self.paths[f]]) != self.reference[f]:
                return [f"{f}.csv differs from the first iteration"]
            return []

        failed = self.tally.failed
        tally_steps(self.tally, results, failure,
                    {step: (lambda _, f=f: check(f)) for step, f in files.items()})
        if self.reference is None and self.tally.failed == failed:
            self.reference = {f: digests([p]) for f, p in self.paths.items()}
        return timings[0]


WORKLOADS = {"demo": Demo, "cli-files": CliFiles, "api-eval": ApiEval, "export": Export}


def measure(iteration, seconds: float, least: int) -> list[Timed]:
    """Closed loop: start the next iteration while it is expected to end in time."""
    done: list[Timed] = []
    start = time.perf_counter()
    while len(done) < least or (time.perf_counter() - start
                                + statistics.median(t.wall for t in done) <= seconds):
        done.append(iteration())
    return done


def environment() -> dict:
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "threads": {n: os.environ.get(n, "unset") for n in names},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    import uqeval.cli

    where = Path(uqeval.__file__).resolve()
    if not where.is_relative_to(CHECKOUT / "src"):
        sys.stderr.write(f"uqeval was imported from {where}, not from this checkout\n")
        return 2

    tally = Tally()
    cli = InProcess() if args.trace else Subprocesses(args.work)
    workload = WORKLOADS[args.workload](args.seed, args.work, cli, tally)
    workload.warm_up()
    result = {"inputs": workload.inputs, "throughput": workload.throughput,
              "environment": environment()}
    if not args.trace:
        peaks = []

        def iteration():
            cli.peak_rss_mb = 0.0
            timed = workload.iteration()
            peaks.append(cli.peak_rss_mb)
            return timed

        result["walls"] = [t.wall for t in measure(iteration, args.seconds, least=2)]
        result["peak_rss_mb"] = peaks if workload.via_cli else None
    else:
        tracer = Tracer()
        untraced, traced, layers = [], [], []

        def pair():
            untraced.append(workload.iteration())
            tracer.trace += 1
            tracer.install()
            try:
                timed = workload.iteration()
            finally:
                tracer.uninstall()
            layers.append(layer_metrics(tracer, tracer.trace, timed.wall, timed.cpu))
            traced.append(timed)
            return Timed(untraced[-1].wall + timed.wall, 0.0)

        measure(pair, args.seconds, least=1)
        tracer.dump(args.spans)
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead"] = (statistics.median(t.wall for t in traced)
                                     / statistics.median(t.wall for t in untraced) - 1.0)
        result["walls"] = [t.wall for t in untraced]
        result["traced_walls"] = [t.wall for t in traced]
        result["layers"] = metrics
    result.update(attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
