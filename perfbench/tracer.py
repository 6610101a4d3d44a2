"""Spans around the program's public functions, recorded from outside it.

The program is not edited. :meth:`Tracer.install` replaces each target
function with a wrapper that records a span (name, start, end, parent span,
trace id) plus sizes read from the call's arguments or result, and rebinds
every ``uqeval`` module global that referred to the original, because
``demo.py`` and ``cli.py`` bind ``fit_adam``, ``load_predictions`` and others
with from-imports. Modules come from ``sys.modules``: ``uqeval.aggregate`` as
an attribute is the re-exported function, not the module. Spans nest as the
calls do (``train_ensemble`` -> ``train_mlp`` -> ``fit_adam``), and a span's
self time is its duration minus that of its children.

Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field


def _arg(call, name):
    return call.arguments[name]


def _file(path) -> dict:
    return {"bytes": os.path.getsize(path), "file": os.path.realpath(path)}


def _tensor_rows(tensor) -> int:
    return tensor.n_samples * tensor.n_passes


def _fit_steps(call, result) -> dict:
    config, n = _arg(call, "config"), len(_arg(call, "y"))
    return {"steps": config.epochs * math.ceil(n / config.batch_size)}


def _predict_rows(call, result) -> dict:
    tensor = result[0] if isinstance(result, tuple) else result
    return {"rows": _tensor_rows(tensor)}


def _dir_bytes(call, result) -> dict:
    out = _arg(call, "out_dir")
    return {"bytes": sum(e.stat().st_size for e in os.scandir(out) if e.is_file())}


def _thresholds(call, result) -> dict:
    return {"thresholds": len(result)}


def _svg_bytes(call, result) -> dict:
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute, span name, sizes(bound call, result) -> dict or None)
TARGETS = (
    ("uqeval.cli", "main", "cli.main", None),
    ("uqeval.demo", "evaluate_demo", "demo.evaluate_demo", None),
    ("uqeval.demo", "build_demo_models", "demo.build_demo_models", None),
    ("uqeval.demo", "write_demo_artifacts", "demo.write_demo_artifacts", _dir_bytes),
    ("uqeval.models", "train_ensemble", "models.train_ensemble", None),
    ("uqeval.models", "train_mlp", "models.train_mlp", None),
    ("uqeval.models", "fit_adam", "models.fit_adam", _fit_steps),
    ("uqeval.models", "mc_dropout_predict", "models.predict", _predict_rows),
    ("uqeval.models", "ensemble_predict", "models.predict", _predict_rows),
    ("uqeval.models", "emcd_predict", "models.predict", _predict_rows),
    ("uqeval.tensor", "PredictionTensor", "tensor.validate", None),
    ("uqeval.tensor", "load_predictions", "tensor.load_predictions",
     lambda call, result: {**_file(_arg(call, "path")), "rows": _tensor_rows(result)}),
    ("uqeval.tensor", "save_predictions", "tensor.save_predictions",
     lambda call, result: {**_file(_arg(call, "path")),
                           "rows": _tensor_rows(_arg(call, "tensor"))}),
    ("uqeval.tensor", "load_labels", "tensor.load_labels",
     lambda call, result: _file(_arg(call, "path"))),
    ("uqeval.tensor", "save_labels", "tensor.save_labels", None),
    ("uqeval.aggregate", "aggregate", "aggregate.aggregate",
     lambda call, result: {"samples": _arg(call, "tensor").n_samples}),
    ("uqeval.aggregate", "save_summaries", "aggregate.save_summaries", None),
    ("uqeval.aggregate", "load_summaries", "aggregate.load_summaries",
     lambda call, result: _file(_arg(call, "path"))),
    ("uqeval.ucm", "threshold_sweep", "ucm.threshold_sweep", _thresholds),
    ("uqeval.ucm", "separation_report", "ucm.separation_report", None),
    ("uqeval.calibration", "calibration_report", "calibration.calibration_report", None),
    ("uqeval.stats", "compare_models", "stats.compare_models", None),
    ("uqeval.stats", "accuracy", "stats.accuracy", None),
    ("uqeval.stats", "auc_binary", "stats.auc_binary", None),
    ("uqeval.manifest", "file_sha256", "manifest.file_sha256",
     lambda call, result: _file(_arg(call, "path"))),
    ("uqeval.svg", "sweep_svg", "svg.render", _svg_bytes),
    ("uqeval.svg", "reliability_svg", "svg.render", _svg_bytes),
    ("uqeval.svg", "histogram_svg", "svg.render", _svg_bytes),
    ("uqeval.svg", "violin_svg", "svg.render", _svg_bytes),
)

# Functions whose calls are only counted: they run once per threshold inside
# threshold_sweep, whose self time should keep their cost.
COUNTED = (
    ("uqeval.tensor", "aligned_labels", "tensor.aligned_labels"),
    ("uqeval.ucm", "build_ucm", "ucm.build_ucm"),
)

# Spans whose files count as input reads, for cli.input_reads_per_byte.
READS = ("tensor.load_predictions", "tensor.load_labels", "aggregate.load_summaries",
         "manifest.file_sha256")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    root: int
    trace: int
    sizes: dict = field(default_factory=dict)


class Tracer:
    """Records spans and call counts; ``trace`` is the id of the current iteration."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (trace id, name) -> calls
        self.trace = 0
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, sizes):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0, parent,
                        index if parent is None else spans[parent].root, self.trace)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if sizes is not None:
                span.sizes = sizes(signature.bind(*args, **kwargs), result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, name):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[self.trace, name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Wrap every target and rebind each ``uqeval`` global that names it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "uqeval" or n.startswith("uqeval."))]
        wrappers = [(module, attr, self._wrap, (name, sizes))
                    for module, attr, name, sizes in TARGETS]
        wrappers += [(module, attr, self._count, (name,)) for module, attr, name in COUNTED]
        for module_name, attr, wrap, extra in wrappers:
            original = getattr(sys.modules[module_name], attr)
            if inspect.isclass(original):
                self._undo.append((original, "__init__", original.__init__))
                original.__init__ = wrap(original.__init__, *extra)
                continue
            wrapper = wrap(original, *extra)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def layer_metrics(tracer: Tracer, trace: int, wall: float, cpu: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration: the spans with trace id ``trace``."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    dur, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    size = defaultdict(lambda: defaultdict(int))
    reads = defaultdict(dict)  # root span -> {file: bytes}, for distinct input bytes
    roots = 0.0
    for i, s in enumerate(spans):
        if s.trace != trace:
            continue
        dur[s.name] += s.end - s.start
        own[s.name] += s.end - s.start - covered[i]
        calls[s.name] += 1
        for key, value in s.sizes.items():
            if key != "file":
                size[s.name][key] += value
        if s.name in READS:
            size["reads"]["bytes"] += s.sizes["bytes"]
            reads[s.root][s.sizes["file"]] = s.sizes["bytes"]
        if s.parent is None:
            roots += s.end - s.start

    def per(num, den):
        return num / den if den else 0.0

    distinct = sum(sum(files.values()) for files in reads.values())
    return {
        "models.fit_adam.self_s": own["models.fit_adam"],
        "models.fit_adam.calls": calls["models.fit_adam"],
        "models.fit_adam.steps": size["models.fit_adam"]["steps"],
        "models.fit_adam.us_per_step": per(1e6 * own["models.fit_adam"],
                                           size["models.fit_adam"]["steps"]),
        "models.predict.self_s": own["models.predict"],
        "models.predict.rows": size["models.predict"]["rows"],
        "demo.build_demo_models.s": dur["demo.build_demo_models"],
        "demo.evaluate_demo.s": dur["demo.evaluate_demo"],
        "demo.write_demo_artifacts.s": dur["demo.write_demo_artifacts"],
        "demo.write_demo_artifacts.bytes": size["demo.write_demo_artifacts"]["bytes"],
        "tensor.load_predictions.self_s": own["tensor.load_predictions"],
        "tensor.load_predictions.rows_per_s": per(size["tensor.load_predictions"]["rows"],
                                                  own["tensor.load_predictions"]),
        "tensor.load_predictions.bytes": size["tensor.load_predictions"]["bytes"],
        "tensor.save_predictions.self_s": own["tensor.save_predictions"],
        "tensor.save_predictions.rows_per_s": per(size["tensor.save_predictions"]["rows"],
                                                  own["tensor.save_predictions"]),
        "tensor.save_predictions.bytes": size["tensor.save_predictions"]["bytes"],
        "tensor.validate.s": dur["tensor.validate"],
        "tensor.load_labels.self_s": own["tensor.load_labels"],
        "tensor.aligned_labels.calls": tracer.counts[trace, "tensor.aligned_labels"],
        "aggregate.aggregate.self_s": own["aggregate.aggregate"],
        "aggregate.aggregate.samples_per_s": per(size["aggregate.aggregate"]["samples"],
                                                 own["aggregate.aggregate"]),
        "aggregate.save_summaries.self_s": own["aggregate.save_summaries"],
        "aggregate.load_summaries.self_s": own["aggregate.load_summaries"],
        "aggregate.load_summaries.calls": calls["aggregate.load_summaries"],
        "ucm.threshold_sweep.self_s": own["ucm.threshold_sweep"],
        "ucm.threshold_sweep.us_per_threshold": per(1e6 * own["ucm.threshold_sweep"],
                                                    size["ucm.threshold_sweep"]["thresholds"]),
        "ucm.build_ucm.calls": tracer.counts[trace, "ucm.build_ucm"],
        "ucm.separation_report.self_s": own["ucm.separation_report"],
        "calibration.calibration_report.self_s": own["calibration.calibration_report"],
        "stats.auc_binary.self_s": own["stats.auc_binary"],
        "stats.accuracy.self_s": own["stats.accuracy"],
        "stats.compare_models.self_s": own["stats.compare_models"],
        "manifest.file_sha256.bytes": size["manifest.file_sha256"]["bytes"],
        "cli.input_reads_per_byte": per(size["reads"]["bytes"], distinct),
        "svg.render.self_s": own["svg.render"],
        "svg.bytes": size["svg.render"]["bytes"],
        "cli.self_s": own["cli.main"],
        "proc.cpu_s": cpu,
        "proc.cpu_util": per(cpu, wall),
        "trace.unattributed_s": wall - roots,
    }
