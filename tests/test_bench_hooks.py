"""The benchmark's traced run still finds every function it hooks.

``perfbench/tracer.py`` wraps the functions named in ``TARGETS`` and
``COUNTED`` and reads some of their arguments by parameter name. A rename in
the package would otherwise surface only as a crash of
``perfbench/run.py --trace 1``; these tests read the tracer's tables without
changing them.
"""

import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

import uqeval.cli  # noqa: F401  (imports every module the tracer hooks)

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# The parameters each size reader in TARGETS binds with ``_arg(call, name)``.
READ_PARAMETERS = {
    ("uqeval.models", "fit_adam"): ("config", "y"),
    ("uqeval.demo", "write_demo_artifacts"): ("out_dir",),
    ("uqeval.tensor", "load_predictions"): ("path",),
    ("uqeval.tensor", "save_predictions"): ("path", "tensor"),
    ("uqeval.tensor", "load_labels"): ("path",),
    ("uqeval.aggregate", "aggregate"): ("tensor",),
    ("uqeval.aggregate", "load_summaries"): ("path",),
    ("uqeval.manifest", "file_sha256"): ("path",),
}


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_hook_point_resolves(tracer):
    hooks = [(m, a) for m, a, _, _ in tracer.TARGETS] + [(m, a) for m, a, _ in tracer.COUNTED]
    for module, attr in hooks:
        assert module in sys.modules, module
        assert callable(getattr(sys.modules[module], attr, None)), (module, attr)
    assert inspect.isclass(sys.modules["uqeval.tensor"].PredictionTensor)


def test_size_readers_find_their_parameters(tracer):
    targets = {(m, a) for m, a, _, _ in tracer.TARGETS}
    assert set(READ_PARAMETERS) <= targets
    read = set(re.findall(r'_arg\(call, "(\w+)"\)', TRACER.read_text(encoding="utf-8")))
    assert read == {name for names in READ_PARAMETERS.values() for name in names}
    for (module, attr), names in READ_PARAMETERS.items():
        parameters = inspect.signature(getattr(sys.modules[module], attr)).parameters
        for name in names:
            assert name in parameters, (module, attr, name)


@pytest.fixture(scope="module")
def traced_quick_demo(tracer):
    """The tracer and the result of one traced quick demo, trained on a pool of two workers."""
    from uqeval import demo

    hooks = tracer.Tracer()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("os.sched_getaffinity", lambda pid: {0, 1}, raising=False)
        hooks.install()
        try:
            result, _ = demo.evaluate_demo(7, demo.QUICK_PRESET)
        finally:
            hooks.uninstall()
    return hooks, result


def test_traced_demo_pools_its_jobs(traced_quick_demo):
    # the pool pickles each job's function by name; a job function the tracer
    # wraps would be its closure, which pickle cannot find
    _, result = traced_quick_demo
    assert result.report["seed"] == 7


def test_traced_demo_reaches_its_training_hook(traced_quick_demo):
    hooks, _ = traced_quick_demo
    (build,) = [s for s in hooks.spans if s.name == "demo.build_demo_models"]
    assert build.parent is not None
    assert hooks.spans[build.parent].name == "demo.evaluate_demo"
