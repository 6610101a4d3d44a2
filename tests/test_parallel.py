"""Forked workers train models with the results of an inline run; predictions files start no worker."""

import concurrent.futures
import multiprocessing
import os
import warnings

import numpy as np
import pytest

import uqeval.tensor
from uqeval import (EnsembleSpec, MlpSpec, TrainConfig, TrainingDivergedError, ValidationError,
                    save_predictions, train_ensemble)
from uqeval.cli import main
from uqeval.models import Mlp, _map_jobs, _train_job
from uqeval.tensor import PredictionTensor

from test_golden_digests import artifact_digests
from test_models import assert_same_parameters, xor_data

ENSEMBLE = EnsembleSpec(member_count=5, master_seed=9)
CONFIG = TrainConfig(epochs=4, batch_size=8, seed=2)


@pytest.fixture
def pools(monkeypatch):
    """Counts the worker pools started; every one is a real pool."""
    started = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return started


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def worker_pid(i):
    return i, os.getpid()


def test_results_come_back_in_job_order_from_workers(monkeypatch, pools):
    usable_cpus(monkeypatch, 2)
    results = _map_jobs([(worker_pid, i) for i in range(7)])
    assert [i for i, _ in results] == list(range(7))
    assert os.getpid() not in {pid for _, pid in results}
    assert [args[0] for args in pools] == [2]


def test_one_cpu_runs_inline(monkeypatch, pools):
    usable_cpus(monkeypatch, 1)
    assert _map_jobs([(worker_pid, 0), (worker_pid, 1)]) == [(0, os.getpid()),
                                                             (1, os.getpid())]
    assert pools == []


def test_workers_train_the_inline_weights(monkeypatch, pools):
    x, y = xor_data()
    usable_cpus(monkeypatch, 1)
    inline = train_ensemble(ENSEMBLE, CONFIG, (x, y))
    usable_cpus(monkeypatch, 3)
    pooled = train_ensemble(ENSEMBLE, CONFIG, (x, y))
    assert len(pools) == 1
    for a, b in zip(inline, pooled):
        assert_same_parameters(a, b)
        assert a.loss_history == b.loss_history


def test_diverging_member_in_workers_raises_with_its_epoch(monkeypatch, pools):
    x, y = xor_data()
    config = TrainConfig(learning_rate=1e200, epochs=3, seed=1)
    errors = []
    for cpus in (1, 2):
        usable_cpus(monkeypatch, cpus)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TrainingDivergedError) as info:
                train_ensemble(ENSEMBLE, config, (x, y))
        errors.append(info.value)
    assert len(pools) == 1
    inline, pooled = errors
    assert pooled.epoch == inline.epoch == 0
    assert str(pooled) == str(inline)


def ensemble_in_daemon():
    assert multiprocessing.current_process().daemon
    x, y = xor_data()
    return train_ensemble(ENSEMBLE, CONFIG, (x, y))


def test_daemon_process_trains_inline(monkeypatch):
    # a daemon may not start children, so the pool must not be tried there
    usable_cpus(monkeypatch, 2)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        from_daemon = pool.apply_async(ensemble_in_daemon).get(timeout=120)
    x, y = xor_data()
    for a, b in zip(train_ensemble(ENSEMBLE, CONFIG, (x, y)), from_daemon):
        assert_same_parameters(a, b)
        assert a.loss_history == b.loss_history


def quick_demo_digests(folder, monkeypatch) -> list[str]:
    """Run ``demo --quick --seed 7 --out demo`` in ``folder``; the digest line of each file."""
    folder.mkdir()
    monkeypatch.chdir(folder)
    assert main(["demo", "--quick", "--seed", "7", "--out", "demo"]) == 0
    return artifact_digests.digest_lines(folder / "demo")


def test_demo_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch, pools):
    usable_cpus(monkeypatch, 1)
    one = quick_demo_digests(tmp_path / "one", monkeypatch)
    assert pools == []
    usable_cpus(monkeypatch, 2)
    two = quick_demo_digests(tmp_path / "two", monkeypatch)
    # one pool for the comparison, the MC-dropout model and the ensemble
    assert len(pools) == 1
    assert one == two


def train_job(widths, epochs, seed, data, init=None, lr=0.01):
    """A :func:`_map_jobs` job of :func:`_train_job`."""
    return (_train_job, MlpSpec(widths, seed=seed),
            TrainConfig(learning_rate=lr, epochs=epochs, batch_size=8, seed=seed), *data, init)


def test_inline_and_pooled_results_are_equal(monkeypatch, pools):
    data = xor_data()
    jobs = [train_job((2, 8, 2), 2, 1, data), train_job((2, 16, 8, 2), 3, 2, data),
            train_job((2, 16, 8, 2), 2, 3, data, init=Mlp(MlpSpec((2, 16, 8, 2), seed=8)).flat),
            train_job((2, 8, 2), 2, 4, data, init=Mlp(MlpSpec((2, 8, 2), seed=9)).flat),
            train_job((2, 6, 2), 4, 5, data)]
    usable_cpus(monkeypatch, 1)
    inline = _map_jobs(jobs)
    usable_cpus(monkeypatch, 2)
    pooled = _map_jobs(jobs)
    assert len(pools) == 1
    assert [m.spec for m in pooled] == [job[1] for job in jobs]
    for a, b in zip(inline, pooled):
        assert_same_parameters(a, b)
        assert a.loss_history == b.loss_history


@pytest.mark.parametrize("cpus", [1, 2])
def test_first_failure_in_job_order_raises(monkeypatch, cpus):
    usable_cpus(monkeypatch, cpus)
    data = xor_data()
    diverging = train_job((2, 8, 2), 3, 1, data, lr=1e200)
    misshapen = train_job((3, 8, 2), 1, 2, data)  # input width 3 against 2 columns
    fine = train_job((2, 8, 2), 1, 3, data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TrainingDivergedError, match="non-finite at epoch 0"):
            _map_jobs([fine, diverging, misshapen])
        with pytest.raises(ValidationError, match="input width 3 does not match data dim 2"):
            _map_jobs([fine, misshapen, diverging])


def test_a_failing_job_leaves_the_old_file(tmp_path, monkeypatch):
    rendered, real = [], uqeval.tensor._render_rows

    def render(*job):  # the third job fails, after two were written
        if len(rendered) == 2:
            raise ValueError("job 3 failed")
        rendered.append(real(*job))
        return rendered[-1]

    monkeypatch.setattr(uqeval.tensor, "_render_rows", render)
    monkeypatch.setattr(uqeval.tensor, "SAVE_JOB_VALUES", 4 * 3 * 2)  # jobs of 4 samples
    rng = np.random.default_rng(4)
    tensor = PredictionTensor(rng.dirichlet(np.ones(2), size=(11, 3)), [f"s{i}" for i in range(11)])
    path = tmp_path / "p.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(ValueError, match="^job 3 failed$"):
        save_predictions(tensor, path, header_comment="m")
    assert len(rendered) == 2
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_an_export_sized_tensor_starts_no_pool(tmp_path, monkeypatch, pools):
    usable_cpus(monkeypatch, 8)
    rng = np.random.default_rng(0)
    tensor = PredictionTensor(rng.dirichlet(np.ones(10), size=(4000, 50)),
                              [f"s{i}" for i in range(4000)])
    save_predictions(tensor, tmp_path / "p.csv")
    assert pools == []
