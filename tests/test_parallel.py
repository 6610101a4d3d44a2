"""Models train in forked workers with the weights of an inline run, on one schedule."""

import concurrent.futures
import multiprocessing
import os
import warnings

import numpy as np
import pytest

from uqeval import EnsembleSpec, MlpSpec, TrainConfig, TrainingDivergedError, train_ensemble
from uqeval.demo import QUICK_PRESET, run_demo
from uqeval.models import Mlp, _map_jobs, _train_job, fit_adam

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


@pytest.fixture
def submitted(monkeypatch, pools):
    """The arguments of every job submitted to a pool, in submission order."""
    seen = []
    submit = concurrent.futures.ProcessPoolExecutor.submit

    def recording(self, fn, *args, **kwargs):
        seen.append(args)
        return submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "submit", recording)
    return seen


def usable_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def worker_pid(i):
    return i, os.getpid()


def test_results_come_back_in_job_order_from_workers(monkeypatch, pools):
    usable_cpus(monkeypatch, 2)
    results = _map_jobs(worker_pid, [(i,) for i in range(7)])
    assert [i for i, _ in results] == list(range(7))
    assert os.getpid() not in {pid for _, pid in results}
    assert [args[0] for args in pools] == [2]


def test_one_cpu_runs_inline(monkeypatch, pools):
    usable_cpus(monkeypatch, 1)
    assert _map_jobs(worker_pid, [(0,), (1,)]) == [(0, os.getpid()), (1, os.getpid())]
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


def test_demo_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch, pools):
    usable_cpus(monkeypatch, 1)
    run_demo(7, tmp_path / "one", QUICK_PRESET)
    assert pools == []
    usable_cpus(monkeypatch, 2)
    run_demo(7, tmp_path / "two", QUICK_PRESET)
    # one pool for the MC-dropout model, the ensemble, the backbone and the heads
    assert len(pools) == 1
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes(), name


def train_job(widths, epochs, seed, data, init=None, lr=0.01, dropout=0.25):
    """A :func:`_train_job` job; ``seed`` names it in the submission order."""
    job = (MlpSpec(widths, dropout_rate=dropout, seed=seed),
           TrainConfig(learning_rate=lr, epochs=epochs, batch_size=8, seed=seed), *data)
    return job if init is None else (*job, init)


@pytest.mark.parametrize("cpus", [1, 2])
def test_dependent_job_starts_from_its_dependencys_buffer(monkeypatch, submitted, cpus):
    usable_cpus(monkeypatch, cpus)
    data = xor_data()
    jobs = [train_job((2, 8, 4, 2), 3, 1, data), train_job((2, 8, 4, 2), 2, 2, data, init=0)]
    backbone, head = _map_jobs(_train_job, jobs)
    reference = Mlp(jobs[1][0])
    reference.flat[...] = backbone.flat
    fit_adam(reference, jobs[1][1], *data)
    assert_same_parameters(head, reference)
    assert head.loss_history == reference.loss_history
    if cpus > 1:
        assert [args[0].seed for args in submitted] == [1, 2]
        assert np.array_equal(submitted[1][4], backbone.flat)


def test_inline_and_pooled_results_are_equal(monkeypatch, pools):
    data = xor_data()
    jobs = [train_job((2, 8, 2), 2, 1, data), train_job((2, 16, 8, 2), 3, 2, data),
            train_job((2, 16, 8, 2), 2, 3, data, init=1), train_job((2, 8, 2), 2, 4, data, init=0),
            train_job((2, 6, 2), 4, 5, data)]
    usable_cpus(monkeypatch, 1)
    inline = _map_jobs(_train_job, jobs)
    usable_cpus(monkeypatch, 2)
    pooled = _map_jobs(_train_job, jobs)
    assert len(pools) == 1
    assert [m.spec for m in pooled] == [job[0] for job in jobs]
    for a, b in zip(inline, pooled):
        assert_same_parameters(a, b)
        assert a.loss_history == b.loss_history


@pytest.mark.parametrize("cpus", [1, 2])
def test_failing_dependency_raises_its_own_error_and_starts_no_dependent(monkeypatch, submitted,
                                                                         cpus):
    usable_cpus(monkeypatch, cpus)
    started = []

    def counted_fit(model, *args):
        started.append(model.spec.seed)
        fit_adam(model, *args)

    monkeypatch.setattr("uqeval.models.fit_adam", counted_fit)
    data = xor_data()
    jobs = [train_job((2, 8, 2), 3, 1, data, lr=1e200, dropout=0.0),
            train_job((2, 8, 2), 2, 2, data, init=0), train_job((2, 6, 2), 2, 3, data)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TrainingDivergedError, match="non-finite at epoch 0") as info:
            _map_jobs(_train_job, jobs)
    assert info.value.epoch == 0
    if cpus == 1:
        assert started == [1]  # inline, the first failure ends the list
    else:
        assert [args[0].seed for args in submitted] == [1, 3]


def test_a_job_may_only_start_from_an_earlier_job():
    data = xor_data()
    with pytest.raises(ValueError, match="job 0 starts from job 1, which is not an earlier job"):
        _map_jobs(_train_job, [train_job((2, 8, 2), 1, 1, data, init=1),
                               train_job((2, 8, 2), 1, 2, data)])
