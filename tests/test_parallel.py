"""Forked workers train models and format predictions files with the results of an inline run."""

import concurrent.futures
import multiprocessing
import os
import time
import warnings

import numpy as np
import pytest

import uqeval.tensor
from uqeval import (EnsembleSpec, MlpSpec, TrainConfig, TrainingDivergedError, ValidationError,
                    save_predictions, train_ensemble)
from uqeval.demo import QUICK_PRESET, run_demo
from uqeval.models import Mlp, _train_job
from uqeval.tensor import PredictionTensor, _map_jobs

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
    results = list(_map_jobs([(worker_pid, i) for i in range(7)]))
    assert [i for i, _ in results] == list(range(7))
    assert os.getpid() not in {pid for _, pid in results}
    assert [args[0] for args in pools] == [2]


def test_one_cpu_runs_inline(monkeypatch, pools):
    usable_cpus(monkeypatch, 1)
    assert list(_map_jobs([(worker_pid, 0), (worker_pid, 1)])) == [(0, os.getpid()),
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


def test_demo_bytes_do_not_depend_on_worker_count(tmp_path, monkeypatch, pools):
    usable_cpus(monkeypatch, 1)
    run_demo(7, tmp_path / "one", QUICK_PRESET)
    assert pools == []
    usable_cpus(monkeypatch, 2)
    run_demo(7, tmp_path / "two", QUICK_PRESET)
    # one pool for the comparison, the MC-dropout model and the ensemble
    assert len(pools) == 1
    names = sorted(p.name for p in (tmp_path / "one").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "two").iterdir())
    for name in names:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes(), name


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
    inline = list(_map_jobs(jobs))
    usable_cpus(monkeypatch, 2)
    pooled = list(_map_jobs(jobs))
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
            list(_map_jobs([fine, diverging, misshapen]))
        with pytest.raises(ValidationError, match="input width 3 does not match data dim 2"):
            list(_map_jobs([fine, misshapen, diverging]))


def run_then_count(ran, i):
    ran.append(i)
    return i


def test_inline_jobs_run_as_their_results_are_asked_for(monkeypatch, pools):
    usable_cpus(monkeypatch, 1)
    ran = []
    results = _map_jobs([(run_then_count, ran, i) for i in range(3)])
    assert ran == []
    assert next(results) == 0 and ran == [0]
    assert list(results) == [1, 2] and ran == [0, 1, 2]
    assert pools == []


def wait_for(path, i):
    """Job ``i``: its result once ``path`` exists."""
    deadline = time.monotonic() + 30
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise TimeoutError(f"{path} did not appear")
        time.sleep(0.01)
    return i, os.getpid()


def test_pooled_results_are_yielded_before_later_jobs_finish(tmp_path, monkeypatch, pools):
    usable_cpus(monkeypatch, 2)
    go = tmp_path / "go"
    results = _map_jobs([(worker_pid, 0), (wait_for, go, 1), (worker_pid, 2)])
    assert pools == []  # nothing starts before the first result is asked for
    first, pid = next(results)  # job 1 cannot finish until this result is in
    assert first == 0 and pid != os.getpid()
    assert [args[0] for args in pools] == [2]
    go.touch()
    assert [i for i, _ in results] == [1, 2]


def test_at_most_two_jobs_a_worker_are_submitted_ahead(monkeypatch):
    # the results this process may hold do not grow with the number of jobs
    submitted = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def submit(self, fn, *args):
            submitted.append(args[0])
            return super().submit(fn, *args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    usable_cpus(monkeypatch, 2)
    results = _map_jobs([(worker_pid, i) for i in range(10)])
    assert next(results)[0] == 0 and submitted == [0, 1, 2, 3, 4]
    assert next(results)[0] == 1 and submitted == [0, 1, 2, 3, 4, 5]
    assert [i for i, _ in results] == list(range(2, 10)) and submitted == list(range(10))


def test_max_workers_caps_the_pool(monkeypatch, pools):
    usable_cpus(monkeypatch, 4)
    jobs = [(worker_pid, i) for i in range(6)]
    assert list(_map_jobs(jobs, 1)) == [(i, os.getpid()) for i in range(6)]
    assert pools == []
    assert [i for i, _ in _map_jobs(jobs, 3)] == list(range(6))
    assert [args[0] for args in pools] == [3]


# ids that the csv module quotes, that hold a % format, or that JSON escapes
ODD_IDS = ["a,1", '"q"', "#x", "50%", "%s", "%%d", "é", "tab\t", "s8", "s9", "s10"]


def odd_tensor(n_samples=11, n_passes=3, n_classes=2, ids=ODD_IDS):
    rng = np.random.default_rng(4)
    return PredictionTensor(rng.dirichlet(np.ones(n_classes), size=(n_samples, n_passes)),
                            ids[:n_samples] if ids else [f"s{i}" for i in range(n_samples)])


def job_sizes(monkeypatch):
    """The number of samples of each save_predictions job, one list per call."""
    calls, real = [], uqeval.tensor._map_jobs

    def recorded(jobs, max_workers):
        calls.append([len(prefixes) for _, prefixes, *_ in jobs])
        return real(jobs, max_workers)

    monkeypatch.setattr(uqeval.tensor, "_map_jobs", recorded)
    return calls


def small_jobs(monkeypatch, job_samples=4, worker_jobs=1):
    """Jobs of ``job_samples`` samples of 3 x 2 values, and a worker for every ``worker_jobs`` jobs."""
    monkeypatch.setattr(uqeval.tensor, "SAVE_JOB_VALUES", job_samples * 3 * 2)
    monkeypatch.setattr(uqeval.tensor, "SAVE_WORKER_VALUES", worker_jobs * job_samples * 3 * 2)


def save_in_daemon(tensor, path):
    assert multiprocessing.current_process().daemon
    save_predictions(tensor, path, header_comment="m")
    return uqeval.tensor.SAVE_JOB_VALUES


@pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
def test_pooled_writer_writes_the_inline_bytes(tmp_path, monkeypatch, pools, suffix):
    tensor, sizes = odd_tensor(), job_sizes(monkeypatch)
    usable_cpus(monkeypatch, 2)
    save_predictions(tensor, tmp_path / f"one-job{suffix}", header_comment="m")
    assert sizes == [[11]] and pools == []
    small_jobs(monkeypatch)
    save_predictions(tensor, tmp_path / f"pooled{suffix}", header_comment="m")
    assert sizes[-1] == [4, 4, 3]
    assert [args[0] for args in pools] == [2]
    usable_cpus(monkeypatch, 1)
    save_predictions(tensor, tmp_path / f"one-cpu{suffix}", header_comment="m")
    assert sizes[-1] == [4, 4, 3] and len(pools) == 1
    usable_cpus(monkeypatch, 2)
    with multiprocessing.get_context("fork").Pool(1) as daemon:
        job_values = daemon.apply(save_in_daemon, (tensor, tmp_path / f"daemon{suffix}"))
    assert job_values == 4 * 3 * 2 and len(pools) == 1
    expected = (tmp_path / f"one-job{suffix}").read_bytes()
    for name in ("pooled", "one-cpu", "daemon"):
        assert (tmp_path / f"{name}{suffix}").read_bytes() == expected, name
    assert b'"a,1"' in expected and b"50%" in expected and b"%%d" in expected


def test_the_writer_starts_a_worker_for_every_worker_values(tmp_path, monkeypatch, pools):
    tensor = odd_tensor()  # 66 values
    usable_cpus(monkeypatch, 8)
    save_predictions(tensor, tmp_path / "inline.csv")
    small_jobs(monkeypatch, job_samples=1, worker_jobs=3)
    save_predictions(tensor, tmp_path / "three.csv")
    assert [args[0] for args in pools] == [3]  # 11 jobs, 8 CPUs, 66 // 18 workers
    small_jobs(monkeypatch, job_samples=1, worker_jobs=6)
    save_predictions(tensor, tmp_path / "one.csv")
    assert len(pools) == 1  # 66 // 36 is one worker, which runs inline
    for name in ("three.csv", "one.csv"):
        assert (tmp_path / name).read_bytes() == (tmp_path / "inline.csv").read_bytes(), name


def test_a_demo_sized_tensor_is_written_inline(tmp_path, monkeypatch, pools):
    usable_cpus(monkeypatch, 2)
    sizes = job_sizes(monkeypatch)
    save_predictions(odd_tensor(150, 100, 2, ids=None), tmp_path / "p.csv")
    assert sizes == [[81, 69]]
    assert pools == []


REAL_SAMPLE_ROWS = uqeval.tensor._sample_rows


def failing_rows(prefixes, tails, probs):
    """``_sample_rows``, except that the jobs from ``s4`` (slowly) and ``s8`` raise."""
    if prefixes[0] == "s4":
        time.sleep(0.5)  # so that the later job fails first
    if prefixes[0] in ("s4", "s8"):
        raise ValueError(f"job from {prefixes[0]} failed")
    return REAL_SAMPLE_ROWS(prefixes, tails, probs)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_job_leaves_the_old_file(tmp_path, monkeypatch, pools, cpus):
    usable_cpus(monkeypatch, cpus)
    small_jobs(monkeypatch)
    monkeypatch.setattr(uqeval.tensor, "_sample_rows", failing_rows)  # forked workers inherit it
    path = tmp_path / "p.csv"
    path.write_bytes(b"old\n")
    with pytest.raises(ValueError, match="^job from s4 failed$"):
        save_predictions(odd_tensor(ids=None), path)
    assert path.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["p.csv"]
    assert len(pools) == (cpus > 1)
