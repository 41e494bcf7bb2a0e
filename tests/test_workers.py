import os
import pickle
import subprocess
import time

import pytest

from scoremorph import workers
from scoremorph.workers import map_in_workers

from support import spy_popen


def two_cores(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def test_results_come_back_in_item_order(monkeypatch):
    two_cores(monkeypatch)
    procs = spy_popen(monkeypatch)
    items = ["1", "2.5", "-3", "4e1", "0.5"]
    assert map_in_workers(float, items) == [1.0, 2.5, -3.0, 40.0, 0.5]
    assert len(procs) == 2
    assert all(p.returncode == 0 for p in procs)


def test_one_worker_per_item_at_most(monkeypatch):
    two_cores(monkeypatch)
    procs = spy_popen(monkeypatch)
    assert map_in_workers(float, ["7"]) == [7.0]
    assert len(procs) == 1
    assert map_in_workers(float, []) == []
    assert len(procs) == 1


def test_first_error_in_item_order_is_raised(monkeypatch):
    # worker 0 gets items 0, 2, 4 and fails at "x" (item 2); worker 1 gets
    # items 1, 3 and fails at "y" (item 3): item 2's error wins
    two_cores(monkeypatch)
    procs = spy_popen(monkeypatch)
    with pytest.raises(ValueError,
                       match="^could not convert string to float: 'x'$"):
        map_in_workers(float, ["1", "2", "x", "y", "5"])
    assert all(p.returncode == 0 for p in procs)


def test_a_worker_that_dies_is_an_error_and_none_outlives_it(monkeypatch):
    two_cores(monkeypatch)
    procs = spy_popen(monkeypatch)
    # each item ends its worker with that exit code before it reports
    # anything; worker 0 is read first
    with pytest.raises(RuntimeError, match="worker process exited with code 3"):
        map_in_workers(os._exit, [3, 4])
    assert len(procs) == 2
    assert all(p.returncode is not None for p in procs)


def test_a_worker_whose_caller_is_gone_stops():
    # the caller holds the worker's stdin open until it has the results;
    # the pipe closes when the caller dies, even by SIGKILL
    proc = subprocess.Popen(workers._command(), stdin=subprocess.PIPE,
                            stdout=subprocess.DEVNULL)
    proc.stdin.write(pickle.dumps((time.sleep, [60])))
    proc.stdin.close()
    assert proc.wait(timeout=30) == 1


def test_workers_run_on_one_blas_thread(monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    got = map_in_workers(os.getenv, ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS"])
    assert got == ["1", "1", "1"]
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_usable_cores_falls_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert workers.usable_cores() == 3
