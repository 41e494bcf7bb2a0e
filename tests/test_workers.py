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
    # "x" (item 2) and "y" (item 3) both fail: item 2's error wins, whichever
    # worker reports first
    two_cores(monkeypatch)
    procs = spy_popen(monkeypatch)
    with pytest.raises(ValueError,
                       match="^could not convert string to float: 'x'$"):
        map_in_workers(float, ["1", "2", "x", "y", "5"])
    assert all(p.returncode == 0 for p in procs)


def test_no_item_goes_out_after_a_failure(monkeypatch):
    # on one worker, item 1 would end it with code 5 had it gone out
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    procs = spy_popen(monkeypatch)
    with pytest.raises(ZeroDivisionError):
        map_in_workers(eval, ["1 / 0", "__import__('os')._exit(5)"])
    assert [p.returncode for p in procs] == [0]


def test_the_next_item_goes_to_the_first_free_worker(monkeypatch):
    # item 0 holds its worker for a second; the other worker takes every
    # later item as soon as it has returned the one before
    two_cores(monkeypatch)
    pid = "__import__('os').getpid()"
    slow = f"__import__('time').sleep(1) or {pid}"
    pids = map_in_workers(eval, [slow] + [pid] * 6)
    assert len(set(pids[1:])) == 1
    assert pids[0] not in pids[1:]


def test_a_worker_that_dies_is_an_error_and_none_outlives_it(monkeypatch):
    # each item ends its worker with that exit code before it reports
    # anything; the code named is that of item 0's worker, whichever
    # worker dies first
    two_cores(monkeypatch)
    procs = spy_popen(monkeypatch)
    for _ in range(5):
        procs.clear()
        with pytest.raises(RuntimeError,
                           match="^worker process exited with code 3$"):
            map_in_workers(os._exit, [3, 4])
        assert len(procs) == 2
        assert all(p.returncode is not None for p in procs)


def test_a_worker_whose_caller_is_gone_stops():
    # the caller holds the lifeline's write end until its workers have
    # exited; it closes when the caller dies, even by SIGKILL, and the
    # worker stops in the middle of its item, its stdin still open
    lifeline, keep_alive = os.pipe()
    proc = subprocess.Popen(workers._command(lifeline), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, pass_fds=(lifeline,))
    os.close(lifeline)
    try:
        for obj in (time.sleep, 0):
            proc.stdin.write(pickle.dumps(obj))
        proc.stdin.flush()
        assert pickle.load(proc.stdout) == (True, None)
        proc.stdin.write(pickle.dumps(60))
        proc.stdin.flush()
        time.sleep(0.5)
        start = time.monotonic()
        os.close(keep_alive)
        assert proc.wait(timeout=30) == 1
        assert time.monotonic() - start < 10
    finally:
        proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()


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
