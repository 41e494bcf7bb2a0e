"""Independent calls run side by side, one worker process per usable core.

Each worker is a fresh interpreter (``sys.executable``) with one BLAS
thread, so a call's result does not depend on which worker ran it, on how
many workers there are, or on the caller's BLAS thread count.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import subprocess
import sys
import threading

# the workers already use every usable core; one BLAS thread each also
# fixes the last bits of the GEMMs whose result depends on the thread count
_ONE_BLAS_THREAD = {var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _command() -> list:
    # the worker imports this very package, whatever put it on sys.path
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [sys.executable, "-c",
            f"import sys; sys.path.insert(0, {root!r}); "
            "from scoremorph.workers import serve; serve()"]


def map_in_workers(fn, items) -> list:
    """``[fn(item) for item in items]``, computed in worker processes.

    ``fn`` and the items go to the workers pickled, so ``fn`` must be a
    module-level function (or a ``functools.partial`` of one). Item i goes
    to worker i mod W, W = min(len(items), usable cores), and a worker
    stops at its first exception. The exception of the first item that
    raised, in item order, is raised here with its type and message. Every
    worker has exited when this returns or raises.
    """
    items = list(items)
    n_workers = min(len(items), usable_cores())
    env = dict(os.environ, **_ONE_BLAS_THREAD)
    procs = []
    outcomes = [None] * len(items)  # (ok, result or exception) per item
    try:
        for _ in range(n_workers):
            procs.append(subprocess.Popen(_command(), stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE, env=env))
        for w, proc in enumerate(procs):
            with contextlib.suppress(BrokenPipeError):  # reported below
                proc.stdin.write(pickle.dumps((fn, items[w::n_workers])))
                proc.stdin.flush()
        for w, proc in enumerate(procs):
            data = proc.stdout.read()
            if proc.wait() != 0 or not data:
                raise RuntimeError(
                    f"worker process exited with code {proc.returncode}")
            for j, outcome in enumerate(pickle.loads(data)):
                outcomes[w + j * n_workers] = outcome
    finally:
        for proc in procs:
            proc.kill()  # no-op once it has exited
            proc.wait()
            proc.stdout.close()
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()
    # a worker stops at its first exception, so an item it never ran
    # comes after an exception raised here
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _exit_on_eof(fd):
    # the caller holds stdin open until it has read the results, so EOF
    # before then means it is gone: stop rather than compute for no one
    while os.read(fd, 4096):
        pass
    os._exit(1)


def serve() -> None:
    """Worker side: read (fn, items) on stdin and write the pickled list of
    (ok, result or exception) per item on stdout. An exception that cannot
    be pickled ends the worker with a traceback on stderr instead."""
    out = sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not corrupt the results
    fn, items = pickle.load(sys.stdin.buffer)
    threading.Thread(target=_exit_on_eof, args=(sys.stdin.fileno(),),
                     daemon=True).start()
    outcomes = []
    for item in items:
        try:
            outcomes.append((True, fn(item)))
        except Exception as exc:
            outcomes.append((False, exc))
            break
    out.write(pickle.dumps(outcomes))
    out.flush()
