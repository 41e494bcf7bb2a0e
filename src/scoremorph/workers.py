"""Independent calls run side by side, one worker process per usable core.

Each worker is a fresh interpreter (``sys.executable``) with one BLAS
thread, so a call's result does not depend on which worker ran it, on how
many workers there are, or on the caller's BLAS thread count.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import select
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


def _command(lifeline: int) -> list:
    # the worker imports this very package, whatever put it on sys.path
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [sys.executable, "-c",
            f"import sys; sys.path.insert(0, {root!r}); "
            f"from scoremorph.workers import serve; serve({lifeline})"]


def _send(proc, obj) -> None:
    with contextlib.suppress(BrokenPipeError):  # a dead worker is read as one
        proc.stdin.write(pickle.dumps(obj))
        proc.stdin.flush()


def _receive(proc):
    """The worker's (ok, result or exception), or (False, RuntimeError) with
    its exit code when it ended without reporting."""
    try:
        return pickle.load(proc.stdout)
    except (EOFError, pickle.UnpicklingError):
        return False, RuntimeError(
            f"worker process exited with code {proc.wait()}")


def map_in_workers(fn, items) -> list:
    """``[fn(item) for item in items]``, computed in worker processes.

    ``fn`` and the items go to the workers pickled, so ``fn`` must be a
    module-level function (or a ``functools.partial`` of one). W =
    min(len(items), usable cores) workers start, and each takes the next
    item, in item order, as soon as it has returned its last one. No item
    goes out after one has failed; the items already out finish, and the
    exception of the first failed item, in item order, is raised here with
    its type and message. A worker that ends without reporting fails its
    item with a ``RuntimeError`` naming its exit code. Every worker has
    exited when this returns or raises.
    """
    items = list(items)
    n_workers = min(len(items), usable_cores())
    env = dict(os.environ, **_ONE_BLAS_THREAD)
    outcomes = [None] * len(items)  # (ok, result or exception) per item
    procs = []
    busy = {}  # stdout of a worker that holds an item -> (worker, index)
    # a worker exits when the write end closes: the caller holds it until
    # every worker has exited, so EOF before then means the caller is gone
    lifeline, keep_alive = os.pipe()
    try:
        for _ in range(n_workers):
            procs.append(subprocess.Popen(
                _command(lifeline), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, env=env, pass_fds=(lifeline,)))
        os.close(lifeline)
        lifeline = None
        pending = iter(range(len(items)))
        for proc, i in zip(procs, pending):
            _send(proc, fn)
            _send(proc, items[i])
            busy[proc.stdout] = proc, i
        failed = False
        while busy:
            for out in select.select(list(busy), [], [])[0]:
                proc, i = busy.pop(out)
                outcomes[i] = _receive(proc)
                failed = failed or not outcomes[i][0]
                i = None if failed else next(pending, None)
                if i is not None:
                    _send(proc, items[i])
                    busy[out] = proc, i
    except BaseException:  # an interrupt, say: no item is worth finishing
        for proc in procs:
            proc.kill()
        raise
    finally:
        for proc in procs:
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()  # an idle worker exits on EOF
        for proc in procs:
            proc.wait()
            proc.stdout.close()
        for fd in (lifeline, keep_alive):
            if fd is not None:
                os.close(fd)
    # items go out in order and none after a failure, so every item that
    # never ran comes after the first failed one
    for ok, value in outcomes:
        if not ok:
            raise value
    return [value for _, value in outcomes]


def _exit_on_eof(fd):
    while os.read(fd, 4096):
        pass
    os._exit(1)


def serve(lifeline: int) -> None:
    """Worker side: read ``fn`` on stdin, then items one at a time until EOF,
    writing the pickled (ok, result or exception) of each on stdout. EOF on
    the ``lifeline`` descriptor, even in the middle of an item, ends the
    worker with code 1. An exception that cannot be pickled ends it with a
    traceback on stderr instead."""
    threading.Thread(target=_exit_on_eof, args=(lifeline,),
                     daemon=True).start()
    inp, out = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # a stray print must not corrupt the results
    fn = pickle.load(inp)
    while True:
        try:
            item = pickle.load(inp)
        except EOFError:
            return
        try:
            outcome = (True, fn(item))
        except Exception as exc:
            outcome = (False, exc)
        out.write(pickle.dumps(outcome))
        out.flush()
