"""One workload run, inside its own process: set-up, timed phase, outputs.

Usage: python3 child.py CONFIG.json RESULT.json

CONFIG holds the checkout root, the work directory, the workload, seed,
seconds, trace flag and size. Every step goes through
``scoremorph.cli.main(argv)``. The result file gets the raw timings, the
outputs the correctness gate reads, peak RSS and, when tracing, the
per-layer metrics.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import resource
import statistics
import sys
import time

import workloads

# set-up repeats: at least this many, and until this much time is spent,
# so that a set-up of a few milliseconds still gives a steady median
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0


def _steps(cli, argvs) -> list:
    """Run the command lines in order; returns the seconds of each."""
    times = []
    for argv in argvs:
        start = time.perf_counter()
        if cli.main(argv) != 0:
            raise RuntimeError(f"scoremorph {' '.join(argv)} failed")
        times.append(time.perf_counter() - start)
    return times


def _read(path):
    if not path:
        return ""
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _outputs(plan):
    """Texts of the files the correctness gate reads."""
    agg = os.path.splitext(plan.report)[0] + ".aggregate.csv"
    return {"report": _read(plan.report), "aggregate": _read(agg),
            "train_trace": _read(plan.train_trace)}


def _blas():
    """(library config, thread count) of the OpenBLAS numpy loaded."""
    import numpy as np
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}",
                              None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                return config().decode(), int(threads())
    return "unknown", None


def main(config_path, result_path) -> int:
    with open(config_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    src = os.path.join(cfg["root"], "src")
    sys.path.insert(0, src)
    import numpy as np
    import scoremorph
    from scoremorph import cli
    if not os.path.abspath(scoremorph.__file__).startswith(src + os.sep):
        raise RuntimeError(f"scoremorph imported from {scoremorph.__file__}, "
                           f"not from {src}")
    os.chdir(cfg["workdir"])
    plan = workloads.plan(cfg["workload"], cfg["seed"],
                          workloads.Size(**cfg["size"]))

    # one set-up, then the first timed iteration, before anything else: peak
    # RSS is read here, after the same allocations on every run. Read after
    # a varying number of set-ups, it moved by one large KNN temporary
    # (282 or 251 MB on train-large) with the allocator's history.
    setup_s = [_steps(cli, plan.setup)]
    timed_s = [_steps(cli, plan.timed)]
    outputs = [_outputs(plan)]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setup_s) < SETUP_REPEATS or sum(map(sum, setup_s)) < SETUP_MIN_S:
        setup_s.append(_steps(cli, plan.setup))
    walls = [sum(timed_s[0])]
    # one untraced iteration when tracing; otherwise stop before an
    # iteration of median length would overrun the run's seconds
    while (not cfg["trace"]
           and sum(walls) + statistics.median(walls) <= cfg["seconds"]):
        timed_s.append(_steps(cli, plan.timed))
        outputs.append(_outputs(plan))
        walls = [sum(t) for t in timed_s]
    # as many set-ups again after the timed phase, so that their median
    # samples the whole run rather than its first second
    setup_s += [_steps(cli, plan.setup) for _ in range(len(setup_s))]
    result = {"setup_s": setup_s, "timed_s": timed_s, "outputs": outputs[-1],
              "reproducible": all(o == outputs[0] for o in outputs)}

    if cfg["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        with tracer.installed(scoremorph):
            traced = sum(_steps(cli, plan.timed))
        result["reproducible"] &= _outputs(plan) == outputs[0]
        result["layers"] = tracer.metrics(traced, walls[0])
        tracer.write_spans(cfg["spans"])

    blas, threads = _blas()
    result["peak_rss_mb"] = peak_rss_mb
    result["env"] = {"python": sys.version.split()[0],
                     "numpy": np.__version__, "blas": blas,
                     "blas_threads": threads}
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
