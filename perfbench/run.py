"""scoremorph benchmark: one workload, timed end to end, outputs checked.

    python3 perfbench/run.py --workload protocol --seed 3 --seconds 30 --trace 0

Run from the root of a checkout. The workload runs in its own child process
(``child.py``) through ``scoremorph.cli.main(argv)``, CSV/JSON/manifest I/O
included, with the package imported from ``src/`` and BLAS threads capped at
the number of usable cores.

Workloads (``workloads.py``), all on ``synth --kind cos`` data:

- ``protocol``: ``eval --families fixed,erc,erc-fit,linear,exp,sigma --runs 5``
  on 1000 rows: 25 short trainings of 925 Adam steps with m = 16. Network
  and objective dominate.
- ``train-large``: ``train --family linear`` on 10000 rows for 12000 Adam
  steps, then a frozen ``eval`` of that model on a fresh 2000-row file.
  Past ~7k steps first moments of dead units turn subnormal; the O(n^2)
  KNN fit and validation loss grow.
- ``frozen-eval``: set-up trains a model on 1000 rows; the timed phase is
  ``eval --model --runs 2`` and ``plot`` on 6000 rows. No training: KNN
  prediction dominates.

With ``--trace 0`` it prints the end-to-end metrics: ``wall_s`` (median
timed phase over the iterations that fit in ``--seconds``), ``setup_s``
(median of at least six set-ups: one before the first timed iteration,
at least two more after it, then as many again after the timed phase),
``peak_rss_mb`` (child process, getrusage, read after its first set-up
and first timed iteration, so that every run has the same allocation
history) and
``size_ratio`` (mean interval size of the learned families over the
``fixed`` size at alpha = 0.1, from the aggregate CSV). With ``--trace 1``
it runs one untraced and one traced iteration and prints per-layer metrics
from spans recorded by ``tracer.py``. The last stdout line is the JSON
result; the exit code is 0 only when every correctness check passed.

Correctness gate, per run:

- every (family, alpha, run) cell of the report has no error;
- every iteration wrote byte-identical outputs;
- every (family, alpha) mean validity lies within ``BAND_Z`` binomial
  standard deviations of 1 - alpha, with variance
  alpha (1 - alpha) (1/n_test + 1/n_cal) / runs;
- against ``reference.json`` (outputs of the commit that added the
  benchmark, one entry per input set): each cell's mean size within
  ``SIZE_RTOL`` (relative), mean validity within ``VALIDITY_ATOL``, the
  training's epoch count exact and its best validation loss within
  ``LOSS_RTOL`` (relative).

``failed`` counts failed cells plus failed checks; ``attempted`` counts
cells plus checks.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")
CHILD_TIMEOUT_S = 170

SIZE_RTOL = 0.02
VALIDITY_ATOL = 0.02
LOSS_RTOL = 0.01
BAND_Z = 4.0
RATIO_ALPHA = 0.1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def child_env() -> dict:
    """Caller's environment with BLAS threads capped at the usable cores."""
    env = dict(os.environ)
    cores = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, cores))
        except ValueError:
            wanted = cores
        env[var] = str(max(1, min(wanted, cores)))
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


# ---- output parsing ----

def _csv_rows(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    return [l.split(",") for l in lines[1:]]


def parse_aggregate(text) -> dict:
    """{(family, alpha): (size_mean, validity_mean)}"""
    return {(r[0], float(r[1])): (float(r[2]), float(r[4]))
            for r in _csv_rows(text)}


def parse_train_trace(text):
    """(epochs run, best validation loss) from a train trace CSV."""
    rows = _csv_rows(text)
    return int(rows[-1][0]), min(float(r[2]) for r in rows)


def size_ratio(aggregate) -> float:
    fixed = aggregate[("fixed", RATIO_ALPHA)][0]
    learned = [size for (fam, alpha), (size, _) in aggregate.items()
               if fam != "fixed" and alpha == RATIO_ALPHA]
    return statistics.fmean(learned) / fixed


# ---- correctness gate ----

def checks(plan, outputs, reproducible, expected):
    """[(name, passed)] for one run; ``expected`` None skips the reference."""
    out = [("reproducible", reproducible)]
    agg = parse_aggregate(outputs["aggregate"])
    n_test = round(workloads.TEST_FRACTION * plan.n_eval)
    n_cal = round(workloads.CAL_FRACTION * plan.n_eval)
    for (fam, alpha), (_, validity) in sorted(agg.items()):
        sd = math.sqrt(alpha * (1 - alpha) * (1 / n_test + 1 / n_cal)
                       / plan.runs)
        out.append((f"band {fam} {alpha}",
                    abs(validity - (1 - alpha)) <= BAND_Z * sd))
    if expected is None:
        return out
    ref_agg = {(f, a): v for f, a, *v in expected["aggregate"]}
    out.append(("reference cells", set(ref_agg) == set(agg)))
    for key in sorted(set(ref_agg) & set(agg)):
        (size, validity), (ref_size, ref_validity) = agg[key], ref_agg[key]
        out.append((f"reference size {key[0]} {key[1]}",
                    abs(size - ref_size) <= SIZE_RTOL * ref_size))
        out.append((f"reference validity {key[0]} {key[1]}",
                    abs(validity - ref_validity) <= VALIDITY_ATOL))
    if plan.train_trace:
        epochs, best = parse_train_trace(outputs["train_trace"])
        ref_epochs, ref_best = expected["train"]
        out.append(("reference epochs", epochs == ref_epochs))
        out.append(("reference best_val_loss",
                    abs(best - ref_best) <= LOSS_RTOL * ref_best))
    return out


def expected_outputs(plan, outputs) -> dict:
    """The reference entry these outputs would make."""
    agg = parse_aggregate(outputs["aggregate"])
    entry = {"aggregate": [[f, a, s, v] for (f, a), (s, v) in sorted(agg.items())]}
    if plan.train_trace:
        entry["train"] = list(parse_train_trace(outputs["train_trace"]))
    return entry


# ---- one run ----

def run_child(workload, seed, seconds, trace, size) -> dict:
    """Run the workload in a child process; returns its raw result."""
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    config = {"root": ROOT, "workdir": workdir, "workload": workload,
              "seed": seed, "seconds": seconds, "trace": trace,
              "size": size.__dict__,
              "spans": os.path.join(WORK, f"spans-{workload}-{seed}.csv")}
    cfg_path = os.path.join(workdir, "config.json")
    res_path = os.path.join(workdir, "result.json")
    try:
        with open(cfg_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), cfg_path,
             res_path],
            env=child_env(), stdout=subprocess.DEVNULL,
            timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"workload child exited {proc.returncode}")
        with open(res_path, encoding="utf-8") as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(workload, seed, seconds, trace, size=None, use_reference=True):
    """One benchmark run: (result, environment, info lines, reference entry)."""
    size = size or workloads.SIZES[workload]
    plan = workloads.plan(workload, seed, size)
    raw = run_child(workload, seed, seconds, trace, size)
    outputs = raw["outputs"]

    expected = None
    if use_reference:
        with open(REFERENCE, encoding="utf-8") as fh:
            table = json.load(fh)
        expected = table[workload][str(seed % workloads.CORPUS)]
    results = checks(plan, outputs, raw["reproducible"], expected)
    cells = _csv_rows(outputs["report"])
    bad_cells = sum(1 for r in cells if r[-1] != "")
    failed = bad_cells + sum(1 for _, ok in results if not ok)
    attempted = len(cells) + len(results)

    walls = [sum(t) for t in raw["timed_s"]]
    setups = [sum(t) for t in raw["setup_s"]]
    if trace:
        metrics = raw["layers"]
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
            "size_ratio": (size_ratio(parse_aggregate(outputs["aggregate"])),
                           "ratio"),
        }
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    env = dict(raw["env"], nproc=nproc(), cpu=_cpu_model(),
               commit=_commit(), workload=workload, seed=seed,
               input_set=seed % workloads.CORPUS)

    info = [f"failed check: {name}" for name, ok in results if not ok]
    for phase, argvs, times in (("setup", plan.setup, raw["setup_s"]),
                                ("timed", plan.timed, raw["timed_s"])):
        for i, argv in enumerate(argvs):
            median = statistics.median(t[i] for t in times)
            info.append(f"{phase} {argv[0]}: {median:.4f} s "
                        f"(median of {len(times)})")
            if argv[0] == "train" and plan.train_trace:
                epochs, best = parse_train_trace(outputs["train_trace"])
                info.append(f"{phase} train: {epochs} epochs, "
                            f"{1e3 * median / epochs:.3f} ms/epoch, "
                            f"best_val_loss {best!r}")
    return result, env, info, expected_outputs(plan, outputs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "scoremorph", "cli.py")):
        print(f"error: no scoremorph sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    try:
        result, env, info, _ = run(args.workload, args.seed, args.seconds,
                                   bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env, sort_keys=True))
    for line in info:
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
