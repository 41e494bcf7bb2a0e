"""Repeat the benchmark over seeds; write the baseline or the references.

    python3 perfbench/prove.py --seeds 0-9 [--workloads protocol,...] \
        [--out perfbench/baseline.json]
    python3 perfbench/prove.py --write-reference

The first form runs ``run.py`` once per seed and workload, as a separate
command, then one traced run per workload, and prints each end-to-end
metric's median and quartile spread (q3 - q1 over the median) next to its
bound from BENCHMARK.json. The second regenerates ``reference.json`` from
the current sources, one entry per input set.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import run
import workloads


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def load_spec() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_run(workload, seed, seconds, trace):
    """(env, info lines, result) of ``run.py`` as a separate command."""
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr}")
    env = next(json.loads(l[4:]) for l in lines if l.startswith("env "))
    info = [l for l in lines[:-1] if not l.startswith("env ")]
    return env, info, json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def prove(spec, names, seeds, out):
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": seconds, "seeds": seeds, "runs": {},
           "summary": {}, "traced": {}}
    for name in names:
        runs = []
        for seed in seeds:
            env, info, result = one_run(name, seed, seconds, 0)
            doc.setdefault("env", env)
            runs.append({"seed": seed, "info": info, "result": result})
            print(name, seed, json.dumps(result), flush=True)
        doc["runs"][name] = runs
        summary = {}
        for metric, bound in bounds.items():
            s = spread([r["result"]["metrics"][metric]["value"]
                        for r in runs])
            summary[metric] = s
            print(f"  {name} {metric}: median {s['median']:.6g} "
                  f"spread {s['spread']:.4f} (bound {bound})", flush=True)
        doc["summary"][name] = summary
        doc["traced"][name] = one_run(name, seeds[0], seconds, 1)[2]
    doc["env"].pop("workload", None)
    doc["env"].pop("seed", None)
    doc["env"].pop("input_set", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")


def write_reference():
    """reference.json from one untimed iteration per workload and input set."""
    jobs = [(name, seed) for name in sorted(workloads.SIZES)
            for seed in range(workloads.CORPUS)]

    def job(item):
        name, seed = item
        result, _, _, expected = run.run(name, seed, 0, False,
                                         use_reference=False)
        if not result["correct"]:
            raise RuntimeError(f"{name} seed {seed} failed its checks")
        print(name, seed, flush=True)
        return expected

    # two children at a time; their timings are not used
    with ThreadPoolExecutor(max_workers=2) as pool:
        entries = list(pool.map(job, jobs))
    table = {}
    for (name, seed), entry in zip(jobs, entries):
        table.setdefault(name, {})[str(seed)] = entry
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args()
    if args.write_reference:
        write_reference()
    else:
        prove(spec, args.workloads.split(","), _seeds(args.seeds), args.out)


if __name__ == "__main__":
    main()
