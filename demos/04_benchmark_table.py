"""Size/validity benchmark table over repeated training runs.

Every run re-splits the data, refits the point predictor, retrains each
family, and evaluates interval size and coverage; the table reports
mean +- sd across runs. Equivalent to:

    scoremorph eval --data d.csv --families fixed,erc,erc-fit,linear,exp,sigma \
        --alphas 0.05,0.1,0.32 --runs 5 --report table.csv
"""

from scoremorph.data import normalize
from scoremorph.synthetic import SynthSpec, generate
from scoremorph.training import aggregate, run_protocol

ALPHAS = (0.05, 0.1, 0.32)
FAMILIES = ("fixed", "erc", "erc-fit", "linear", "exp", "sigma")

ds = normalize(generate(SynthSpec("linear", n=1000, seed=0)).dataset)
result = run_protocol(ds, FAMILIES, ALPHAS, runs=5, seed0=0)
aggregates = aggregate(result.rows, FAMILIES, ALPHAS)

print(f"selected k per run: {result.knn_ks}\n")
header = f"{'family':9s}"
for alpha in ALPHAS:
    header += f" | alpha={alpha:<4}  size         val        "
print(header)
for fam in FAMILIES:
    line = f"{fam:9s}"
    for alpha in ALPHAS:
        agg = next(a for a in aggregates
                   if a.family == fam and a.alpha == alpha)
        line += (f" | {agg.size_mean:.3f}+-{agg.size_sd:.3f} "
                 f"{agg.validity_mean:.3f}+-{agg.validity_sd:.3f}")
    print(line)
