"""Monte Carlo check of marginal coverage.

Calibrated intervals cover the test label with probability
ceil((N+1)(1-alpha)) / (N+1) when the scores are exchangeable, no matter
which monotone attribute-dependent transformation produced them. Here a
frozen random localizer reshapes the scores and coverage stays on target.
"""

import numpy as np

from scoremorph.conformal import (calibrate, calibration_scores, half_widths,
                                  quantile_index, scored)
from scoremorph.data import Dataset
from scoremorph.network import LocalizerNet
from scoremorph.transforms import make_family

N_CAL = 99
REPS = 2000
rng = np.random.default_rng(0)


def predict(xs):
    return 0.5 * np.asarray(xs).sum(axis=1)


def draw(n):
    x = rng.normal(size=(n, 3))
    y = predict(x) + (0.3 + 0.5 * x[:, 0] ** 2) * rng.normal(size=n)
    return Dataset(x, y)


families = {
    "fixed": make_family("fixed"),
    "erc (frozen random localizer)": make_family(
        "erc", LocalizerNet.init(3, seed=5), gamma=1e-2),
}

for name, fam in families.items():
    print(f"\n{name}: {REPS} independent (calibration, test) draws, N={N_CAL}")
    for alpha in (0.05, 0.1, 0.32):
        hits = 0
        for _ in range(REPS):
            ds = draw(N_CAL + 1)
            cal = ds.subset(np.arange(N_CAL))
            q = calibrate(calibration_scores(fam, scored(cal, predict(cal.x))),
                          alpha)
            test = ds.subset([N_CAL])
            half = half_widths(fam, q, fam.loc_batch(test.x))[0]
            hits += abs(test.y[0] - predict(test.x)[0]) <= half
        target = quantile_index(N_CAL, alpha) / (N_CAL + 1)
        se = np.sqrt(target * (1 - target) / REPS)
        print(f"  alpha={alpha:<5}: coverage {hits / REPS:.3f} "
              f"(target {target:.3f}, 3-se band +- {3 * se:.3f})")
