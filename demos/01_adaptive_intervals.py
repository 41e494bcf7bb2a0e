"""Quickstart: train an attribute-dependent score transformation and watch
the prediction band widen exactly where the data are noisy.

The data are a random quadratic plus noise whose amplitude is large for
|X| < 0.5 and tiny outside. The non-adaptive baseline has to cover the
noisy region everywhere, so its band is wide even where the data are
quiet; the trained transformation shrinks it there.
"""

import numpy as np

from scoremorph import knn
from scoremorph.conformal import (calibrate, calibration_scores, evaluate,
                                  scored)
from scoremorph.data import normalize, split
from scoremorph.figures import band_csv, compute_band, render_svg
from scoremorph.synthetic import SynthSpec, generate
from scoremorph.training import TrainConfig, train
from scoremorph.transforms import make_family

ALPHA = 0.05

synth = generate(SynthSpec("cos", n=1000, seed=7))
ds = normalize(synth.dataset)
proper, cp_train, validation, test = split(ds, seed=7)

# the point predictor is fixed before any conformal machinery runs
model = knn.fit(proper, seed=7)
print(f"KNN cross-validation selected k = {model.k}")
# it scores each split once: (x, A) with A = (f(x) - y)^2
cal, val, te = (scored(d, model.predict_batch(d.x))
                for d in (cp_train, validation, test))

fam, trace = train("linear", cal, val, TrainConfig(seed=7))
print(f"trained for {len(trace.epochs) - 1} epochs, "
      f"best validation loss at epoch {trace.best_epoch}")

for name, family in (("fixed", make_family("fixed")), ("linear", fam)):
    rep = evaluate(family, cal, te, [ALPHA])[0]
    print(f"{name:7s} alpha={ALPHA}: mean interval size {rep.mean_size:.3f}, "
          f"empirical validity {rep.empirical_validity:.3f}")

# draw the band over the raw X axis; x reaches the family only through
# its localizer values g(x), which loc_batch computes once per row set
q_hat = calibrate(calibration_scores(fam, cal), ALPHA)
band = compute_band(fam, model.predict_batch(ds.x), fam.loc_batch(ds.x),
                    synth.x_raw, ds.y, q_hat)
with open("adaptive_band.svg", "w") as fh:
    fh.write(render_svg(band, title=f"trained linear family, alpha={ALPHA}"))
with open("adaptive_band.csv", "w") as fh:
    fh.write(band_csv(band))
print("wrote adaptive_band.svg / adaptive_band.csv")

width = band.upper - band.lower
noisy = width[np.abs(band.axis) < 0.5].mean()
quiet = width[np.abs(band.axis) > 0.7].mean()
print(f"mean band width: {noisy:.3f} in the noisy region vs "
      f"{quiet:.3f} in the quiet region")
