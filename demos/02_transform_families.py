"""Tour of the monotone score transformations.

Every family maps the squared residual A to a new score
B = log max(A, eps) + s(g(x)), strictly increasing in A with an
x-independent codomain, all of R. That pair of properties is what keeps
the calibrated quantile invertible at any test attribute; the last section
shows what goes wrong without it, on a map of its own. Every call takes a
batch; a single point is a one-row batch. The attributes x reach a family
only through ``loc_batch``: ``forward_batch(a, locs)`` and
``inverse_batch(b, locs)`` take the localizer values ``locs =
loc_batch(x)`` of their rows.
"""

import numpy as np

from scoremorph.network import LocalizerNet
from scoremorph.transforms import make_family

net = LocalizerNet.init(d=2, seed=0)
families = [
    make_family("fixed"),
    make_family("erc", net, gamma=1e-2),
    make_family("linear", net),
]

x = np.array([[0.3, -1.2]])  # one attribute row
print(f"localizer output g(x) = {net.values(x)[0]:+.4f}\n")
print(f"{'family':8s} {'B=phi(2.0)':>12s} {'inverse(B)':>12s}")
for fam in families:
    locs = fam.loc_batch(x)
    b = fam.forward_batch([2.0], locs)[0]
    back = fam.inverse_batch(b, locs)[0]
    print(f"{fam.kind:8s} {b:12.6f} {back:12.6f}")

# the paper's exp and sigma families are exp(z) and sigmoid(z) of linear's
# score z = log A + g(x): increasing maps that rank any score set as z
# does, so they give the same quantile rank and the same intervals, and
# the library scores z for all three
rng = np.random.default_rng(1)
xs = rng.normal(size=(6, 2))
z = families[2].forward_batch(rng.chisquare(1, size=6),
                              families[2].loc_batch(xs))
print("\nscore rankings (identical for linear / exp / sigma):")
for name, score in (("linear", z), ("exp", np.exp(z)),
                    ("sigma", 1.0 / (1.0 + np.exp(-z)))):
    print(f"  {name:8s} {np.argsort(score).tolist()}")


# breaking the shared-codomain requirement: B = A + g(x)^2 has codomain
# [g(x)^2, inf), so a quantile from one x may be uninvertible at another
class OutOfCodomain(ValueError):
    """A score lies outside the map's codomain at this x."""


class Additive:
    def loc_batch(self, xs):
        return 2.0 + xs[:, 0]  # g at each row

    def forward_batch(self, a, g):
        return np.asarray(a) + g * g

    def inverse_batch(self, b, g):
        if np.any(b < g * g):
            raise OutOfCodomain("additive fixture: B below g(x)^2 has no "
                                "nonnegative base score")
        return b - g * g


class AdditiveLogRepair(Additive):
    """(1 + eps) log A + g(x)^2 with eps = 0.1: codomain all of R at any x."""

    def forward_batch(self, a, g):
        return 1.1 * np.log(np.maximum(a, 1e-12)) + g * g

    def inverse_batch(self, b, g):
        return np.exp((b - g * g) / 1.1)


broken, repaired = Additive(), AdditiveLogRepair()
x_cal, x_test = np.array([[0.0]]), np.array([[3.0]])
g_cal, g_test = broken.loc_batch(x_cal), broken.loc_batch(x_test)
b = broken.forward_batch([1.0], g_cal)[0]
print(f"\nadditive fixture: calibration score B = {b:.1f}, "
      f"test codomain starts at {g_test[0] ** 2:.1f}")
try:
    broken.inverse_batch(b, g_test)
except OutOfCodomain as exc:
    print(f"  inversion fails as expected: {exc}")
b2 = repaired.forward_batch([1.0], g_cal)[0]
print("  log-composed repair inverts fine: "
      f"{repaired.inverse_batch(b2, g_test)[0]:.3e}")
