"""Attribute-dependent monotone transformations of squared-residual scores.

Every family is one log-shift core: it maps a base score A = (f(x) - y)^2
to z = log max(A, eps) + s(g(x)), where g is a trainable localizer network
and the kind picks the shift: s = g (linear), s = -log(g^2 + gamma) (erc),
or s = 0 with no localizer (fixed). The paper scores fixed as A itself,
erc as exp(z), and exp and sigma as exp(z) and sigmoid(z) of linear's z;
an x-independent increasing map of every score changes neither the
calibration quantile's rank nor the interval it inverts to, so the core
scores z itself (exp and sigma are CLI labels of linear). z is strictly
increasing in A onto all of R at every x, so scores map back to
label-space intervals at any test x through the closed-form inverse
A = exp(B - s(g(x))); no family here needs a numeric inverse.
X reaches a family only through ``loc_batch``: both maps take the values
``locs = loc_batch(xs)`` of their rows, so a caller runs g once per row set.
"""

from __future__ import annotations

import math

import numpy as np

from .network import LocalizerNet

TRAINABLE_KINDS = ("erc", "linear")

DEFAULT_GAMMA = 1e-2
DEFAULT_EPSILON_FLOOR = 1e-12


class TransformFamily:
    """z = log max(A, eps) + s(g(x)) for one kind; ``make_family`` builds
    and checks it. ``gamma`` is None but for erc, and ``localizer`` None
    for fixed. Every operation takes a batch of rows; a single point is a
    one-row batch.
    """

    def __init__(self, kind: str, localizer: LocalizerNet | None,
                 gamma: float | None, epsilon_floor: float):
        self.kind = kind
        self.localizer = localizer
        self.gamma = gamma
        self.epsilon_floor = epsilon_floor

    def loc_batch(self, xs) -> np.ndarray:
        """g at the rows of xs; 0 at every row of a family with no
        localizer."""
        if self.localizer is None:
            return np.zeros(np.asarray(xs).shape[0])
        return self.localizer.values(np.asarray(xs, dtype=float))

    def shift(self, g):
        """s(g): -log(g^2 + gamma) for erc, g for the others."""
        if self.kind == "erc":
            return -np.log(g * g + self.gamma)
        return g

    def dshift(self, g):
        """ds/dg."""
        if self.kind == "erc":
            return -2.0 * g / (g * g + self.gamma)
        return np.ones_like(g)

    def forward_batch(self, a, locs):
        """z of the scores a at rows whose ``loc_batch`` values are locs."""
        a = np.asarray(a, dtype=float)
        if np.any(a < 0):
            raise ValueError("base scores must be nonnegative")
        return (np.log(np.maximum(a, self.epsilon_floor))
                + self.shift(_finite(locs)))

    def inverse_batch(self, b, locs):
        """A = exp(B - s(g)) at rows whose ``loc_batch`` values are locs."""
        return np.exp(np.asarray(b, dtype=float) - self.shift(_finite(locs)))


def _finite(locs):
    if not np.all(np.isfinite(locs)):
        raise ValueError("non-finite localization value")
    return locs


def make_family(kind: str, localizer: LocalizerNet | None = None,
                gamma: float = DEFAULT_GAMMA,
                epsilon_floor: float = DEFAULT_EPSILON_FLOOR) -> TransformFamily:
    """The family of kind "fixed", which takes no localizer, or "erc" or
    "linear", which need one; ``gamma`` is read for erc alone."""
    if kind != "fixed" and kind not in TRAINABLE_KINDS:
        raise ValueError(f"unknown family kind '{kind}'")
    if kind == "fixed" and localizer is not None:
        raise ValueError("family 'fixed' takes no localizer network")
    if kind != "fixed" and localizer is None:
        raise ValueError(f"family '{kind}' needs a localizer network")
    epsilon_floor = checked_floor(epsilon_floor)
    gamma = checked_gamma(gamma) if kind == "erc" else None
    return TransformFamily(kind, localizer, gamma, epsilon_floor)


def checked_floor(epsilon_floor) -> float:
    """epsilon_floor as a float, refused unless finite and positive."""
    epsilon_floor = float(epsilon_floor)
    if not 0 < epsilon_floor < math.inf:  # NaN fails too
        raise ValueError("epsilon_floor must be finite and positive, "
                         f"got {epsilon_floor}")
    return epsilon_floor


def checked_gamma(gamma) -> float:
    """gamma as a float, refused unless finite and positive."""
    if not 0 < gamma < math.inf:  # NaN fails too
        raise ValueError(f"gamma must be positive, got {gamma}")
    return float(gamma)
