"""Attribute-dependent monotone transformations of squared-residual scores.

Each family maps a base score A = (f(x) - y)^2 to B = phi_x(A) where the
attribute dependence enters through a scalar localization value (usually
the output of a trainable network). The trainable families are one
log-shift core, z = log max(A, eps) + s(g(x)), with the shift s = g
(linear) or s = -log(g^2 + gamma) (erc). The paper scores erc as exp(z),
and exp and sigma as exp(z) and sigmoid(z) of linear's z; an x-independent
increasing map of every score changes neither the calibration quantile's
rank nor the interval it inverts to, so the core scores z itself (exp and
sigma are CLI labels of linear). z is strictly increasing in A onto all of
R at every x, so scores map back to label-space intervals at any test x
through the closed-form inverse A = exp(B - s(g(x))); no family here
needs a numeric inverse.
"""

from __future__ import annotations

import math

import numpy as np

from .network import LocalizerNet

TRAINABLE_KINDS = ("erc", "linear")

DEFAULT_GAMMA = 1e-2
DEFAULT_EPSILON_FLOOR = 1e-12


class CodomainError(ValueError):
    """A transformed score lies outside the family codomain at this x."""


def _expand(value, *operands):
    """Broadcast a (possibly constant) value to the joint operand shape."""
    shape = np.broadcast_shapes(*(np.shape(o) for o in operands))
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


class TransformFamily:
    """Base class: core maps are expressed in terms of the localization value.

    Subclasses implement ``phi``/``phi_inv`` as numpy-vectorized functions
    of (loc, score), and ``loc_batch`` maps attribute rows to their
    localization values. Every operation takes a batch of rows; a single
    point is a one-row batch.
    """

    kind = "base"

    def __init__(self, epsilon_floor: float = DEFAULT_EPSILON_FLOOR):
        self.epsilon_floor = float(epsilon_floor)
        if not 0 < self.epsilon_floor < math.inf:  # NaN fails too
            raise ValueError("epsilon_floor must be finite and positive, "
                             f"got {self.epsilon_floor}")

    # ---- localization ----

    def loc_batch(self, xs) -> np.ndarray:
        return np.zeros(np.asarray(xs).shape[0])

    # ---- core maps (subclasses) ----

    def phi(self, loc, a):
        raise NotImplementedError

    def phi_inv(self, loc, b):
        raise NotImplementedError

    # ---- public API ----

    def forward_batch(self, xs, a, locs=None):
        """B = phi_x(A) at the rows of xs; ``locs`` may pass their
        ``loc_batch(xs)`` when the caller already holds it."""
        a = self._check_base_score(a)
        return self.phi(self._checked_locs(xs, locs), a)

    def inverse_batch(self, xs, b, locs=None):
        """A = phi_x^{-1}(B) at the rows of xs; ``locs`` as in
        ``forward_batch``. Raises CodomainError where B lies outside B_x."""
        return self.phi_inv(self._checked_locs(xs, locs), b)

    # ---- helpers ----

    def _checked_locs(self, xs, locs):
        if locs is None:
            locs = self.loc_batch(xs)
        if not np.all(np.isfinite(locs)):
            raise ValueError("non-finite localization value")
        return locs

    @staticmethod
    def _check_base_score(a):
        a = np.asarray(a, dtype=float)
        if np.any(a < 0):
            raise ValueError("base scores must be nonnegative")
        return a

    def _clamped(self, a):
        return np.maximum(a, self.epsilon_floor)


class FixedTransform(TransformFamily):
    """Identity map: the non-adaptive baseline."""

    kind = "fixed"

    def phi(self, loc, a):
        return _expand(a, loc, a)

    def phi_inv(self, loc, b):
        if np.any(np.asarray(b) < 0):
            raise CodomainError("fixed family: B must be >= 0")
        return _expand(b, loc, b)


class LogShiftCore(TransformFamily):
    """phi(g, A) = log max(A, eps) + s(g), with g a trainable network.

    Presets may override the shift s (default s = g) and its slope
    ds/dg; the inverse exp(B - s(g)) is written once here.
    """

    def __init__(self, localizer: LocalizerNet,
                 epsilon_floor: float = DEFAULT_EPSILON_FLOOR):
        super().__init__(epsilon_floor)
        self.localizer = localizer

    def loc_batch(self, xs) -> np.ndarray:
        return self.localizer.values(np.asarray(xs, dtype=float))

    def shift(self, loc):
        return loc

    def dshift(self, loc):
        return np.ones_like(loc)

    def phi(self, loc, a):
        return np.log(self._clamped(a)) + self.shift(loc)

    def phi_inv(self, loc, b):
        return np.exp(np.asarray(b, dtype=float) - self.shift(loc))


class ErcTransform(LogShiftCore):
    """Residual re-weighting A / (g(x)^2 + gamma), scored as its log:
    s = -log(g^2 + gamma)."""

    kind = "erc"

    def __init__(self, localizer, gamma: float = DEFAULT_GAMMA,
                 epsilon_floor: float = DEFAULT_EPSILON_FLOOR):
        super().__init__(localizer, epsilon_floor)
        if not 0 < gamma < math.inf:  # NaN fails too
            raise ValueError(f"gamma must be positive, got {gamma}")
        self.gamma = float(gamma)

    def shift(self, loc):
        return -np.log(loc * loc + self.gamma)

    def dshift(self, loc):
        return -2.0 * loc / (loc * loc + self.gamma)


class LinearTransform(LogShiftCore):
    """Shifted log score z = log A + g(x); the paper's exp and sigma
    families, A exp(g(x)) = exp(z) and sigmoid(z), rank scores as z does."""

    kind = "linear"


def make_family(kind: str, localizer: LocalizerNet | None = None,
                gamma: float = DEFAULT_GAMMA,
                epsilon_floor: float = DEFAULT_EPSILON_FLOOR) -> TransformFamily:
    """Construct a family of kind "fixed", "erc" or "linear"."""
    if kind == "fixed":
        return FixedTransform(epsilon_floor)
    if kind in TRAINABLE_KINDS:
        if localizer is None:
            raise ValueError(f"family '{kind}' needs a localizer network")
        if kind == "erc":
            return ErcTransform(localizer, gamma, epsilon_floor)
        return LinearTransform(localizer, epsilon_floor)
    raise ValueError(f"unknown family kind '{kind}'")
