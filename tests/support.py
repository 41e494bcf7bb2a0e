"""Families, oracles and helpers that only the tests use.

The library ships the families the CLI trains and evaluates; the ones
here exist to pin properties from outside that set: global monotone maps
that must not change intervals (among them the paper's exp and sigma,
which score exp(z) and sigmoid(z) of linear's z), a worked example whose
codomain moves with x, and the additive family whose inverse fails at a
test attribute (with its log-composed repair). They share the generic
``MapFamily`` base, and each defines only the methods some test reaches.
``spy_popen`` records the worker processes a call starts.

The oracles are the generic reference the library's closed forms are
checked against, written for the log-shift core phi = log max(A, eps) + s
from the shift s and its slope ds/dg alone: a bisection inverse, the
implicit-relation derivatives of the inverse, and the size loss over the
full (m, m) matrix of pair inverses.
"""

import subprocess

import numpy as np

from scoremorph.objective import LossValue
from scoremorph.transforms import DEFAULT_EPSILON_FLOOR


def bisect_inverse(s, b, eps=DEFAULT_EPSILON_FLOOR, tol=1e-12):
    """A with log max(A, eps) + s = b, by bisection from the bracket
    [1e-12, 1] grown geometrically, elementwise over broadcast s and b;
    tol=0 bisects to float resolution. Raises ValueError where no bracket
    encloses a root."""
    s, b = np.broadcast_arrays(np.asarray(s, dtype=float),
                               np.asarray(b, dtype=float))

    def phi(a):
        return np.log(np.maximum(a, eps)) + s

    lo, hi = np.full(b.shape, 1e-12), np.full(b.shape, 1.0)
    for _ in range(1100):  # doublings that reach either end of float64
        grow = phi(hi) < b
        shrink = ~grow & (phi(lo) > b)
        if not (grow.any() or shrink.any()):
            break
        lo, hi = (np.where(grow, hi, np.where(shrink, 0.5 * lo, lo)),
                  np.where(grow, 2.0 * hi, np.where(shrink, lo, hi)))
    else:
        side = "above" if grow.any() else "below"
        raise ValueError(f"no root {side} the bracket for "
                         f"B={b[grow | shrink].flat[0]}")
    active = np.ones(b.shape, dtype=bool)
    while True:
        mid = 0.5 * (lo + hi)
        # stop at the tolerance or where float resolution is reached
        active &= (hi - lo > tol) & (lo < mid) & (mid < hi)
        if not np.any(active):
            return 0.5 * (lo + hi)
        below = phi(mid) <= b
        lo = np.where(active & below, mid, lo)
        hi = np.where(active & ~below, mid, hi)


def inverse_slopes(ds, a, eps=DEFAULT_EPSILON_FLOOR):
    """(dA/dg, dA/dB) of the inverse at A = phi^{-1}(B), from the implicit
    relations -phi_g / phi_A and 1 / phi_A with phi_A = 1 / max(A, eps)
    and phi_g = ds."""
    phi_a = 1.0 / np.maximum(a, eps)
    return -np.asarray(ds, dtype=float) / phi_a, 1.0 / phi_a


def pair_loss(s, a, ds=None, eps=DEFAULT_EPSILON_FLOOR):
    """(value, dL/dg) of the size loss over every ordered pair (i, n),
    i != n: the mean of sqrt(phi_{x_i}^{-1}(phi_{x_n}(A_n))), each pair
    inverted by bisection to float resolution, with the gradient from the
    implicit relations (None when ds is not given). O(m^2)."""
    s = np.asarray(s, dtype=float)
    m = s.shape[0]
    b = np.broadcast_to(np.log(np.maximum(a, eps)) + s, (m, m))
    u = bisect_inverse(s[:, None], b, eps, tol=0.0)
    t = np.sqrt(u)
    off_diag = ~np.eye(m, dtype=bool)
    norm = 1.0 / (m * (m - 1))
    value = float(t[off_diag].sum() * norm)
    if ds is None:
        return value, None
    # u[i, n] moves with g_n through B = phi_{x_n}(A_n), whose slope is
    # ds_n, and with g_i through the inverse at x_i
    ds = np.asarray(ds, dtype=float)
    du_dg, du_db = inverse_slopes(ds[:, None], u, eps)
    d_u = np.where(off_diag, norm * 0.5 / t, 0.0)
    return value, (d_u * du_db).sum(axis=0) * ds + (d_u * du_dg).sum(axis=1)


def oracle_loss(fam, batch) -> LossValue:
    """``loss_batch(fam, batch)`` of a log-shift core family, from
    ``pair_loss`` in place of the closed form."""
    g, tape = fam.localizer.forward_batch(batch.x)
    value, d_g = pair_loss(fam.shift(g), batch.a, fam.dshift(g),
                           fam.epsilon_floor)
    return LossValue(value, fam.localizer.backward_batch(tape, d_g))


def fixed_loss(a) -> float:
    """The size loss of the fixed family: the core's at a constant shift,
    whose pair inverses are the fixed family's max(A_n, eps)."""
    return pair_loss(np.zeros(len(a)), a)[0]


class CodomainError(ValueError):
    """A transformed score lies outside the family codomain at this x."""


def _expand(value, *operands):
    """Broadcast a (possibly constant) value to the joint operand shape."""
    shape = np.broadcast_shapes(*(np.shape(o) for o in operands))
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


class MapFamily:
    """A family B = phi(loc, A) with the library family's batch API.

    Subclasses implement ``phi``/``phi_inv`` as numpy-vectorized functions
    of (loc, score), and ``loc_batch`` where the map depends on x.
    """

    def __init__(self, epsilon_floor: float = DEFAULT_EPSILON_FLOOR):
        self.epsilon_floor = float(epsilon_floor)

    def loc_batch(self, xs) -> np.ndarray:
        return np.zeros(np.asarray(xs).shape[0])

    def forward_batch(self, a, locs):
        a = np.asarray(a, dtype=float)
        if np.any(a < 0):
            raise ValueError("base scores must be nonnegative")
        return self.phi(locs, a)

    def inverse_batch(self, b, locs):
        return self.phi_inv(locs, b)

    def _clamped(self, a):
        return np.maximum(a, self.epsilon_floor)


class LogShiftTransform(MapFamily):
    """Non-adaptive log score with a constant offset; width is x-independent."""

    kind = "log-shift"

    def __init__(self, offset: float = 0.0,
                 epsilon_floor: float = DEFAULT_EPSILON_FLOOR):
        super().__init__(epsilon_floor)
        self.offset = float(offset)

    def phi(self, loc, a):
        return _expand(np.log(self._clamped(a)) + self.offset, loc, a)

    def phi_inv(self, loc, b):
        return _expand(np.exp(np.asarray(b, dtype=float) - self.offset), loc, b)


class SqrtMap(MapFamily):
    """X-independent sqrt of the base score (global monotone map)."""

    kind = "sqrt-map"

    def phi(self, loc, a):
        return np.sqrt(a)

    def phi_inv(self, loc, b):
        if np.any(np.asarray(b) < 0):
            raise ValueError("negative")
        return np.asarray(b, dtype=float) ** 2


class OuterMap:
    """h(z) of a library family's score z, for an increasing h with inverse
    h_inv; ``EXP`` and ``SIGMOID`` give the paper's exp and sigma."""

    kind = "outer-map"

    def __init__(self, core, h, h_inv):
        self.core, self.h, self.h_inv = core, h, h_inv

    def loc_batch(self, xs) -> np.ndarray:
        return self.core.loc_batch(xs)

    def forward_batch(self, a, locs):
        return self.h(self.core.forward_batch(a, locs))

    def inverse_batch(self, b, locs):
        return self.core.inverse_batch(
            self.h_inv(np.asarray(b, dtype=float)), locs)


EXP = (np.exp, np.log)
SIGMOID = (lambda z: 1.0 / (1.0 + np.exp(-z)),
           lambda b: np.log(b) - np.log1p(-b))


class SqrtShiftFixture(MapFamily):
    """B = sqrt(A) + theta * x for scalar attributes.

    The codomain depends on x, so calibrated intervals are not invariant in
    theta; the inverse is the algebraic square, applied without a codomain
    check to expose exactly that behaviour.
    """

    kind = "sqrt-shift-fixture"

    def __init__(self, theta: float):
        super().__init__()
        self.theta = float(theta)

    def loc_batch(self, xs) -> np.ndarray:
        return self.theta * np.asarray(xs, dtype=float).reshape(len(xs), -1)[:, 0]

    def phi(self, loc, a):
        return np.sqrt(a) + loc

    def phi_inv(self, loc, b):
        diff = np.asarray(b, dtype=float) - loc
        return diff * diff


class AdditiveFixture(MapFamily):
    """B = A + g(x)^2 with per-x codomain [g(x)^2, inf).

    Inversion at a test attribute can ask for a negative base score, which
    raises CodomainError; this is the failure the shared-codomain rule of
    the trainable families prevents.
    """

    kind = "additive-fixture"

    def __init__(self, g_fn):
        super().__init__()
        self.g_fn = g_fn  # g at the rows of an (m, d) array

    def loc_batch(self, xs) -> np.ndarray:
        return np.asarray(self.g_fn(np.asarray(xs, dtype=float)), dtype=float)

    def phi(self, loc, a):
        return a + loc * loc

    def phi_inv(self, loc, b):
        out = np.asarray(b, dtype=float) - loc * loc
        if np.any(out < 0):
            raise CodomainError(
                "additive fixture: B below g(x)^2 has no nonnegative base score")
        return out


class AdditiveLogRepairFixture(AdditiveFixture):
    """Log-composed repair of the additive fixture: (1+eps) log A + g(x)^2."""

    kind = "additive-log-repair-fixture"

    def __init__(self, g_fn, eps: float = 0.1):
        super().__init__(g_fn)
        self.eps = float(eps)

    def phi(self, loc, a):
        return (1.0 + self.eps) * np.log(self._clamped(a)) + loc * loc

    def phi_inv(self, loc, b):
        return np.exp((np.asarray(b, dtype=float) - loc * loc) / (1.0 + self.eps))


def pre_activation_margin(net, xs) -> float:
    """Smallest |z| over the hidden pre-activations of net at the rows of
    xs (a single attribute vector is one row), recomputed from the weights
    in the order the forward pass uses."""
    a = np.atleast_2d(np.asarray(xs, dtype=float))
    margin = np.inf
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        z = a @ w.T
        z += b
        margin = min(margin, np.abs(z).min())
        a = np.maximum(z, 0.0)
    return margin


def spy_popen(monkeypatch):
    """The list every subprocess.Popen started from now on is added to."""
    procs = []

    class Spy(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)
    monkeypatch.setattr(subprocess, "Popen", Spy)
    return procs
