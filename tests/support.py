"""Families and helpers that only the tests use.

The library ships the families the CLI trains and evaluates; the ones
here exist to pin properties from outside that set: global monotone maps
that must not change intervals (among them the paper's exp and sigma,
which score exp(z) and sigmoid(z) of linear's z), a worked example whose
codomain moves with x, and the additive family whose inverse fails at a
test attribute (with its log-composed repair). Each defines only the methods some test
reaches. ``spy_popen`` records the worker processes a call starts.
"""

import subprocess

import numpy as np

from scoremorph.transforms import (DEFAULT_EPSILON_FLOOR, CodomainError,
                                   TransformFamily, _expand)


class LogShiftTransform(TransformFamily):
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

    def dphi_da(self, loc, a):
        return _expand(1.0 / self._clamped(a), loc, a)


class SqrtMap(TransformFamily):
    """X-independent sqrt of the base score (global monotone map)."""

    kind = "sqrt-map"

    def phi(self, loc, a):
        return np.sqrt(a)

    def phi_inv(self, loc, b):
        if np.any(np.asarray(b) < 0):
            raise ValueError("negative")
        return np.asarray(b, dtype=float) ** 2


class OuterMap(TransformFamily):
    """h(z) of a core family's score z, for an increasing h with inverse
    h_inv; ``EXP`` and ``SIGMOID`` give the paper's exp and sigma."""

    kind = "outer-map"

    def __init__(self, core, h, h_inv):
        super().__init__(core.epsilon_floor)
        self.core, self.h, self.h_inv = core, h, h_inv

    def loc_batch(self, xs) -> np.ndarray:
        return self.core.loc_batch(xs)

    def phi(self, loc, a):
        return self.h(self.core.phi(loc, a))

    def phi_inv(self, loc, b):
        return self.core.phi_inv(loc, self.h_inv(np.asarray(b, dtype=float)))


EXP = (np.exp, np.log)
SIGMOID = (lambda z: 1.0 / (1.0 + np.exp(-z)),
           lambda b: np.log(b) - np.log1p(-b))


class CubeFixture(TransformFamily):
    """A^3, inverted only by bisection."""

    kind = "cube-fixture"

    def phi(self, loc, a):
        return np.asarray(a, dtype=float) ** 3


class SqrtShiftFixture(TransformFamily):
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


class AdditiveFixture(TransformFamily):
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


def zero_grads_like(net):
    """Per-layer ``(dW, db)`` zero arrays shaped like net's parameters."""
    return [(np.zeros_like(w), np.zeros_like(b))
            for w, b in zip(net.weights, net.biases)]


def spy_popen(monkeypatch):
    """The list every subprocess.Popen started from now on is added to."""
    procs = []

    class Spy(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            procs.append(self)
    monkeypatch.setattr(subprocess, "Popen", Spy)
    return procs
