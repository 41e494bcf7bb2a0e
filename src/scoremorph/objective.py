"""Averaged interval-size objective and its total-derivative gradient.

Within a batch every element plays the test role against the others as
calibration, so the loss is the mean over ordered pairs (i, n), i != n, of
sqrt(phi_{x_i}^{-1}(phi_{x_n}(A_n))).

For the log-shift core phi = z = log A + s(x) the pair term is
exp((z_n - s_i) / 2), so the loss is sum_n e^{z_n/2} W_n / (m(m-1)) and
its derivative in s_k is (e^{z_k/2} W_k - e^{-s_k/2} R_k) / (2m(m-1)), with
the leave-one-out sums W_k = sum_{i != k} e^{-s_i/2} and
R_k = sum_{n != k} e^{z_n/2}: O(m), with no pair inverted. Every family
is the core, so ``pairwise_size_loss`` takes any, fixed (the core at
s = 0) included; ``loss_batch`` trains a localizer and refuses, by name, a
family that has none. The size loss and ``erc_error_fit_loss`` both refuse
a value that is not finite with ``ValueError("non-finite loss")``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import LocalizerNet
from .transforms import TransformFamily

@dataclass(frozen=True)
class LossBatch:
    """Attribute rows x with their base scores A: the (x, A) pairs."""

    x: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        a = np.asarray(self.a, dtype=float)
        if x.ndim != 2 or a.shape != (x.shape[0],):
            raise ValueError("batch needs (m, d) attributes and (m,) scores")
        if not np.all(np.isfinite(a) & (a >= 0)):
            raise ValueError("base scores must be finite and nonnegative")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "a", a)

    @property
    def m(self) -> int:
        return self.x.shape[0]

    def rows(self, idx) -> "LossBatch":
        """The rows idx of this batch, which need no second check."""
        sub = object.__new__(LossBatch)
        object.__setattr__(sub, "x", self.x[idx])
        object.__setattr__(sub, "a", self.a[idx])
        return sub


@dataclass(frozen=True)
class LossValue:
    value: float
    grads: np.ndarray  # flat, in the layout of LocalizerNet.theta


def _pair_norm(m: int) -> float:
    """1 / (m(m-1)): the weight of each ordered pair of m samples."""
    if m < 2:
        raise ValueError("pairwise loss needs at least 2 samples")
    return 1.0 / (m * (m - 1))


def _leave_one_out(v):
    """out[k] = sum of v over j != k, from prefix and suffix sums."""
    out = np.zeros_like(v)
    out[1:] = np.cumsum(v[:-1])
    out[:-1] += np.cumsum(v[:0:-1])[::-1]
    return out


def _core_loss(fam: TransformFamily, g, a_eff, grad: bool):
    """Closed-form loss value and d value / d g of the log-shift core, O(m),
    at scores a_eff already floored at eps."""
    norm = _pair_norm(g.shape[0])
    s = fam.shift(g)
    z = np.log(a_eff) + s
    # centre the exponents so neither factor overflows before the product
    c = 0.5 * (z.max() + s.min())
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.exp(0.5 * (z - c))
        w = np.exp(-0.5 * (s - c))
        w_loo = _leave_one_out(w)
        value = float((r * w_loo).sum() * norm)
    if not np.isfinite(value):
        raise ValueError("non-finite loss")
    if not grad:
        return value, None
    d_s = 0.5 * norm * (r * w_loo - w * _leave_one_out(r))
    return value, d_s * fam.dshift(g)


def loss_batch(fam: TransformFamily, batch: LossBatch, out=None) -> LossValue:
    """Pairwise mean interval-size loss with parameter gradients, from the
    core's O(m) closed form. ``out`` is passed on to
    ``LocalizerNet.backward_batch`` as the flat gradient buffer.
    """
    net = fam.localizer
    if net is None:
        raise ValueError(f"family '{fam.kind}' has no localizer to train")
    g, tape = net.forward_batch(batch.x)
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite localization value in batch")
    a_eff = np.maximum(batch.a, fam.epsilon_floor)
    value, d_g = _core_loss(fam, g, a_eff, grad=True)
    return LossValue(value, net.backward_batch(tape, d_g, out))


def pairwise_size_loss(fam: TransformFamily, xs, a) -> float:
    """Loss value only, over all ordered pairs of the given set."""
    a_eff = np.maximum(np.asarray(a, dtype=float), fam.epsilon_floor)
    g = np.asarray(fam.loc_batch(xs), dtype=float)
    return _core_loss(fam, g, a_eff, grad=False)[0]


def erc_error_fit_loss(net: LocalizerNet, batch: LossBatch,
                       out=None) -> LossValue:
    """Residual-fitting loss mean((g(x) - A)^2) with its gradient; ``out``
    as in ``loss_batch``."""
    g, tape = net.forward_batch(batch.x)
    resid = g - batch.a
    with np.errstate(over="ignore"):
        value = float((resid ** 2).mean())
    if not np.isfinite(value):
        raise ValueError("non-finite loss")
    grads = net.backward_batch(tape, 2.0 * resid / batch.m, out)
    return LossValue(value, grads)
