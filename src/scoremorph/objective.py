"""Averaged interval-size objective and its total-derivative gradient.

Within a batch every element plays the test role against the others as
calibration, so the loss is the mean over ordered pairs (i, n), i != n, of
sqrt(phi_{x_i}^{-1}(phi_{x_n}(A_n))).

For the log-shift core phi = z = log A + s(x) the pair term is
exp((z_n - s_i) / 2), so the loss is sum_n e^{z_n/2} W_n / (m(m-1)) and
its derivative in s_k is (e^{z_k/2} W_k - e^{-s_k/2} R_k) / (2m(m-1)), with
the leave-one-out sums W_k = sum_{i != k} e^{-s_i/2} and
R_k = sum_{n != k} e^{z_n/2}: O(m). A loss that overflows names the pairs
whose term exp((z_n - s_i) / 2) is not finite. Other families, and the
core with ``inverse_mode='implicit'``, invert all m^2 pairs (closed form or
bisection) and take both partials from the implicit relations
d phi^{-1}/d loc = -phi_loc / phi_A, d phi^{-1}/dB = 1 / phi_A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import LocalizerNet
from .transforms import LogShiftCore, TransformFamily


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
    grads: list  # per-layer (dW, db); empty for parameter-free families


def _non_finite(bad_pairs) -> ValueError:
    bad = np.argwhere(bad_pairs & ~np.eye(bad_pairs.shape[0], dtype=bool))
    return ValueError(f"non-finite loss at pair indices {bad[:5].tolist()}")


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


def _core_loss(fam: LogShiftCore, g, a_eff, grad: bool):
    """Closed-form loss value and d value / d g of the log-shift core, O(m)."""
    norm = _pair_norm(g.shape[0])
    s = fam.shift(g)
    z = fam.phi(g, a_eff)
    # centre the exponents so neither factor overflows before the product
    c = 0.5 * (z.max() + s.min())
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.exp(0.5 * (z - c))
        w = np.exp(-0.5 * (s - c))
        w_loo = _leave_one_out(w)
        value = float((r * w_loo).sum() * norm)
        if not np.isfinite(value):
            terms = np.exp(0.5 * (z[None, :] - s[:, None]))
            raise _non_finite(~np.isfinite(terms))
    if not grad:
        return value, None
    d_s = 0.5 * norm * (r * w_loo - w * _leave_one_out(r))
    return value, d_s * fam.dshift(g)


def _pairwise_loss(fam: TransformFamily, g, a_eff, inverse_mode: str,
                   grad: bool):
    """Loss value and d value / d g from the (m, m) matrix of pair inverses."""
    m = g.shape[0]
    norm = _pair_norm(m)
    b = np.broadcast_to(fam.phi(g, a_eff), (m, m))
    g_test = g[:, None]
    if inverse_mode == "implicit":
        u = fam.phi_inv_numeric(g_test, b, tol=0.0)  # to float resolution
    else:
        u = fam.phi_inv(g_test, b)
    t = np.sqrt(u)
    off_diag = ~np.eye(m, dtype=bool)
    value = float(t[off_diag].sum() * norm)
    if not np.isfinite(value):
        raise _non_finite(~np.isfinite(t))
    if not grad:
        return value, None
    phi_p = fam.dphi_da(g_test, u)
    weight = np.where(off_diag, norm * 0.5 / t, 0.0) / phi_p
    d_g = (weight.sum(axis=0) * fam.dphi_dloc(g, a_eff)
           - (weight * fam.dphi_dloc(g_test, u)).sum(axis=1))
    return value, d_g


def loss_batch(fam: TransformFamily, batch: LossBatch,
               inverse_mode: str = "analytic", out=None) -> LossValue:
    """Pairwise mean interval-size loss with parameter gradients.

    The log-shift core uses its O(m) closed form. ``inverse_mode='implicit'``
    instead inverts every pair by bisection and differentiates through the
    implicit relations; both agree to rounding. ``out`` is passed on to
    ``LocalizerNet.backward_batch`` as the flat gradient buffer.
    """
    if inverse_mode not in ("analytic", "implicit"):
        raise ValueError(f"unknown inverse mode '{inverse_mode}'")
    a_eff = np.maximum(batch.a, fam.epsilon_floor)
    if fam.trainable:
        g, tape = fam.localizer.forward_batch(batch.x)
    else:
        g, tape = fam.loc_batch(batch.x), None
    if not np.all(np.isfinite(g)):
        raise ValueError("non-finite localization value in batch")
    if isinstance(fam, LogShiftCore) and inverse_mode == "analytic":
        value, d_g = _core_loss(fam, g, a_eff, fam.trainable)
    else:
        value, d_g = _pairwise_loss(fam, g, a_eff, inverse_mode, fam.trainable)
    if not fam.trainable:
        return LossValue(value, [])
    return LossValue(value, fam.localizer.backward_batch(tape, d_g, out))


def pairwise_size_loss(fam: TransformFamily, xs, a) -> float:
    """Loss value only, over all ordered pairs of the given set."""
    a_eff = np.maximum(np.asarray(a, dtype=float), fam.epsilon_floor)
    g = np.asarray(fam.loc_batch(xs), dtype=float)
    if isinstance(fam, LogShiftCore):
        return _core_loss(fam, g, a_eff, grad=False)[0]
    return _pairwise_loss(fam, g, a_eff, "analytic", grad=False)[0]


def erc_error_fit_loss(net: LocalizerNet, batch: LossBatch,
                       out=None) -> LossValue:
    """Residual-fitting loss mean((g(x) - A)^2) with its gradient; ``out``
    as in ``loss_batch``."""
    g, tape = net.forward_batch(batch.x)
    resid = g - batch.a
    value = float((resid ** 2).mean())
    grads = net.backward_batch(tape, 2.0 * resid / batch.m, out)
    return LossValue(value, grads)
