"""Split conformal calibration and interval construction on transformed scores.

``scored`` pairs a split's attributes with its base scores (f(x) - y)^2,
and everything below takes those ``(x, A)`` batches. One array path:
``calibration_scores`` scores them through the family (the log-shift core
z = log max(A, eps) + s(x), which no float saturates), ``calibrate`` takes
an actual order statistic of them (never interpolated), and
``half_widths`` inverts it at any test rows' localizer values, the one
way attributes reach the family (``fam.loc_batch``).

``evaluate`` counts a test row as covered on the event the split conformal
guarantee bounds, test score <= calibration quantile, in score space: the
half width sqrt(exp(q)) of a quantile q = log A may round below sqrt(A),
so the label-space event A <= exp(q) could miss a test score that ties q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .objective import LossBatch
from .transforms import TransformFamily


@dataclass(frozen=True)
class EvalReport:
    alpha: float
    mean_size: float | None
    empirical_validity: float | None
    error: str = ""  # non-empty when this alpha could not be evaluated


def scored(ds: Dataset, preds) -> LossBatch:
    """The rows of ds with their base scores (preds_n - y_n)^2, where preds
    are the point model's predictions at ds.x."""
    return LossBatch(ds.x, (np.asarray(preds, dtype=float) - ds.y) ** 2)


def quantile_index(n: int, alpha: float) -> int:
    """1-based order-statistic index m* = ceil((N+1)(1-alpha)).

    Valid for alpha in [1/(N+1), 1]; below that the interval would require
    the (N+1)-th order statistic of N scores.
    """
    if n < 1:
        raise ValueError("need at least one calibration score")
    if math.isnan(alpha):
        raise ValueError(f"alpha={alpha} is not a number")
    if alpha > 1.0:
        raise ValueError(f"alpha={alpha} above 1")
    v = (n + 1) * (1.0 - alpha)
    # v within rounding of an integer is that integer: alpha = 1 - N/(N+1)
    # may land one ulp below 1/(N+1) and still asks for the N-th statistic
    if not v < n + 1e-9:
        raise ValueError(
            f"alpha={alpha} below 1/(N+1)={1.0 / (n + 1):.6g}: interval would "
            "require the (N+1)-th order statistic")
    vr = round(v)
    m = int(vr) if abs(v - vr) < 1e-9 else int(math.ceil(v))
    return max(1, m)


def calibration_scores(fam: TransformFamily, cal: LossBatch) -> np.ndarray:
    """Scores phi_{x_n}(A_n) of a calibration set."""
    return fam.forward_batch(cal.a, fam.loc_batch(cal.x))


def calibrate(scores, alpha: float) -> float:
    """Empirical quantile q: the m*-th smallest calibration score."""
    b = np.asarray(scores, dtype=float)
    if b.size == 0:
        raise ValueError("empty calibration scores")
    m = quantile_index(b.shape[0], alpha)
    return float(np.partition(b, m - 1)[m - 1])


def half_widths(fam: TransformFamily, q_hat: float, locs) -> np.ndarray:
    """Half widths sqrt(phi_x^{-1}(q)) at rows whose ``fam.loc_batch``
    values are locs, for q from ``calibrate(calibration_scores(fam, ...))``."""
    return np.sqrt(np.asarray(fam.inverse_batch(q_hat, locs), dtype=float))


def evaluate(fam: TransformFamily, calibration: LossBatch, test: LossBatch,
             alphas) -> list[EvalReport]:
    """Mean interval size and empirical coverage on a test set, per alpha;
    a test row is covered where its score is at most the alpha's quantile.

    A ``ValueError`` of one alpha's quantile or inverse becomes that
    alpha's ``error``, with no size or validity. The localizer runs once
    on each set, whatever the number of alphas.
    """
    b_cal = calibration_scores(fam, calibration)
    locs = fam.loc_batch(test.x)
    b_test = fam.forward_batch(test.a, locs)
    reports = []
    for alpha in alphas:
        try:
            q_hat = calibrate(b_cal, alpha)
            half = half_widths(fam, q_hat, locs)
        except ValueError as exc:
            reports.append(EvalReport(float(alpha), None, None, str(exc)))
            continue
        reports.append(EvalReport(
            float(alpha), float((2.0 * half).mean()),
            float((b_test <= q_hat).mean())))
    return reports
