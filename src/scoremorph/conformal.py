"""Split conformal calibration and interval construction on transformed scores.

The empirical quantile of the transformed calibration scores is an actual
order statistic (never interpolated); the label-space interval at a test
attribute is recovered through the family inverse. ``evaluate`` calibrates
on ``fam.calibration_family()``, for the log-shift core its pre-image
z = log A + s(x), so a saturating outer map cannot lose the quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .transforms import TransformFamily


@dataclass(frozen=True)
class CalibrationRecord:
    """One calibration sample: attribute vector, base score, transformed score."""

    x: np.ndarray
    a: float
    b: float


@dataclass(frozen=True)
class PredictionInterval:
    center: float
    half_width: float

    def __post_init__(self):
        if self.half_width < 0:
            raise ValueError("half width must be nonnegative")

    @property
    def size(self) -> float:
        return 2.0 * self.half_width

    def contains(self, y: float) -> bool:
        return abs(y - self.center) <= self.half_width


@dataclass(frozen=True)
class EvalReport:
    alpha: float
    mean_size: float
    empirical_validity: float
    n_calibration: int
    n_test: int


def base_score(f_x: float, y: float) -> float:
    """Squared residual (f(x) - y)^2."""
    if not (math.isfinite(f_x) and math.isfinite(y)):
        raise ValueError("base score requires finite inputs")
    return (f_x - y) ** 2


def base_scores(predict, ds: Dataset) -> np.ndarray:
    """Squared residuals (f(x_n) - y_n)^2 over a dataset."""
    preds = np.asarray(predict(ds.x), dtype=float)
    return (preds - ds.y) ** 2


def quantile_index(n: int, alpha: float) -> int:
    """1-based order-statistic index m* = ceil((N+1)(1-alpha)).

    Valid for alpha in [1/(N+1), 1]; below that the interval would require
    the (N+1)-th order statistic of N scores.
    """
    if n < 1:
        raise ValueError("need at least one calibration score")
    if alpha > 1.0:
        raise ValueError(f"alpha={alpha} above 1")
    if alpha < 1.0 / (n + 1):
        raise ValueError(
            f"alpha={alpha} below 1/(N+1)={1.0 / (n + 1):.6g}: interval would "
            "require the (N+1)-th order statistic")
    v = (n + 1) * (1.0 - alpha)
    vr = round(v)
    m = int(vr) if abs(v - vr) < 1e-9 else int(math.ceil(v))
    return max(1, min(m, n))


def _quantile_of_scores(b: np.ndarray, alpha: float) -> float:
    m = quantile_index(b.shape[0], alpha)
    # stable sort: ties resolved by original index, deterministic
    order = np.argsort(b, kind="stable")
    return float(b[order[m - 1]])


def calibrate(records, alpha: float) -> float:
    """Empirical quantile q of the transformed calibration scores."""
    if not records:
        raise ValueError("empty calibration records")
    b = np.asarray([r.b for r in records], dtype=float)
    return _quantile_of_scores(b, alpha)


def calibration_records(fam: TransformFamily, predict, ds: Dataset):
    """Score a calibration set: A_n = (f(x_n) - y_n)^2, B_n = phi_{x_n}(A_n)."""
    a = base_scores(predict, ds)
    b = fam.forward_batch(ds.x, a)
    return [CalibrationRecord(ds.x[i], float(a[i]), float(b[i]))
            for i in range(ds.n)]


def interval(fam: TransformFamily, x_test, f_x_test: float,
             q_hat: float) -> PredictionInterval:
    """Symmetric interval around f(x_test) with half width sqrt(phi^{-1}(q))."""
    inv = fam.inverse(x_test, q_hat)
    return PredictionInterval(center=float(f_x_test),
                              half_width=float(np.sqrt(inv)))


def evaluate(fam: TransformFamily, predict, calibration: Dataset,
             test: Dataset, alphas) -> list[EvalReport]:
    """Mean interval size and empirical coverage on a test set, per alpha.

    ``predict`` maps an (n, d) attribute matrix to point predictions.
    """
    fam = fam.calibration_family()
    b_cal = fam.forward_batch(calibration.x, base_scores(predict, calibration))
    a_test = base_scores(predict, test)
    reports = []
    for alpha in alphas:
        q_hat = _quantile_of_scores(b_cal, alpha)
        inv = np.asarray(fam.inverse_batch(test.x, q_hat), dtype=float)
        half = np.sqrt(inv)
        covered = a_test <= inv
        reports.append(EvalReport(
            alpha=float(alpha),
            mean_size=float((2.0 * half).mean()),
            empirical_validity=float(covered.mean()),
            n_calibration=calibration.n,
            n_test=test.n,
        ))
    return reports
