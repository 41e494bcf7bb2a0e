"""Heteroskedastic synthetic regression data around a random quadratic.

Labels are an order-2 polynomial in a scalar X ~ U[-1, 1] plus Gaussian
noise whose standard deviation follows one of four attribute-dependent
amplitude profiles. The attribute vector handed to models is (1, X, X^2)
normalized across samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, apply_normalization, compute_stats

KINDS = ("cos", "squared", "inverse", "linear")


@dataclass(frozen=True)
class SynthSpec:
    kind: str
    n: int = 1000
    rho: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind '{self.kind}', pick from {KINDS}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not 0 < self.rho < math.inf:  # NaN fails too
            raise ValueError(f"rho must be finite and positive, got {self.rho}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def amplitude(kind: str, x, rho: float = 0.1):
    """Noise standard deviation at raw coordinate x.

    Indicator boundaries are strict: at |x| = 0.5 every indicator is off.
    """
    x = np.asarray(x, dtype=float)
    ax = np.abs(x)
    if kind == "cos":
        bump = 2.0 * np.cos(0.5 * np.pi * ax) * (ax < 0.5)
    elif kind == "squared":
        bump = 2.0 * x * x * (ax > 0.5)
    elif kind == "inverse":
        bump = 2.0 / (rho + ax) * (ax > 0.5)
    elif kind == "linear":
        bump = (2.0 - ax) * (ax < 0.5)
    else:
        raise ValueError(f"unknown kind '{kind}'")
    out = rho + bump
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class SynthData:
    """Generated dataset plus the raw coordinates and polynomial weights."""

    dataset: Dataset
    x_raw: np.ndarray
    weights: np.ndarray


def generate(spec: SynthSpec) -> SynthData:
    """Draw weights, coordinates, and noise in a fixed order (seeded)."""
    rng = np.random.default_rng(spec.seed)
    w = rng.standard_normal(3)
    x = rng.uniform(-1.0, 1.0, size=spec.n)
    xi = rng.standard_normal(spec.n)
    y = w[0] + w[1] * x + w[2] * x * x + amplitude(spec.kind, x, spec.rho) * xi
    features = np.column_stack([np.ones(spec.n), x, x * x])
    raw = Dataset(features, y)
    # normalize the input vector across samples; the constant column is
    # centered only (zero variance), the label stays raw here
    feat_norm = apply_normalization(raw, compute_stats(raw)).x
    return SynthData(Dataset(feat_norm, y), x, w)
