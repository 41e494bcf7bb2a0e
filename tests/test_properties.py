"""Property tests of the log-shift core over wide score and shift ranges,
of the order-statistic calibration, of interval invariance under global
monotone maps, and of each family's coverage of its own calibration set."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypothesis.extra import numpy as hnp

from scoremorph.conformal import (calibrate, calibration_scores, evaluate,
                                  half_widths, quantile_index, scored)
from scoremorph.data import Dataset
from scoremorph.network import LocalizerNet
from scoremorph.objective import LossBatch
from scoremorph.transforms import TRAINABLE_KINDS, make_family
from support import LogShiftTransform

KINDS = st.sampled_from(TRAINABLE_KINDS)
LOCS = st.floats(-30.0, 30.0)
LOG10_A = st.floats(-10.0, 12.0)  # A in [1e-10, 1e12], above the 1e-12 floor
SETTINGS = settings(max_examples=300, deadline=None)


def family_at(kind, *locs):
    """Core family whose localizer returns locs[j] exactly at row j of eye."""
    net = LocalizerNet([np.asarray([locs], dtype=float)], [np.zeros(1)])
    return make_family(kind, localizer=net), np.eye(len(locs))


@SETTINGS
@given(kind=KINDS, loc=LOCS, log10_a=LOG10_A, step=st.floats(1e-8, 2.0))
def test_core_strictly_monotone_above_floor(kind, loc, log10_a, step):
    fam, x = family_at(kind, loc)
    a1, a2 = 10.0 ** log10_a, 10.0 ** (log10_a + step)
    b1, b2 = fam.forward_batch([a1, a2], fam.loc_batch(x[:1]))
    assert b1 < b2


@SETTINGS
@given(kind=KINDS, loc=LOCS, log10_a=LOG10_A)
def test_core_round_trip(kind, loc, log10_a):
    fam, x = family_at(kind, loc)
    a = 10.0 ** log10_a
    g = fam.loc_batch(x[:1])
    b = fam.forward_batch([a], g)[0]
    assert fam.inverse_batch(b, g)[0] == pytest.approx(a, rel=1e-12)


@SETTINGS
@given(kind=KINDS, loc1=LOCS, loc2=LOCS, log10_a=LOG10_A)
def test_core_shared_codomain(kind, loc1, loc2, log10_a):
    fam, x = family_at(kind, loc1, loc2)
    b = fam.forward_batch([10.0 ** log10_a], fam.loc_batch(x[:1]))[0]
    assert fam.inverse_batch(b, fam.loc_batch(x[1:]))[0] > 0


# ---- calibration: quantile index and the empirical quantile ----

SIZES = st.integers(1, 5000)


@SETTINGS
@given(n=SIZES)
def test_quantile_index_at_smallest_alpha(n):
    assert quantile_index(n, 1.0 / (n + 1)) == n
    assert quantile_index(n, 1.0 - n / (n + 1)) == n  # may be 1/(N+1) - ulp


@SETTINGS
@given(n=SIZES, data=st.data())
def test_quantile_index_on_and_next_to_integer_boundaries(n, data):
    # alpha = 1 - k/(N+1) puts (N+1)(1 - alpha) on the integer k up to
    # rounding; the neighbouring floats must not step to k + 1 either
    k = data.draw(st.integers(0, n))
    alpha = 1.0 - k / (n + 1)
    for a in (np.nextafter(alpha, 0.0), alpha, np.nextafter(alpha, 2.0)):
        if a <= 1.0:
            assert quantile_index(n, float(a)) == max(1, k)


@SETTINGS
@given(n=SIZES, alpha=st.floats(0.0, 1.0))
def test_quantile_index_is_smallest_covering_index(n, alpha):
    # exact v = (N+1)(1 - alpha); m* = ceil(v), up to the integer snap
    v = (n + 1) * (1 - Fraction(alpha))
    if v > n + Fraction(1, 10**9):
        with pytest.raises(ValueError, match="order statistic"):
            quantile_index(n, alpha)
        return
    m = quantile_index(n, alpha)
    assert 1 <= m <= n
    assert m >= v - Fraction(1, 10**6)
    assert m == 1 or m - 1 < v


SCORES = st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=60)


def alpha_for(n, frac):
    """An alpha in [1/(N+1), 1]."""
    return min(1.0, 1.0 / (n + 1) + frac * (1.0 - 1.0 / (n + 1)))


@SETTINGS
@given(b=SCORES, frac=st.floats(0.0, 1.0))
def test_calibrate_is_an_order_statistic(b, frac):
    b = np.asarray(b)
    alpha = alpha_for(b.size, frac)
    q = calibrate(b, alpha)
    assert q in b
    m = quantile_index(b.size, alpha)
    assert (b <= q).sum() >= m
    assert (b < q).sum() < m


# correctly rounded or piecewise constant, so non-decreasing in float64 too
MONOTONE_MAPS = {
    "floor": np.floor,
    "clip": lambda b: np.clip(b, -1.0, 1.0),
    "half": lambda b: 0.5 * b,
    "sqrt": lambda b: np.sqrt(np.maximum(b, 0.0)),
    "step": lambda b: (b > 0).astype(float),
}


@SETTINGS
@given(b=SCORES, frac=st.floats(0.0, 1.0),
       name=st.sampled_from(sorted(MONOTONE_MAPS)))
def test_calibrate_commutes_with_monotone_maps(b, frac, name):
    h = MONOTONE_MAPS[name]
    b = np.asarray(b)
    alpha = alpha_for(b.size, frac)
    assert calibrate(h(b), alpha) == h(np.array([calibrate(b, alpha)]))[0]


# ---- intervals under global monotone maps ----

ATTR = st.floats(-5.0, 5.0)


@st.composite
def calibration_problems(draw):
    """Calibration attributes and base scores A in [1e-10, 1e12], test
    attributes, and an alpha in [1/(N+1), 1]."""
    n, d = draw(st.integers(1, 60)), draw(st.integers(1, 4))
    cal_x = draw(hnp.arrays(float, (n, d), elements=ATTR))
    a = 10.0 ** draw(hnp.arrays(float, n, elements=LOG10_A))
    test_x = draw(hnp.arrays(float, (draw(st.integers(1, 30)), d),
                             elements=ATTR))
    return cal_x, a, test_x, alpha_for(n, draw(st.floats(0.0, 1.0)))


def half_widths_at(fam, problem):
    """Full path on labels sqrt(A) under a zero predictor: scores, quantile,
    half widths at the test attributes."""
    cal_x, a, test_x, alpha = problem
    scores = calibration_scores(fam, scored(Dataset(cal_x, np.sqrt(a)),
                                            np.zeros(len(a))))
    return half_widths(fam, calibrate(scores, alpha), fam.loc_batch(test_x))


@SETTINGS
@given(problem=calibration_problems(), offset=st.floats(-30.0, 30.0))
def test_log_shift_intervals_match_fixed(problem, offset):
    # log A + offset is a global monotone map of A: same order statistic,
    # same x-independent half width
    fixed = half_widths_at(make_family("fixed"), problem)
    logged = half_widths_at(LogShiftTransform(offset), problem)
    assert np.all(fixed == fixed[0])
    assert logged == pytest.approx(fixed, rel=1e-12, abs=0.0)


# ---- coverage of the calibration set itself ----

# scores on and below the 1e-12 floor, and up to 1e12
SELF_SCORES = st.one_of(st.floats(0.0, 1e-12),
                        st.builds(lambda e: 10.0 ** e, LOG10_A))


@st.composite
def self_coverage_problems(draw, kind):
    """A family of the kind, a trained kind on a frozen random localizer; a
    calibration set of N rows drawn with repeats from a pool, so rows and
    scores come duplicated; an alpha in [1/(N+1), 1]."""
    pool, d = draw(st.integers(1, 12)), draw(st.integers(1, 3))
    pool_x = draw(hnp.arrays(float, (pool, d), elements=ATTR))
    pool_a = draw(hnp.arrays(float, pool, elements=SELF_SCORES))
    rows = draw(st.lists(st.integers(0, pool - 1), min_size=1, max_size=60))
    fam = make_family(kind) if kind == "fixed" else make_family(
        kind, LocalizerNet.init(d, seed=draw(st.integers(0, 2**32 - 1)),
                                hidden=(6, 5)))
    cal = LossBatch(pool_x[rows], pool_a[rows])
    return fam, cal, alpha_for(cal.m, draw(st.floats(0.0, 1.0)))


@pytest.mark.parametrize("kind", ["fixed", *TRAINABLE_KINDS])
@settings(SETTINGS, derandomize=True)
@given(data=st.data())
def test_evaluate_covers_its_own_calibration_set(kind, data):
    # the quantile is the m*-th smallest calibration score, so at least m*
    # of the N calibration scores are at most it
    fam, cal, alpha = data.draw(self_coverage_problems(kind))
    (rep,) = evaluate(fam, cal, cal, [alpha])
    assert rep.empirical_validity >= quantile_index(cal.m, alpha) / cal.m
