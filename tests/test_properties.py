"""Property tests of the log-shift core over wide score and shift ranges."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoremorph.network import LocalizerNet
from scoremorph.transforms import TRAINABLE_KINDS, make_family

KINDS = st.sampled_from(TRAINABLE_KINDS)
LOCS = st.floats(-30.0, 30.0)
LOG10_A = st.floats(-10.0, 12.0)  # A in [1e-10, 1e12], above the 1e-12 floor
SETTINGS = settings(max_examples=300, deadline=None)


def family_at(kind, *locs):
    """Core family whose localizer returns locs[j] exactly at row j of eye."""
    net = LocalizerNet([np.asarray([locs], dtype=float)], [np.zeros(1)])
    return make_family(kind, localizer=net), np.eye(len(locs))


def resolved(kind, b):
    # float64 sigmoid loses the argument as B nears 1 (exactly 1 past
    # z = 36.7); there only the pre-image z carries the score
    return kind != "sigma" or b < 1.0 - 1e-4


@SETTINGS
@given(kind=KINDS, loc=LOCS, log10_a=LOG10_A, step=st.floats(1e-8, 2.0))
def test_core_strictly_monotone_above_floor(kind, loc, log10_a, step):
    fam, x = family_at(kind, loc)
    a1, a2 = 10.0 ** log10_a, 10.0 ** (log10_a + step)
    assert fam.preimage(loc, a1) < fam.preimage(loc, a2)
    b1, b2 = fam.forward(x[0], a1), fam.forward(x[0], a2)
    assert b1 <= b2
    if resolved(kind, b2):
        assert b1 < b2


@SETTINGS
@given(kind=KINDS, loc=LOCS, log10_a=LOG10_A)
def test_core_round_trip(kind, loc, log10_a):
    fam, x = family_at(kind, loc)
    a = 10.0 ** log10_a
    b = fam.forward(x[0], a)
    if resolved(kind, b):
        assert fam.inverse(x[0], b) == pytest.approx(a, rel=1e-10)
    cal = fam.calibration_family()
    assert cal.inverse(x[0], cal.forward(x[0], a)) == pytest.approx(
        a, rel=1e-12)


@SETTINGS
@given(kind=KINDS, loc1=LOCS, loc2=LOCS, log10_a=LOG10_A)
def test_core_shared_codomain(kind, loc1, loc2, log10_a):
    fam, x = family_at(kind, loc1, loc2)
    a = 10.0 ** log10_a
    b = fam.forward(x[0], a)
    if not (kind == "sigma" and b == 1.0):  # saturated, see resolved()
        assert fam.inverse(x[1], b) > 0
    cal = fam.calibration_family()
    assert cal.inverse(x[1], cal.forward(x[0], a)) > 0
