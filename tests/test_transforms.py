import numpy as np
import pytest

from scoremorph.network import LocalizerNet
from scoremorph.transforms import TRAINABLE_KINDS, make_family
from support import (EXP, SIGMOID, AdditiveFixture, AdditiveLogRepairFixture,
                     CodomainError, LogShiftTransform, OuterMap,
                     SqrtShiftFixture, bisect_inverse, inverse_slopes)

A_GRID = np.logspace(-8, 4, 40)


def net_for(d=3, seed=0, hidden=(10, 8)):
    return LocalizerNet.init(d, seed=seed, hidden=hidden)


def all_families(seed=0, d=3):
    return [
        make_family("fixed"),
        make_family("erc", net_for(d, seed), gamma=1e-2),
        make_family("linear", net_for(d, seed + 1)),
        LogShiftTransform(offset=0.3),
    ]


def trainable_families(seed=0, d=3):
    return [f for f in all_families(seed, d) if f.kind in TRAINABLE_KINDS]


def slope_a(fam, loc, a):
    """phi_A at (loc, A), which depends on A alone: the oracle's
    1 / (d phi^{-1}/dB) = 1 / max(A, eps) of every log family, fixed too."""
    a = np.asarray(a, dtype=float)
    return 1.0 / inverse_slopes(0.0, a, fam.epsilon_floor)[1]


def implicit_slopes(fam, g, a_star):
    """The oracle's (d phi^{-1}/dg, d phi^{-1}/dB) at A* of a core family."""
    return inverse_slopes(fam.dshift(g), a_star, fam.epsilon_floor)


# ---- forward examples ----

def test_erc_identity_configuration():
    # g = 0 and gamma = 1: the shift -log(g^2 + gamma) is 0, so z = log A
    net = net_for()
    for w in net.weights:
        w[...] = 0.0
    fam = make_family("erc", net, gamma=1.0)
    x = np.zeros((1, 3))
    g = fam.loc_batch(x)
    assert fam.forward_batch([7.0], g)[0] == pytest.approx(np.log(7.0))
    assert fam.inverse_batch(np.log(5.0), g)[0] == pytest.approx(5.0)


def test_sqrt_shift_fixture_worked_values():
    fam = SqrtShiftFixture(theta=1.0)
    pairs = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]
    got = [fam.forward_batch([a], fam.loc_batch(np.array([[x]])))[0]
           for a, x in pairs]
    expected = [2.0, np.sqrt(2) + 2.0, np.sqrt(3) + 3.0]
    assert np.allclose(got, expected, atol=1e-14)


def test_forward_rejects_negative_score():
    for fam in all_families():
        with pytest.raises(ValueError):
            fam.forward_batch([-1.0], fam.loc_batch(np.zeros((1, 3))))


# ---- inverse examples ----

def test_linear_inverse_roundtrip_value():
    fam = make_family("linear", net_for())
    x = np.array([[0.1, -0.3, 0.7]])
    g = fam.loc_batch(x)[0]
    assert fam.inverse_batch(np.log(3.0) + g,
                             fam.loc_batch(x))[0] == pytest.approx(
        3.0, rel=1e-12)


# ---- monotonicity / roundtrip / shared codomain ----

def test_monotone_increasing_on_grid():
    rng = np.random.default_rng(42)
    for fam in all_families():
        for _ in range(100):
            x = rng.normal(size=3)
            b = fam.forward_batch(A_GRID, fam.loc_batch(x[None]))
            assert np.all(np.diff(b) > 0), fam.kind


def test_roundtrip_on_grid():
    rng = np.random.default_rng(43)
    for fam in all_families():
        for _ in range(20):
            x = rng.normal(size=3)[None]
            g = fam.loc_batch(x)
            back = np.asarray([
                fam.inverse_batch(fam.forward_batch([a], g)[0], g)[0]
                for a in A_GRID])
            assert np.all(np.abs(back - A_GRID)
                          <= 1e-10 * np.maximum(1.0, A_GRID)), fam.kind


def test_shared_codomain_across_attributes():
    rng = np.random.default_rng(44)
    for fam in trainable_families():
        for _ in range(50):
            x1, x2 = rng.normal(size=(2, 1, 3))
            for a in (1e-6, 0.5, 3.0, 1e3):
                # must not raise
                fam.inverse_batch(fam.forward_batch([a], fam.loc_batch(x1))[0],
                                  fam.loc_batch(x2))


def test_ranking_identical_for_log_based_families():
    # the paper's exp and sigma score exp(z) and sigmoid(z) of linear's z,
    # which rank every score set as z does
    linear = make_family("linear", net_for(seed=9))
    rng = np.random.default_rng(45)
    xs = rng.normal(size=(40, 3))
    a = rng.chisquare(1, size=40)
    order = np.argsort(linear.forward_batch(a, linear.loc_batch(xs)))
    for outer in (EXP, SIGMOID):
        fam = OuterMap(linear, *outer)
        locs = fam.loc_batch(xs)
        assert np.array_equal(np.argsort(fam.forward_batch(a, locs)), order)


# ---- derivative in A ----

def test_deriv_examples():
    net = net_for()
    for w in net.weights:
        w[...] = 0.0
    erc = make_family("erc", net, gamma=1.0)
    x = np.zeros((1, 3))
    assert slope_a(erc, erc.loc_batch(x), [5.0])[0] == pytest.approx(0.2)
    lin = make_family("linear", net_for())
    assert slope_a(lin, lin.loc_batch(x), [4.0])[0] == pytest.approx(
        0.25 * np.exp(0.0) / np.exp(0.0))
    assert slope_a(lin, lin.loc_batch(x), [4.0])[0] == pytest.approx(0.25)


def test_deriv_A_matches_finite_differences():
    rng = np.random.default_rng(46)
    for fam in all_families():
        for _ in range(10):
            x = rng.normal(size=3)[None]
            a = float(rng.uniform(0.05, 5.0))
            h = 1e-6 * max(1.0, a)
            fd = (fam.forward_batch([a + h], fam.loc_batch(x))[0]
                  - fam.forward_batch([a - h], fam.loc_batch(x))[0]) / (2 * h)
            an = slope_a(fam, fam.loc_batch(x), [a])[0]
            assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an)), fam.kind


def test_deriv_A_strictly_positive():
    rng = np.random.default_rng(47)
    for fam in all_families():
        for _ in range(20):
            loc = fam.loc_batch(rng.normal(size=3)[None])
            assert slope_a(fam, loc, [float(rng.uniform(1e-6, 100.0))])[0] > 0


# ---- numeric inverse (the bisection oracle of the closed form) ----

def test_numeric_inverse_exp_against_analytic():
    # the analytic inverse is the exponential exp(B - g)
    fam = make_family("linear", net_for(seed=11))
    g = fam.loc_batch(np.array([[0.2, 0.4, -0.1]]))
    b = np.log(5.0) + g
    got = bisect_inverse(fam.shift(g), b, fam.epsilon_floor, tol=1e-12)[0]
    assert abs(got - 5.0) <= 1e-10


def test_numeric_inverse_no_root():
    lin = make_family("linear", net_for(seed=12))
    # below the clamped floor log(1e-12)+g there is no root
    with pytest.raises(ValueError, match="^no root below the bracket"):
        bisect_inverse(lin.shift(lin.loc_batch(np.zeros((1, 3)))), -1e6,
                       lin.epsilon_floor)


def test_numeric_inverse_agrees_with_analytic_everywhere():
    rng = np.random.default_rng(48)
    for fam in trainable_families(seed=5):
        for _ in range(10):
            x = rng.normal(size=3)[None]
            a = float(rng.uniform(0.01, 50.0))
            b = fam.forward_batch([a], fam.loc_batch(x))[0]
            got = bisect_inverse(fam.shift(fam.loc_batch(x)), b,
                                 fam.epsilon_floor, tol=1e-12)[0]
            assert abs(got - a) <= 1e-9 * max(1.0, a), fam.kind


# ---- parameter gradients of the inverse ----

def grads_allclose(a, b, rtol):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-12)
    return float((np.abs(a - b) / denom).max()) <= rtol


def test_grad_inverse_params_exp_matches_closed_form():
    # implicit relations at A* = phi^{-1}(B): d A*/d theta = -(phi_g / phi_A)
    # dg/dtheta and d A*/dB = 1 / phi_A, against the closed form
    # A* = e^{B - g}
    rng = np.random.default_rng(49)
    fam = make_family("linear", net_for(seed=13))
    for _ in range(5):
        x = rng.normal(size=3)
        b = float(np.log(rng.uniform(0.1, 10.0)))
        g, tape = fam.localizer.forward_batch(x[None])
        a_star = fam.inverse_batch(b, g)
        d_loc, d_b = implicit_slopes(fam, g, a_star)
        implicit = fam.localizer.backward_batch(tape, d_loc)
        oracle = fam.localizer.backward_batch(tape, -np.exp(b - g))
        assert grads_allclose(implicit, oracle, 1e-10)
        assert d_b[0] == pytest.approx(np.exp(b - g[0]), rel=1e-12)


def test_linear_inverse_derivative_at_b_equals_g():
    fam = make_family("linear", net_for(seed=14))
    x = np.array([[0.5, -0.5, 0.2]])
    g = fam.loc_batch(x)
    dinv_db = implicit_slopes(fam, g, fam.inverse_batch(g, g))[1][0]
    assert dinv_db == pytest.approx(1.0, rel=1e-12)


def test_implicit_vs_analytic_inverse_gradients():
    # numeric bisection + implicit relations vs closed-form derivatives
    rng = np.random.default_rng(50)
    for fam in trainable_families(seed=21):
        for _ in range(5):
            x = rng.normal(size=3)[None]
            a = float(rng.uniform(0.05, 5.0))
            b = fam.forward_batch([a], fam.loc_batch(x))[0]
            g, tape = fam.localizer.forward_batch(x)
            grads = []
            for a_star in (fam.inverse_batch(b, g),
                           bisect_inverse(fam.shift(g), b, fam.epsilon_floor)):
                d_loc, d_b = implicit_slopes(fam, g, a_star)
                grads.append((fam.localizer.backward_batch(tape, d_loc),
                              d_b[0]))
            (analytic, db_a), (implicit, db_n) = grads
            assert grads_allclose(analytic, implicit, 1e-9), fam.kind
            assert abs(db_a - db_n) <= 1e-9 * max(abs(db_a), 1e-12), fam.kind

    def core_inverse_derivatives(fam, x, g, b):
        # A = exp(B - s(g)): dA/dg = -A s'(g), dA/dB = A
        a = fam.inverse_batch(b, g)
        return -a * fam.dshift(g), a

    for fam in trainable_families(seed=22):
        x = rng.normal(size=3)[None]
        a = float(rng.uniform(0.05, 5.0))
        b = fam.forward_batch([a], fam.loc_batch(x))[0]
        g = fam.loc_batch(x)
        d_loc, d_b = core_inverse_derivatives(fam, x, g, b)
        implicit_loc, implicit_b = implicit_slopes(
            fam, g, fam.inverse_batch(b, g))
        assert implicit_loc == pytest.approx(d_loc, rel=1e-9), fam.kind
        assert implicit_b == pytest.approx(d_b, rel=1e-9), fam.kind


# ---- codomain failure fixtures ----

def test_additive_fixture_codomain_failure_and_repair():
    g_fn = lambda xs: 2.0 + xs[:, 0]
    broken = AdditiveFixture(g_fn)
    repaired = AdditiveLogRepairFixture(g_fn, eps=0.1)
    x_cal = np.array([[0.0]])  # g = 2, codomain [4, inf)
    x_test = np.array([[3.0]])  # g = 5, codomain [25, inf)
    b = broken.forward_batch([1.0], broken.loc_batch(x_cal))[0]  # 5 < 25
    with pytest.raises(CodomainError):
        broken.inverse_batch(b, broken.loc_batch(x_test))
    b2 = repaired.forward_batch([1.0], repaired.loc_batch(x_cal))[0]
    # no error
    assert repaired.inverse_batch(b2, repaired.loc_batch(x_test))[0] > 0


def test_epsilon_floor_keeps_log_families_total():
    for fam in (make_family("linear", net_for(seed=15)),
                make_family("erc", net_for(seed=16)),
                LogShiftTransform()):
        g = fam.loc_batch(np.zeros((1, 3)))
        assert np.isfinite(fam.forward_batch([0.0], g)[0])


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-3])
def test_non_finite_or_non_positive_floor_and_gamma_rejected(value):
    # a NaN gamma would make every interval NaN
    with pytest.raises(ValueError,
                       match=f"^gamma must be positive, got {value}$"):
        make_family("erc", localizer=net_for(), gamma=value)


def test_make_family_dispatch_and_errors():
    net = net_for()
    for kind in TRAINABLE_KINDS:
        assert make_family(kind, localizer=net).kind == kind
    assert make_family("fixed").kind == "fixed"
    with pytest.raises(ValueError,
                       match="^family 'fixed' takes no localizer network$"):
        make_family("fixed", localizer=net)
    with pytest.raises(ValueError, match="unknown family kind 'log'"):
        make_family("log")
    with pytest.raises(ValueError):
        make_family("erc")
    with pytest.raises(ValueError):
        make_family("bogus")


def test_non_finite_localization_rejected():
    class BadNet:
        def values(self, xs):
            return np.full(len(xs), np.nan)

    fam = make_family("linear", net_for())
    fam.localizer = BadNet()
    with pytest.raises(ValueError, match="non-finite"):
        fam.forward_batch([1.0], fam.loc_batch(np.zeros((1, 3))))
