import tracemalloc
import warnings

import numpy as np
import pytest

from scoremorph.network import LocalizerNet
from scoremorph.objective import (LossBatch, _leave_one_out,
                                  erc_error_fit_loss, loss_batch,
                                  pairwise_size_loss)
from scoremorph.transforms import make_family
from support import fixed_loss, oracle_loss, pre_activation_margin

FAMILY_BUILDERS = {
    "erc": lambda net: make_family("erc", net, gamma=1e-2),
    "linear": lambda net: make_family("linear", net),
}


def small_net(seed, d=3, hidden=(12, 10)):
    return LocalizerNet.init(d, seed=seed, hidden=hidden)


def identity_scalar_net():
    # g(x) = relu(x) = x for positive scalar inputs
    return LocalizerNet([np.array([[1.0]]), np.array([[1.0]])],
                        [np.array([0.0]), np.array([0.0])])


def random_batch(rng, m=6, d=3):
    return LossBatch(rng.normal(size=(m, d)), rng.chisquare(1, size=m) + 0.01)


def off_kink_case(kind, seed, m=6, d=3, margin=1e-3):
    """(family, batch) with every hidden pre-activation off the ReLU kink."""
    rng = np.random.default_rng(seed)
    for _ in range(300):
        net = small_net(int(rng.integers(1 << 31)), d)
        batch = random_batch(rng, m, d)
        if pre_activation_margin(net, batch.x) >= margin:
            return FAMILY_BUILDERS[kind](net), batch
    raise RuntimeError("no off-kink batch found")


def random_direction(net, rng):
    vec = rng.normal(size=net.n_params)
    return vec / np.sqrt((vec ** 2).sum())


def shift_params(net, direction, h):
    net.theta += h * direction
    net.version += 1


def directional_fd(fam, batch, direction, h=1e-5):
    """Oracle: central finite difference of the loss along a direction."""
    net = fam.localizer
    shift_params(net, direction, h)
    up = pairwise_size_loss(fam, batch.x, batch.a)
    shift_params(net, direction, -2 * h)
    down = pairwise_size_loss(fam, batch.x, batch.a)
    shift_params(net, direction, h)
    return (up - down) / (2 * h)


# ---- value examples ----

def test_fixed_family_loss_is_mean_root_score():
    rng = np.random.default_rng(0)
    batch = random_batch(rng, m=5)
    m = batch.m
    expected = np.sqrt(batch.a).sum() * (m - 1) / (m * (m - 1))
    assert fixed_loss(batch.a) == pytest.approx(expected, rel=1e-12)


def test_size_loss_takes_fixed_and_training_refuses_it_by_name():
    # fixed is the core at s = 0, with no localizer for loss_batch to train
    batch = random_batch(np.random.default_rng(0), m=5)
    fixed = make_family("fixed")
    assert pairwise_size_loss(fixed, batch.x, batch.a) == pytest.approx(
        fixed_loss(batch.a), rel=1e-12)
    with pytest.raises(ValueError,
                       match="^family 'fixed' has no localizer to train$"):
        loss_batch(fixed, batch)


def test_equal_x_batch_of_two_self_cancels():
    x = np.array([[0.5, -0.2, 1.0], [0.5, -0.2, 1.0]])
    a = np.array([4.0, 9.0])
    expected = (2.0 + 3.0) / 2.0
    for kind in FAMILY_BUILDERS:
        fam = FAMILY_BUILDERS[kind](small_net(1))
        out = loss_batch(fam, LossBatch(x, a))
        assert out.value == pytest.approx(expected, rel=1e-9), kind


# a batch of two rows has two ordered pairs, so its loss is the mean of
# the two pair terms sqrt(phi_{x_test}^{-1}(phi_{x_n}(A_n)))

def test_pair_term_exp_closed_form():
    fam = make_family("linear", identity_scalar_net())
    # the pair term is sqrt(A_n exp(g(x_n) - g(x_test))); g = 1 and 3,
    # A = 1: g(x_n) - g(x_test) = 2 gives sqrt(e^2) = e, and -2 gives 1/e,
    # so the mean is cosh(1)
    batch = LossBatch(np.array([[1.0], [3.0]]), np.array([1.0, 1.0]))
    for mode, loss in (("analytic", loss_batch), ("implicit", oracle_loss)):
        got = loss(fam, batch).value
        assert got == pytest.approx(np.cosh(1.0), rel=1e-12), mode


def test_pair_term_fixed():
    batch = LossBatch(np.stack([np.zeros(2), np.ones(2)]), np.full(2, 4.0))
    assert fixed_loss(batch.a) == pytest.approx(2.0)


def test_pair_term_self_cancellation():
    for kind in FAMILY_BUILDERS:
        fam = FAMILY_BUILDERS[kind](small_net(2))
        x = np.array([0.3, 0.1, -0.5])
        batch = LossBatch(np.stack([x, x]), np.array([2.5, 2.5]))
        for mode, loss in (("analytic", loss_batch),
                           ("implicit", oracle_loss)):
            assert loss(fam, batch).value == \
                pytest.approx(np.sqrt(2.5), rel=1e-9), (kind, mode)


def test_constant_localizer_matches_fixed_loss():
    rng = np.random.default_rng(3)
    batch = random_batch(rng, m=8)
    fixed_value = fixed_loss(batch.a)
    for kind in FAMILY_BUILDERS:
        net = small_net(4)
        net.theta[:] = 0.0
        net.biases[-1][:] = 0.7  # g == 0.7 everywhere
        fam = FAMILY_BUILDERS[kind](net)
        assert loss_batch(fam, batch).value == pytest.approx(
            fixed_value, rel=1e-9), kind


def test_loss_batch_validation():
    # one row is a valid (x, A) batch, but no pair loss
    one = LossBatch(np.zeros((1, 2)), np.zeros(1))
    fam = make_family("erc", small_net(0, d=2))
    with pytest.raises(ValueError, match="at least 2 samples"):
        loss_batch(fam, one)
    with pytest.raises(ValueError, match="at least 2 samples"):
        pairwise_size_loss(fam, one.x, one.a)
    with pytest.raises(ValueError):
        LossBatch(np.zeros((3, 2)), np.array([1.0, -1.0, 2.0]))


def test_non_finite_localization_aborts():
    net = identity_scalar_net()
    net.weights[0][0, 0] = np.inf
    fam = make_family("linear", net)
    with pytest.raises(ValueError, match="non-finite"):
        loss_batch(fam, LossBatch(np.array([[1.0], [2.0]]),
                                  np.array([1.0, 1.0])))


# ---- gradient correctness ----

# a fixed seed offset per kind, so every run checks the same batches
FD_SEED_OFFSET = {"erc": 31, "linear": 62}


def test_gradients_match_directional_fd():
    rng = np.random.default_rng(10)
    for kind in FAMILY_BUILDERS:
        for trial in range(5):
            fam, batch = off_kink_case(kind,
                                       seed=100 * trial + FD_SEED_OFFSET[kind])
            out = loss_batch(fam, batch)
            for _ in range(4):
                v = random_direction(fam.localizer, rng)
                fd = directional_fd(fam, batch, v)
                an = float(np.dot(out.grads, v))
                denom = max(abs(fd), abs(an), 1e-10)
                assert abs(fd - an) / denom <= 1e-5, (kind, trial)


def test_implicit_mode_matches_analytic_exp():
    # the analytic inverse is the exponential exp(B - g)
    fam, batch = off_kink_case("linear", seed=42)
    analytic = loss_batch(fam, batch)
    implicit = oracle_loss(fam, batch)
    assert implicit.value == pytest.approx(analytic.value, rel=1e-8)
    fa, fi = analytic.grads, implicit.grads
    # relative to the gradient scale: bisection noise ~1e-12 would fail a
    # per-element relative test on exactly-zero (dead-path) entries
    assert np.abs(fa - fi).max() <= 1e-8 * max(1.0, np.abs(fa).max())


def test_implicit_mode_matches_analytic_all_trainable():
    for kind in FAMILY_BUILDERS:
        fam, batch = off_kink_case(kind, seed=77, m=4)
        analytic = loss_batch(fam, batch)
        implicit = oracle_loss(fam, batch)
        assert implicit.value == pytest.approx(analytic.value, rel=1e-7), kind


def test_pairwise_size_loss_matches_loss_batch():
    rng = np.random.default_rng(11)
    batch = random_batch(rng, m=7)
    fam = make_family("linear", small_net(12))
    assert pairwise_size_loss(fam, batch.x, batch.a) == pytest.approx(
        loss_batch(fam, batch).value, rel=1e-12)


# ---- residual-fit loss ----

def test_erc_fit_loss_zero_when_g_matches():
    net = identity_scalar_net()
    # g(x) = x for x > 0; choose A = x so the fit is exact
    x = np.array([[1.0], [2.0], [3.0]])
    out = erc_error_fit_loss(net, LossBatch(x, x[:, 0]))
    assert out.value == pytest.approx(0.0, abs=1e-15)


def test_erc_fit_loss_hand_value():
    net = small_net(13, d=1)
    net.theta[:] = 0.0
    x = np.array([[0.5], [-0.5]])
    out = erc_error_fit_loss(net, LossBatch(x, np.array([1.0, 4.0])))
    assert out.value == pytest.approx((1.0 + 16.0) / 2.0)


def test_erc_fit_gradient_matches_fd():
    rng = np.random.default_rng(14)
    net = small_net(15)
    batch = random_batch(rng, m=6)
    assert pre_activation_margin(net, batch.x) > 0  # any margin works: loss is smooth
    out = erc_error_fit_loss(net, batch)
    for _ in range(5):
        v = random_direction(net, rng)
        h = 1e-6
        shift_params(net, v, h)
        up = float(((net.values(batch.x) - batch.a) ** 2).mean())
        shift_params(net, v, -2 * h)
        down = float(((net.values(batch.x) - batch.a) ** 2).mean())
        shift_params(net, v, h)
        fd = (up - down) / (2 * h)
        an = float(np.dot(out.grads, v))
        assert abs(fd - an) <= 1e-6 * max(abs(fd), abs(an), 1e-8)


def test_erc_fit_loss_overflow_aborts():
    # g = x = 1e200, so the squared residuals overflow: the loss refuses
    # them as the size loss does, before any gradient is computed
    net = LocalizerNet([np.array([[1.0]])], [np.zeros(1)])
    batch = LossBatch(np.array([[1e200], [1e200]]), np.array([1.0, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may leak first
        with pytest.raises(ValueError, match=r"^non-finite loss$"):
            erc_error_fit_loss(net, batch)


def test_loss_overflow_aborts_with_indices():
    # g = 1, 2, 2001: the pair terms exp((z_n - s_i) / 2) of test rows 0
    # and 1 against row 2 are about e^1000, past the float64 range
    fam = make_family("linear", identity_scalar_net())
    batch = LossBatch(np.array([[1.0], [2.0], [2001.0]]),
                      np.array([1.0, 2.0, 3.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning may leak first
        with pytest.raises(ValueError, match=r"^non-finite loss$"):
            loss_batch(fam, batch)


def test_loss_overflow_names_pairs_in_bounded_memory():
    # g = -800 on rows 0-1499 and +800 on rows 1500-2999, so the loss
    # overflows; refusing it builds no (3000, 3000) pair matrix, which
    # takes 72 MB
    net = LocalizerNet([np.array([[1.0]])], [np.zeros(1)])
    xs = np.repeat([[-800.0], [800.0]], 1500, axis=0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            pairwise_size_loss(make_family("linear", net), xs, np.ones(3000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "non-finite loss"
    assert peak < 5 * 2**20


# ---- closed form of the log-shift core against the O(m^2) oracle ----

def core_case(kind, m, spread, seed):
    """(family, batch) with shifts s over [-spread, spread] where the kind
    allows it; g(e_k) = g[k] exactly, so parameter gradients are dL/dg."""
    rng = np.random.default_rng(seed)
    s = rng.uniform(-spread, min(spread, 4.0) if kind == "erc" else spread,
                    size=m)
    log_a = rng.uniform(np.log(1e-10), np.log(1e12), size=m)
    g = np.sqrt(np.exp(-s) - 1e-2) if kind == "erc" else s
    net = LocalizerNet([g[None, :]], [np.zeros(1)])
    # a floor below every pair inverse, so bisection always has a root
    fam = make_family(kind, localizer=net, gamma=1e-2, epsilon_floor=1e-300)
    return fam, LossBatch(np.eye(m), np.exp(log_a))


@pytest.mark.parametrize("m,spread", [(2, 3.0), (16, 30.0), (200, 300.0)])
@pytest.mark.parametrize("kind", sorted(FAMILY_BUILDERS))
def test_closed_form_matches_implicit_oracle(kind, m, spread):
    fam, batch = core_case(kind, m, spread, seed=m)
    closed = loss_batch(fam, batch)
    oracle = oracle_loss(fam, batch)
    assert abs(closed.value - oracle.value) <= 1e-12 * abs(oracle.value)
    fc, fo = closed.grads, oracle.grads
    assert np.abs(fc - fo).max() <= 1e-10 * np.abs(fo).max()
    assert pairwise_size_loss(fam, batch.x, batch.a) == closed.value


def test_leave_one_out_sums_have_no_cancellation():
    # total minus self would return 0.0 for the first entry
    v = np.array([1e300, 1.0, 2.0, 1e-300])
    assert _leave_one_out(v).tolist() == [3.0, 1e300, 1e300, 1e300]
