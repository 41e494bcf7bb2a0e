import numpy as np
import pytest

from scoremorph.synthetic import KINDS, SynthSpec, amplitude, generate


def test_amplitude_examples():
    # independent recomputation of the amplitude formulas
    assert amplitude("cos", 0.0) == pytest.approx(0.1 + 2.0 * np.cos(0.0))
    assert amplitude("squared", 0.0) == pytest.approx(0.1)
    assert amplitude("inverse", 1.0) == pytest.approx(0.1 + 2.0 / (0.1 + 1.0))
    assert amplitude("inverse", 1.0) == pytest.approx(0.1 + 1.8181818181818181)
    assert amplitude("linear", 0.0) == pytest.approx(2.1)
    assert amplitude("linear", 0.6) == pytest.approx(0.1)


def test_amplitude_boundary_is_strict():
    # indicators are off at |x| = 0.5 for every kind
    for kind in KINDS:
        assert amplitude(kind, 0.5) == pytest.approx(0.1)
        assert amplitude(kind, -0.5) == pytest.approx(0.1)


def test_amplitude_vectorized():
    xs = np.array([-1.0, -0.3, 0.0, 0.4, 0.9])
    out = amplitude("cos", xs)
    assert out.shape == xs.shape
    assert out[2] == pytest.approx(2.1)


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec("bogus")
    with pytest.raises(ValueError):
        SynthSpec("cos", n=0)
    with pytest.raises(ValueError):
        SynthSpec("cos", rho=0.0)


@pytest.mark.parametrize("rho", [float("nan"), float("inf"), -0.1])
def test_spec_rejects_a_rho_that_is_not_finite_and_positive(rho):
    # a NaN or inf rho makes a NaN dataset, whose error would not name rho
    with pytest.raises(ValueError,
                       match=f"^rho must be finite and positive, got {rho}$"):
        SynthSpec("cos", rho=rho)


def test_generate_shapes_and_normalization():
    sd = generate(SynthSpec("cos", n=500, seed=1))
    ds = sd.dataset
    assert ds.d == 3
    assert ds.n == 500
    # constant column centered to zero, others standardized
    assert np.allclose(ds.x[:, 0], 0.0)
    assert abs(ds.x[:, 1].mean()) < 1e-12
    assert ds.x[:, 1].std() == pytest.approx(1.0)
    assert ds.x[:, 2].std() == pytest.approx(1.0)
    assert sd.x_raw.shape == (500,)
    assert sd.weights.shape == (3,)


def test_generate_deterministic():
    a = generate(SynthSpec("inverse", n=100, seed=9))
    b = generate(SynthSpec("inverse", n=100, seed=9))
    assert np.array_equal(a.dataset.x, b.dataset.x)
    assert np.array_equal(a.dataset.y, b.dataset.y)
    c = generate(SynthSpec("inverse", n=100, seed=10))
    assert not np.array_equal(a.dataset.y, c.dataset.y)


def binned_noise_check(kind, n=20000, seed=3, tol=0.15):
    sd = generate(SynthSpec(kind, n=n, seed=seed))
    w = sd.weights
    resid = sd.dataset.y - (w[0] + w[1] * sd.x_raw + w[2] * sd.x_raw ** 2)
    edges = np.linspace(-1.0, 1.0, 21)  # 0.5 lands on a bin edge
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (sd.x_raw >= lo) & (sd.x_raw < hi)
        if mask.sum() < 200:
            continue
        expected = amplitude(kind, 0.5 * (lo + hi))
        got = resid[mask].std()
        assert abs(got - expected) <= tol * expected, (kind, lo, hi)


def test_binned_noise_sd_matches_amplitude_linear():
    binned_noise_check("linear")


def test_conditional_mean_matches_polynomial():
    sd = generate(SynthSpec("squared", n=20000, seed=4))
    w = sd.weights
    edges = np.linspace(-1.0, 1.0, 21)
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (sd.x_raw >= lo) & (sd.x_raw < hi)
        if mask.sum() < 200:
            continue
        mid = sd.x_raw[mask]
        expected = (w[0] + w[1] * mid + w[2] * mid ** 2).mean()
        se = sd.dataset.y[mask].std() / np.sqrt(mask.sum())
        assert abs(sd.dataset.y[mask].mean() - expected) <= 3 * se
