import numpy as np
import pytest

from scoremorph.conformal import (calibrate, calibration_scores, evaluate,
                                  half_widths, quantile_index, scored)
from scoremorph.data import Dataset, SplitSpec, split
from scoremorph.knn import KnnModel
from scoremorph.network import LocalizerNet
from scoremorph.training import family_kind
from scoremorph.transforms import make_family
from support import (EXP, SIGMOID, LogShiftTransform, OuterMap, SqrtMap,
                     SqrtShiftFixture)


def zero_predictor(xs):
    return np.zeros(len(xs))


def score(predict, *parts):
    """Each dataset with its base scores under predict."""
    return [scored(ds, predict(ds.x)) for ds in parts]


def test_base_score_examples():
    # (f(x), y) = (2, 0), (1.5, 1.5), (-1, 1)
    batch = scored(Dataset(np.zeros((3, 1)), [0.0, 1.5, 1.0]),
                   [2.0, 1.5, -1.0])
    assert batch.a.tolist() == [4.0, 0.0, 4.0]
    with pytest.raises(ValueError):
        scored(Dataset(np.zeros((1, 1)), [0.0]), [float("inf")])


def test_quantile_index_examples():
    assert quantile_index(3, 0.5) == 2
    assert quantile_index(99, 0.05) == 95
    with pytest.raises(ValueError, match="order statistic"):
        quantile_index(10, 0.01)
    with pytest.raises(ValueError, match="order statistic"):
        quantile_index(10, -np.inf)
    with pytest.raises(ValueError, match=r"^alpha=nan is not a number$"):
        quantile_index(10, np.nan)
    with pytest.raises(ValueError):
        quantile_index(10, 1.5)


def test_evaluate_names_a_nan_alpha():
    # NaN fails every comparison; its error row must not blame a bound
    rng = np.random.default_rng(3)
    cal, test = score(zero_predictor, *make_random_split(rng))
    (rep,) = evaluate(make_family("fixed"), cal, test, [float("nan")])
    assert rep.error == "alpha=nan is not a number"
    assert rep.mean_size is None and rep.empirical_validity is None


def test_quantile_index_bounds():
    assert quantile_index(10, 1.0 / 11.0) == 10
    assert quantile_index(10, 1.0) == 1
    for n in (1, 7, 99):
        for alpha in np.linspace(1.0 / (n + 1), 1.0, 23):
            m = quantile_index(n, float(alpha))
            assert 1 <= m <= n


def test_calibrate_worked_example_scores():
    plus = [2.0, np.sqrt(2) + 2.0, np.sqrt(3) + 3.0]
    minus = [0.0, np.sqrt(2) - 2.0, np.sqrt(3) - 3.0]
    assert calibrate(plus, 0.5) == pytest.approx(
        np.sqrt(2) + 2.0, abs=1e-15)
    assert calibrate(minus, 0.5) == pytest.approx(
        np.sqrt(2) - 2.0, abs=1e-15)


def test_calibrate_single_record():
    assert calibrate(np.array([3.3]), 0.5) == 3.3


def test_calibrate_empty_errors():
    with pytest.raises(ValueError):
        calibrate([], 0.5)


def test_calibrate_exactly_mstar_below():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = rng.normal(size=25)
        alpha = float(rng.uniform(1.0 / 26.0, 1.0))
        q = calibrate(b, alpha)
        assert (b <= q).sum() == quantile_index(25, alpha)


def test_calibrate_ties_deterministic():
    b = [1.0, 1.0, 1.0, 2.0]
    assert calibrate(b, 0.5) == 1.0


def test_interval_worked_example_sizes():
    # calibration (a, x) = {(1,1),(2,2),(3,3)}, x_test = 0, alpha = 1/2
    # zero predictor with labels sqrt(a) gives the base scores a
    cal = Dataset(np.array([[1.0], [2.0], [3.0]]), np.sqrt([1.0, 2.0, 3.0]))
    sizes = {}
    for theta in (1.0, -1.0):
        fam = SqrtShiftFixture(theta)
        (batch,) = score(zero_predictor, cal)
        q = calibrate(calibration_scores(fam, batch), 0.5)
        sizes[theta] = 2.0 * half_widths(
            fam, q, fam.loc_batch(np.array([[0.0]])))[0]
    assert sizes[1.0] == pytest.approx(2 * (2 + np.sqrt(2)), abs=1e-12)
    assert sizes[-1.0] == pytest.approx(2 * (2 - np.sqrt(2)), abs=1e-12)
    assert sizes[1.0] != sizes[-1.0]


def test_interval_fixed_family():
    fixed = make_family("fixed")
    half = half_widths(fixed, np.log(9.0), fixed.loc_batch(np.zeros((1, 2))))[0]
    assert half == pytest.approx(3.0)
    assert 2.9999 <= half < 3.1


def make_random_split(rng, n_cal=60, n_test=25):
    x = rng.normal(size=(n_cal + n_test, 3))
    y = 0.5 * x.sum(axis=1) + (0.3 + 0.5 * x[:, 0] ** 2) * rng.normal(
        size=n_cal + n_test)
    ds = Dataset(x, y)
    return ds.subset(np.arange(n_cal)), ds.subset(np.arange(n_cal, n_cal + n_test))


def predict_mean(xs):
    return 0.5 * np.asarray(xs).sum(axis=1)


def test_global_monotone_invariance():
    # identity, sqrt, and log of the base score give identical intervals
    rng = np.random.default_rng(7)
    fams = [make_family("fixed"), SqrtMap(), LogShiftTransform(offset=0.0)]
    for _ in range(50):
        cal, test = score(predict_mean, *make_random_split(rng))
        sizes = []
        for fam in fams:
            reports = evaluate(fam, cal, test, [0.1])
            sizes.append(reports[0].mean_size)
        assert abs(sizes[0] - sizes[1]) <= 1e-9 * max(1.0, sizes[0])
        assert abs(sizes[0] - sizes[2]) <= 1e-9 * max(1.0, sizes[0])


def test_log_shift_offset_cancels_in_intervals():
    rng = np.random.default_rng(8)
    cal, test = score(predict_mean, *make_random_split(rng))
    a = evaluate(LogShiftTransform(offset=0.0), cal, test, [0.1])
    b = evaluate(LogShiftTransform(offset=2.5), cal, test, [0.1])
    assert a[0].mean_size == pytest.approx(b[0].mean_size, rel=1e-9)


def test_evaluate_degenerate_exact_predictions():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(40, 3))
    y = predict_mean(x)
    ds = Dataset(x, y + rng.normal(size=40))  # calibration has residuals
    test = Dataset(x, y)  # test labels equal predictions exactly
    cal, test = score(predict_mean, ds, test)
    for alpha in (0.05, 0.2, 0.5):
        rep = evaluate(make_family("fixed"), cal, test, [alpha])[0]
        assert rep.empirical_validity == 1.0


def test_fixed_validity_on_tied_scores_is_the_label_space_count():
    # integer attributes and labels with repeated rows: the KNN predictions,
    # and so the scores, take few distinct values, and many test scores tie
    # the quantile; scored as log max(A, eps), fixed must still cover
    # exactly the test rows with A at most the m*-th calibration A
    fixed = make_family("fixed")
    for seed in range(30):
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 5, size=1000)
        y = x + rng.integers(-3, 4, size=1000)
        proper, cp, _, te = split(Dataset(x[:, None], y), SplitSpec(seed))
        cal, test = score(KnnModel(proper.x, proper.y, 50).predict_batch,
                          cp, te)
        alphas = np.linspace(1.0 / (cal.m + 1), 1.0, 30)
        for alpha, rep in zip(alphas, evaluate(fixed, cal, test, alphas)):
            q = np.sort(cal.a)[quantile_index(cal.m, alpha) - 1]
            assert rep.empirical_validity == np.mean(test.a <= q), (seed,
                                                                    alpha)


def test_evaluate_fixed_vs_zero_localizer_linear():
    net = LocalizerNet.init(3, seed=0, hidden=(6, 5))
    for w in net.weights:
        w[...] = 0.0
    rng = np.random.default_rng(10)
    cal, test = score(predict_mean, *make_random_split(rng))
    fixed = evaluate(make_family("fixed"), cal, test, [0.1, 0.32])
    lin = evaluate(make_family("linear", net), cal, test, [0.1, 0.32])
    for a, b in zip(fixed, lin):
        assert a.mean_size == pytest.approx(b.mean_size, rel=1e-9)
        assert a.empirical_validity == b.empirical_validity


def test_evaluate_invalid_alpha_is_an_error_report_for_that_alpha_only():
    # one scoring for all alphas: an alpha outside [1/(N+1), 1] gives an
    # error report and leaves the other alphas as single-alpha calls
    rng = np.random.default_rng(13)
    cal, test = score(predict_mean, *make_random_split(rng))
    net = LocalizerNet.init(3, seed=2, hidden=(6, 5))
    alphas = [0.1, 1e-6, 0.32, 1.5]
    for fam in (make_family("fixed"), make_family("linear", net)):
        reports = evaluate(fam, cal, test, alphas)
        singles = [evaluate(fam, cal, test, [a])[0] for a in alphas]
        assert reports == singles
        assert [r.alpha for r in reports] == alphas
        for r, text in ((reports[1], "order statistic"),
                        (reports[3], "above 1")):
            assert text in r.error
            assert r.mean_size is None and r.empirical_validity is None
        assert reports[0].error == reports[2].error == ""


def test_ranking_equivalent_families_identical_intervals():
    # the paper's exp and sigma score exp(z) and sigmoid(z) of linear's z
    linear = make_family("linear",
                         LocalizerNet.init(3, seed=3, hidden=(10, 8)))
    rng = np.random.default_rng(11)
    cal, test = score(predict_mean, *make_random_split(rng))
    reports = [evaluate(fam, cal, test, [0.1])[0]
               for fam in (linear, OuterMap(linear, *EXP),
                           OuterMap(linear, *SIGMOID))]
    for rep in reports[1:]:
        assert rep.mean_size == pytest.approx(reports[0].mean_size, rel=1e-9)
        assert rep.empirical_validity == reports[0].empirical_validity


def mc_coverage(fam_builder, alpha, n_cal=99, reps=400, seed=0):
    rng = np.random.default_rng(seed)
    fam = fam_builder(rng)
    hits = 0
    for _ in range(reps):
        cal, test = make_random_split(rng, n_cal=n_cal, n_test=1)
        (batch,) = score(predict_mean, cal)
        q = calibrate(calibration_scores(fam, batch), alpha)
        half = half_widths(fam, q, fam.loc_batch(test.x))[0]
        hits += abs(float(test.y[0]) - predict_mean(test.x)[0]) <= half
    return hits / reps


def test_marginal_coverage_fixed_family():
    alpha = 0.1
    p = quantile_index(99, alpha) / 100.0
    cov = mc_coverage(lambda rng: make_family("fixed"), alpha, reps=400,
                      seed=5)
    bound = 3 * np.sqrt(p * (1 - p) / 400)
    assert abs(cov - p) <= bound


def test_marginal_coverage_localized_family():
    alpha = 0.32
    p = quantile_index(99, alpha) / 100.0
    cov = mc_coverage(
        lambda rng: make_family(
            "erc", LocalizerNet.init(3, seed=int(rng.integers(1 << 31)),
                              hidden=(10, 8))),
        alpha, reps=400, seed=6)
    bound = 3 * np.sqrt(p * (1 - p) / 400)
    assert abs(cov - p) <= bound


def saturating_split():
    """A tenth of the labels scaled by 1e9 puts log A + g past 37, where
    sigmoid rounds to exactly 1."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(400, 2))
    y = rng.normal(size=400)
    y[rng.choice(400, size=40, replace=False)] *= 1e9
    ds = Dataset(x, y)
    return ds.subset(np.arange(200)), ds.subset(np.arange(200, 400))


def sigma_label_family():
    return make_family(family_kind("sigma"),
                       localizer=LocalizerNet.init(2, seed=1))


def test_sigma_saturation_calibrates_like_linear():
    # sigmoid(z) rounds to 1 past z = 37, so the paper's sigma, scored as
    # sigmoid(z), inverts the alpha = 0.05 quantile to an unbounded
    # interval; the sigma label builds linear's family, which scores z
    cal, test = score(zero_predictor, *saturating_split())
    linear = sigma_label_family()
    alphas = [0.05, 0.1, 0.32]
    with np.errstate(divide="ignore"):
        saturated = evaluate(OuterMap(linear, *SIGMOID), cal, test, alphas)
    assert saturated[0].mean_size == np.inf
    sizes = [r.mean_size for r in evaluate(linear, cal, test, alphas)]
    assert np.all(np.isfinite(sizes))
    assert sizes[0] > sizes[1] > sizes[2]


def test_sigma_saturation_single_interval_like_linear():
    # the public scores/quantile/half-width path scores z as evaluate does,
    # so the sigma label's interval stays finite where some scores lie past
    # z = 37, where float64 sigmoid(z) is exactly 1
    cal, test = saturating_split()
    linear = sigma_label_family()
    (batch,) = score(zero_predictor, cal)
    scores = calibration_scores(linear, batch)
    assert (calibration_scores(OuterMap(linear, *SIGMOID), batch)
            == 1.0).any()
    locs = linear.loc_batch(test.x[:1])
    half = [half_widths(linear, calibrate(scores, alpha), locs)[0]
            for alpha in (0.05, 0.1, 0.32)]
    assert np.all(np.isfinite(half))
    assert half[0] > half[1] > half[2]


def test_half_widths_match_single_intervals():
    rng = np.random.default_rng(12)
    cal, test = make_random_split(rng)
    fam = make_family("erc", LocalizerNet.init(3, seed=4, hidden=(10, 8)))
    q = calibrate(calibration_scores(fam, *score(predict_mean, cal)), 0.1)
    half = half_widths(fam, q, fam.loc_batch(test.x))
    assert half.shape == (test.n,)
    # one row or many through the localizer: equal up to BLAS rounding
    single = [half_widths(fam, q, fam.loc_batch(x[None]))[0] for x in test.x]
    assert single == pytest.approx(half, rel=1e-12)
