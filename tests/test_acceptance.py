"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one pass/fail line per
criterion. The heavy criteria print their wall time against the stated
budget.
"""

import time

import numpy as np

from scoremorph.conformal import (calibrate, calibration_scores, evaluate,
                                  half_widths, quantile_index, scored)
from scoremorph.data import Dataset, SplitSpec, normalize
from scoremorph.network import LocalizerNet
from scoremorph.objective import LossBatch, loss_batch, pairwise_size_loss
from scoremorph.synthetic import KINDS, SynthSpec, amplitude, generate
from scoremorph.training import TrainConfig, point_model, train
from scoremorph.transforms import make_family
from support import (EXP, SIGMOID, AdditiveFixture, AdditiveLogRepairFixture,
                     CodomainError, LogShiftTransform, OuterMap, SqrtMap,
                     SqrtShiftFixture, bisect_inverse, inverse_slopes,
                     pre_activation_margin)


def report(num, ok, detail):
    print(f"\n[acceptance] criterion {num:2d}: "
          f"{'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def predict_plane(xs):
    return 0.5 * np.asarray(xs).sum(axis=1)


def heteroskedastic(rng, n):
    x = rng.normal(size=(n, 3))
    y = predict_plane(x) + (0.3 + 0.5 * x[:, 0] ** 2) * rng.normal(size=n)
    return Dataset(x, y)


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_worked_example_exactness():
    pairs = np.array([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)])
    sizes = {}
    for theta in (1.0, -1.0):
        fam = SqrtShiftFixture(theta)
        q = calibrate(
            fam.forward_batch(pairs[:, 0], fam.loc_batch(pairs[:, 1:])), 0.5)
        sizes[theta] = 2.0 * half_widths(
            fam, q, fam.loc_batch(np.array([[0.0]])))[0]
    err_plus = abs(sizes[1.0] - 2 * (2 + np.sqrt(2)))
    err_minus = abs(sizes[-1.0] - 2 * (2 - np.sqrt(2)))
    report(1, err_plus <= 1e-12 and err_minus <= 1e-12,
           f"|C+|={sizes[1.0]:.12f} (err {err_plus:.2e}), "
           f"|C-|={sizes[-1.0]:.12f} (err {err_minus:.2e})")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_marginal_validity_monte_carlo():
    alphas = (0.05, 0.1, 0.32)
    reps, n_cal = 1000, 99
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    families = {
        "fixed": make_family("fixed"),
        "erc": make_family("erc", LocalizerNet.init(3, seed=101), gamma=1e-2),
        "linear": make_family("linear", LocalizerNet.init(3, seed=102)),
        "linear seed 103": make_family("linear",
                                       LocalizerNet.init(3, seed=103)),
        "linear seed 104": make_family("linear",
                                       LocalizerNet.init(3, seed=104)),
    }
    failures = []
    for name, fam in families.items():
        hits = {a: 0 for a in alphas}
        for _ in range(reps):
            ds = heteroskedastic(rng, n_cal + 1)
            cal, test = ds.subset(np.arange(n_cal)), ds.subset([n_cal])
            scores = calibration_scores(fam,
                                        scored(cal, predict_plane(cal.x)))
            f_t = float(predict_plane(test.x)[0])
            for a in alphas:
                q = calibrate(scores, a)
                half = half_widths(fam, q, fam.loc_batch(test.x))[0]
                hits[a] += abs(float(test.y[0]) - f_t) <= half
        for a in alphas:
            p = quantile_index(n_cal, a) / (n_cal + 1)
            bound = 3 * np.sqrt(p * (1 - p) / reps)
            if abs(hits[a] / reps - p) > bound:
                failures.append((name, a, hits[a] / reps, p, bound))
    elapsed = time.perf_counter() - t0
    report(2, not failures and elapsed < 120,
           f"15 coverage cells within 3 sigma, {elapsed:.1f}s < 120s"
           if not failures else f"failed cells: {failures}")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_global_monotone_invariance():
    rng = np.random.default_rng(7)
    fams = [make_family("fixed"), SqrtMap(), LogShiftTransform(offset=0.0)]
    worst = 0.0
    for _ in range(50):
        ds = heteroskedastic(rng, 90)
        cal, test = (scored(d, predict_plane(d.x)) for d in
                     (ds.subset(np.arange(60)), ds.subset(np.arange(60, 90))))
        sizes = [evaluate(f, cal, test, [0.1])[0].mean_size for f in fams]
        worst = max(worst, abs(sizes[0] - sizes[1]), abs(sizes[0] - sizes[2]))
    report(3, worst <= 1e-9,
           f"A vs sqrt(A) vs log(A) interval sizes agree; "
           f"max |diff| {worst:.2e} <= 1e-9 over 50 datasets")


# ---------------------------------------------------------------- criterion 4

FAMILY_BUILDERS = {
    "erc": lambda net: make_family("erc", net, gamma=1e-2),
    "linear": lambda net: make_family("linear", net),
}


def _off_kink_batch(kind, rng, m=6, d=3, margin=1e-3):
    # the production depth shrinks pre-activations below any usable margin
    # for whole batches, so gradient checks run on a smaller localizer
    for _ in range(400):
        net = LocalizerNet.init(d, seed=int(rng.integers(1 << 31)),
                                hidden=(12, 10))
        batch = LossBatch(rng.normal(size=(m, d)),
                          rng.chisquare(1, size=m) + 0.01)
        if pre_activation_margin(net, batch.x) >= margin:
            return FAMILY_BUILDERS[kind](net), batch
    raise RuntimeError("no off-kink batch found")


def test_criterion_4_loss_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    worst = 0.0
    for kind in FAMILY_BUILDERS:
        for _ in range(20):
            fam, batch = _off_kink_batch(kind, rng)
            net = fam.localizer
            out = loss_batch(fam, batch)
            for _ in range(3):
                direction = rng.normal(size=net.n_params)
                direction /= np.sqrt((direction ** 2).sum())
                h = 1e-5

                def shift(sign):
                    net.theta += sign * h * direction
                    net.version += 1

                shift(+1)
                up = pairwise_size_loss(fam, batch.x, batch.a)
                shift(-2)
                down = pairwise_size_loss(fam, batch.x, batch.a)
                shift(+1)
                fd = (up - down) / (2 * h)
                an = float(np.dot(out.grads, direction))
                rel = abs(fd - an) / max(abs(fd), abs(an), 1e-10)
                worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    report(4, worst <= 1e-5 and elapsed < 60,
           f"20 batches x 2 families, max relative FD error {worst:.2e} "
           f"<= 1e-5, {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_implicit_inverse_machinery():
    rng = np.random.default_rng(13)
    fam = make_family("linear", LocalizerNet.init(3, seed=31))
    worst_inv, worst_grad, worst_db = 0.0, 0.0, 0.0
    for _ in range(20):
        x = rng.normal(size=3)
        a_true = float(rng.uniform(0.05, 20.0))
        g, tape = fam.localizer.forward_batch(x[None])
        b = np.log(a_true) + g
        a_bis = bisect_inverse(fam.shift(g), b, fam.epsilon_floor, tol=1e-12)
        worst_inv = max(worst_inv, abs(a_bis[0] - a_true) / max(1.0, a_true))
        # implicit relations at the bisection root: d phi^{-1}/dB = 1 / phi_A
        # and d phi^{-1}/d theta = -(phi_g / phi_A) dg/dtheta
        d_loc, d_b = inverse_slopes(fam.dshift(g), a_bis, fam.epsilon_floor)
        implicit = fam.localizer.backward_batch(tape, d_loc)
        dinv_db = d_b[0]
        # closed-form oracle: phi^{-1} = A = e^{B - g}, so the
        # theta-gradient is -A dg/dtheta and d phi^{-1}/dB = A
        a_closed = np.exp(b - g)
        oracle = fam.localizer.backward_batch(tape, -a_closed)
        scale = max(float(np.abs(oracle).max()), 1e-12)
        worst_grad = max(worst_grad,
                         float(np.abs(implicit - oracle).max()) / scale)
        worst_db = max(worst_db, abs(dinv_db - a_closed[0]) / a_closed[0])
    ok = worst_inv <= 1e-8 and worst_grad <= 1e-8 and worst_db <= 1e-8
    report(5, ok,
           f"bisection vs closed form: inverse {worst_inv:.2e}, "
           f"theta-gradient {worst_grad:.2e}, dB-derivative {worst_db:.2e}, "
           "all <= 1e-8")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_ranking_equivalence():
    # the paper's exp and sigma score exp(z) and sigmoid(z) of linear's z
    linear = make_family("linear", LocalizerNet.init(3, seed=17))
    fams = [linear, OuterMap(linear, *EXP), OuterMap(linear, *SIGMOID)]
    rng = np.random.default_rng(19)
    worst = 0.0
    for _ in range(20):
        ds = heteroskedastic(rng, 120)
        cal, test = (scored(d, predict_plane(d.x)) for d in
                     (ds.subset(np.arange(80)), ds.subset(np.arange(80, 120))))
        for alpha in (0.05, 0.1, 0.32):
            sizes = [evaluate(f, cal, test, [alpha])[0].mean_size
                     for f in fams]
            worst = max(worst, abs(sizes[0] - sizes[1]),
                        abs(sizes[0] - sizes[2]))
    report(6, worst <= 1e-9,
           f"linear/exp/sigma with one localizer: max interval size "
           f"difference {worst:.2e} <= 1e-9")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_local_adaptivity_efficiency():
    alpha = 0.05
    t0 = time.perf_counter()
    threshold = 1 - alpha - 2 * np.sqrt(alpha * (1 - alpha) / 100)
    detail = []
    ok = True
    for kind in ("cos", "linear"):
        wins = {f: 0 for f in ("linear", "exp", "sigma")}
        min_validity = 1.0
        for seed in range(5):
            ds = normalize(generate(SynthSpec(kind, n=1000, seed=seed)).dataset)
            model, (_, cp, val, test) = point_model(ds, SplitSpec(seed))
            cp, val, test = (scored(d, model.predict_batch(d.x))
                             for d in (cp, val, test))
            fixed = evaluate(make_family("fixed"), cp, test, [alpha])[0]
            # the three labels train one localizer, so one training
            # counts toward each
            fam, _ = train("linear", cp, val, TrainConfig(seed=seed))
            rep = evaluate(fam, cp, test, [alpha])[0]
            for name in wins:
                wins[name] += rep.mean_size < fixed.mean_size
            min_validity = min(min_validity, rep.empirical_validity)
            ok &= rep.empirical_validity >= threshold
        ok &= all(w >= 4 for w in wins.values())
        detail.append(f"{kind}: wins {wins}, min validity {min_validity:.3f}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 900
    report(7, ok,
           "; ".join(detail) + f" (threshold {threshold:.4f}); "
           f"{elapsed:.0f}s < 900s")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_erc_fit_stability_observation():
    alpha = 0.1
    sizes = []
    for seed in range(3):
        ds = normalize(generate(SynthSpec("cos", n=1000, seed=seed)).dataset)
        model, (_, cp, val, test) = point_model(ds, SplitSpec(seed))
        cp, val, test = (scored(d, model.predict_batch(d.x))
                         for d in (cp, val, test))
        fam, trace = train("erc-fit", cp, val, TrainConfig(seed=seed))
        assert all(np.isfinite(v) for _, _, v in trace.epochs)
        rep = evaluate(fam, cp, test, [alpha])[0]
        sizes.append(rep.mean_size)
    sd = float(np.std(sizes))
    report(8, np.all(np.isfinite(sizes)),
           f"erc-fit completed 3/3 runs without NaN; "
           f"size {np.mean(sizes):.3f} run-to-run sd {sd:.3f} (reported, "
           "no tighter claim)")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_codomain_failure_reproduction():
    g_fn = lambda xs: 2.0 + xs[:, 0]
    broken = AdditiveFixture(g_fn)
    repaired = AdditiveLogRepairFixture(g_fn, eps=0.1)
    x_cal, x_test = np.array([[0.0]]), np.array([[3.0]])
    # 5, below g(x_test)^2 = 25
    b = broken.forward_batch([1.0], broken.loc_batch(x_cal))[0]
    raised = False
    try:
        broken.inverse_batch(b, broken.loc_batch(x_test))
    except CodomainError:
        raised = True
    b2 = repaired.forward_batch([1.0], repaired.loc_batch(x_cal))[0]
    repaired_value = repaired.inverse_batch(
        b2, repaired.loc_batch(x_test))[0]
    report(9, raised and repaired_value > 0,
           f"additive fixture raised CodomainError; log-composed repair "
           f"inverted to {repaired_value:.3e} without error")


# --------------------------------------------------------------- criterion 10

def test_criterion_10_synthetic_generator_fidelity():
    worst = 0.0
    for kind in KINDS:
        sd = generate(SynthSpec(kind, n=20000, seed=3))
        w = sd.weights
        resid = sd.dataset.y - (w[0] + w[1] * sd.x_raw + w[2] * sd.x_raw ** 2)
        edges = np.linspace(-1.0, 1.0, 21)  # 0.5 lands on a bin edge
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (sd.x_raw >= lo) & (sd.x_raw < hi)
            if mask.sum() < 200:
                continue
            expected = amplitude(kind, 0.5 * (lo + hi))
            rel = abs(float(resid[mask].std()) - expected) / expected
            worst = max(worst, rel)
    report(10, worst <= 0.15,
           f"binned noise sd vs amplitude formulas: max relative error "
           f"{worst:.3f} <= 0.15 across all four kinds at n=20000")
