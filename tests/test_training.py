import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scoremorph import knn, objective, training
from scoremorph.conformal import evaluate, scored
from scoremorph.data import Dataset, split
from scoremorph.network import LocalizerNet, adam_step
from scoremorph.objective import LossBatch, pairwise_size_loss
from scoremorph.synthetic import SynthSpec, generate
from scoremorph.training import (ProtocolRow, TrainConfig, TrainingDiverged,
                                 TrainTrace, aggregate, run_protocol, train)
from scoremorph.transforms import make_family

from support import fixed_loss, spy_popen

A_GRID = np.logspace(-6, 3, 25)


def synth_splits(kind="linear", n=400, seed=0):
    ds = generate(SynthSpec(kind, n=n, seed=seed)).dataset
    return split(ds, seed)


def fitted_knn(proper, seed=0):
    return knn.fit(proper, seed=seed)


def score(predict, *parts):
    """Each dataset with its base scores under predict."""
    return [scored(ds, predict(ds.x)) for ds in parts]


def quick_config(seed=0, epochs=25, patience=8):
    return TrainConfig(seed=seed, epochs=epochs, patience=patience)


def test_family_labels_table():
    # label -> (kind, label whose localizer it trains); exp and sigma are
    # labels of the linear kind, not kinds of their own
    assert {label: (training.family_kind(label), trained)
            for label, (_, trained) in training.FAMILY_LABELS.items()} == {
        "fixed": ("fixed", "fixed"), "erc": ("erc", "erc"),
        "erc-fit": ("erc", "erc-fit"), "linear": ("linear", "linear"),
        "exp": ("linear", "linear"), "sigma": ("linear", "linear")}
    assert training.CLI_FAMILIES == tuple(training.FAMILY_LABELS)
    with pytest.raises(ValueError, match="^unknown family label 'log'$"):
        training.family_kind("log")
    for kind in ("exp", "sigma"):
        with pytest.raises(ValueError,
                           match=f"^unknown family kind '{kind}'$"):
            make_family(kind, localizer=LocalizerNet.init(3, seed=0))


@pytest.mark.parametrize("gamma", [0.0, -1e-3, float("nan"), float("inf")])
def test_train_config_rejects_a_gamma_that_is_not_finite_and_positive(gamma):
    # make_family's refusal for erc, also for labels that never read gamma:
    # a NaN gamma would otherwise reach the manifest
    with pytest.raises(ValueError,
                       match=f"^gamma must be positive, got {gamma}$"):
        TrainConfig(gamma=gamma)


@pytest.mark.parametrize("rate", [0.0, -1e-3, float("nan"), float("inf")])
def test_train_config_rejects_a_rate_that_is_not_finite_and_positive(rate):
    # a rate of 0 or below leaves the localizer untrained; NaN or inf diverges
    with pytest.raises(ValueError,
                       match=f"^learning_rate must be finite and positive, "
                             f"got {rate}$"):
        TrainConfig(learning_rate=rate)


def test_zero_epochs_returns_init_and_empty_trace():
    proper, cp, val, _ = synth_splits()
    model = fitted_knn(proper)
    fam, trace = train("linear", *score(model.predict_batch, cp, val),
                       quick_config(epochs=0))
    init_like = fam.localizer
    assert trace.epochs == []
    fresh = type(init_like).init(cp.d, seed=0)
    for w, w0 in zip(init_like.weights, fresh.weights):
        assert np.array_equal(w, w0)


def test_train_fixed_gives_identity_and_empty_trace():
    # "fixed" is a CLI label like the others: no localizer, no epochs
    proper, cp, val, _ = synth_splits()
    model = fitted_knn(proper)
    fam, trace = train("fixed", *score(model.predict_batch, cp, val))
    assert fam.kind == "fixed"
    assert trace == TrainTrace()


def test_train_deterministic_in_seed():
    proper, cp, val, _ = synth_splits()
    cp, val = score(fitted_knn(proper).predict_batch, cp, val)
    fam1, tr1 = train("linear", cp, val, quick_config(seed=5, epochs=6))
    fam2, tr2 = train("linear", cp, val, quick_config(seed=5, epochs=6))
    for w1, w2 in zip(fam1.localizer.weights, fam2.localizer.weights):
        assert np.array_equal(w1, w2)
    assert tr1.epochs == tr2.epochs


def test_early_stopping_dominance_and_best_epoch():
    proper, cp, val, _ = synth_splits()
    cp, val = score(fitted_knn(proper).predict_batch, cp, val)
    fam, trace = train("linear", cp, val, quick_config(epochs=15))
    val_losses = [v for _, _, v in trace.epochs]
    returned = pairwise_size_loss(fam, val.x, val.a)
    assert returned == pytest.approx(min(val_losses), rel=1e-9)
    assert returned <= val_losses[0] + 1e-12  # never worse than the init
    recorded = dict((e, v) for e, _, v in trace.epochs)
    assert recorded[trace.best_epoch] == min(val_losses)


def test_trained_family_keeps_monotonicity_and_roundtrip():
    proper, cp, val, _ = synth_splits()
    model = fitted_knn(proper)
    fam, _ = train("linear", *score(model.predict_batch, cp, val),
                   quick_config(epochs=8))
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=3)[None]
        g = fam.loc_batch(x)
        b = fam.forward_batch(A_GRID, g)
        assert np.all(np.diff(b) > 0)
        back = np.asarray([fam.inverse_batch(fam.forward_batch([a], g)[0], g)[0]
                           for a in A_GRID])
        assert np.all(np.abs(back - A_GRID) <= 1e-10 * np.maximum(1.0, A_GRID))


def test_heteroskedastic_training_beats_fixed_majority_of_seeds():
    # noise shrinks with |X|, so a localized family should win on most seeds
    wins = 0
    for seed in range(5):
        proper, cp, val, _ = synth_splits("linear", n=500, seed=seed)
        cp, val = score(fitted_knn(proper, seed).predict_batch, cp, val)
        fixed = fixed_loss(val.a)
        fam, _ = train("linear", cp, val,
                       quick_config(seed=seed, epochs=40, patience=12))
        trained_loss = pairwise_size_loss(fam, val.x, val.a)
        wins += trained_loss < fixed
    assert wins >= 3


def exact_predict(xs):
    return 0.5 * np.asarray(xs).sum(axis=1)


def test_homoskedastic_training_cannot_beat_fixed():
    # constant noise with an exact predictor: nothing to localize, so the
    # trained family matches the fixed baseline up to the epoch-selection
    # noise floor (measured ~1e-3; a 1e-6 slack is below that bias)
    diffs = []
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        x = rng.normal(size=(1000, 3))
        y = exact_predict(x) + 0.3 * rng.normal(size=1000)
        proper, cp, val, _ = split(Dataset(x, y), seed)
        cp, val = score(exact_predict, cp, val)
        fixed = fixed_loss(val.a)
        fam, _ = train("linear", cp, val, quick_config(seed=seed, epochs=20))
        trained_loss = pairwise_size_loss(fam, val.x, val.a)
        assert trained_loss >= fixed - 2e-3, seed
        diffs.append(trained_loss - fixed)
    assert np.mean(diffs) >= -1e-3


def test_erc_fit_constant_residuals_close_to_fixed():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(500, 3))
    y = x[:, 0] + 0.5 * rng.normal(size=500)
    proper, cp, val, test = split(Dataset(x, y), 4)
    cp, val, test = score(fitted_knn(proper, 4).predict_batch, cp, val, test)
    fam, trace = train("erc-fit", cp, val, quick_config(seed=4, epochs=20))
    erc_rep = evaluate(fam, cp, test, [0.1])[0]
    fix_rep = evaluate(make_family("fixed"), cp, test, [0.1])[0]
    assert erc_rep.mean_size == pytest.approx(fix_rep.mean_size, rel=0.05)
    # early stopping: returned validation loss is the best recorded one
    vals = [v for _, _, v in trace.epochs]
    assert min(vals) == vals[trace.best_epoch if trace.best_epoch == 0 else
                             [e for e, _, _ in trace.epochs].index(
                                 trace.best_epoch)]
    assert min(vals) <= max(vals)


def test_erc_fit_deterministic():
    proper, cp, val, _ = synth_splits("cos", n=300, seed=7)
    cp, val = score(fitted_knn(proper, 7).predict_batch, cp, val)
    fam1, _ = train("erc-fit", cp, val, quick_config(seed=7, epochs=5))
    fam2, _ = train("erc-fit", cp, val, quick_config(seed=7, epochs=5))
    for w1, w2 in zip(fam1.localizer.weights, fam2.localizer.weights):
        assert np.array_equal(w1, w2)


def test_run_protocol_shape_and_zero_sd():
    ds = generate(SynthSpec("linear", n=300, seed=1)).dataset
    result = run_protocol(ds, ["fixed", "linear"], [0.1, 0.32], runs=1,
                          seed0=0, config=quick_config(epochs=3, patience=2))
    aggregates = aggregate(result.rows, ["fixed", "linear"], [0.1, 0.32])
    assert len(result.rows) == 2 * 2
    assert len(aggregates) == 2 * 2
    for agg in aggregates:
        assert agg.size_sd == 0.0
        assert agg.validity_sd == 0.0
    assert {a.family for a in aggregates} == {"fixed", "linear"}


def test_run_protocol_multi_run_row_count_and_determinism():
    ds = generate(SynthSpec("cos", n=300, seed=2)).dataset
    kwargs = dict(runs=2, seed0=3, config=quick_config(epochs=2, patience=2))
    r1 = run_protocol(ds, ["fixed", "erc-fit"], [0.1], **kwargs)
    r2 = run_protocol(ds, ["fixed", "erc-fit"], [0.1], **kwargs)
    assert len(r1.rows) == 2 * 2
    assert r1.rows == r2.rows
    seeds = sorted({row.run_seed for row in r1.rows})
    assert seeds == [3, 4]


def test_run_protocol_rejects_unknown_family():
    ds = generate(SynthSpec("cos", n=300, seed=2)).dataset
    with pytest.raises(ValueError, match="unknown families"):
        run_protocol(ds, ["bogus"], [0.1], runs=1, seed0=0)


def test_run_protocol_refuses_empty_or_repeated_families(monkeypatch):
    procs = spy_popen(monkeypatch)
    ds = generate(SynthSpec("cos", n=300, seed=2)).dataset
    with pytest.raises(ValueError, match="^no families given$"):
        run_protocol(ds, [], [0.1], runs=1, seed0=0)
    with pytest.raises(ValueError, match="^family 'linear' given twice$"):
        run_protocol(ds, ["linear", "fixed", "linear"], [0.1], runs=1,
                     seed0=0)
    assert procs == []


def test_run_protocol_rows_in_run_family_alpha_order():
    # one job per (run, trained label): linear's job, which also builds
    # exp, comes before fixed's, yet the rows follow the families given
    ds = generate(SynthSpec("cos", n=300, seed=2)).dataset
    result = run_protocol(ds, ["exp", "fixed", "linear"], [0.32, 0.1],
                          runs=2, seed0=7,
                          config=quick_config(epochs=2, patience=2))
    assert [(r.run_seed, r.family, r.alpha) for r in result.rows] == [
        (seed, family, alpha) for seed in (7, 8)
        for family in ("exp", "fixed", "linear") for alpha in (0.32, 0.1)]
    assert [(seed, label) for seed, label, _ in result.job_seconds] == [
        (7, "linear"), (7, "fixed"), (8, "linear"), (8, "fixed")]
    assert all(seconds > 0 for _, _, seconds in result.job_seconds)


def test_divergence_aborts_with_trace():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(200, 2))
    y = x[:, 0] + 0.1 * rng.normal(size=200)
    proper, cp, val, _ = split(Dataset(x, y), 0)
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDiverged,
                           match="^training diverged at epoch 1: "):
            train("linear", *score(lambda xs: np.asarray(xs)[:, 0], cp, val),
                  TrainConfig(seed=0, epochs=50, learning_rate=1e9))


def test_run_protocol_run_rows_independent_of_runs_and_cores(monkeypatch):
    # each run trains in a worker of its own with one BLAS thread: its rows
    # do not depend on the other runs, nor on how many workers there are
    ds = generate(SynthSpec("cos", n=300, seed=6)).dataset
    args = (ds, ["fixed", "erc-fit", "linear"], [0.1, 0.32])
    kwargs = dict(config=quick_config(epochs=3, patience=3))
    alone = run_protocol(*args, runs=1, seed0=5, **kwargs)
    three = run_protocol(*args, runs=3, seed0=4, **kwargs)
    assert [row for row in three.rows if row.run_seed == 5] == alone.rows
    assert three.knn_ks[5] == alone.knn_ks[5]
    assert [row.run_seed for row in three.rows] == [4] * 6 + [5] * 6 + [6] * 6
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one_core = run_protocol(*args, runs=3, seed0=4, **kwargs)
    assert one_core.rows == three.rows
    assert one_core.knn_ks == three.knn_ks


def test_run_protocol_leaves_no_worker_running(monkeypatch):
    procs = spy_popen(monkeypatch)
    ds = generate(SynthSpec("cos", n=300, seed=2)).dataset
    run_protocol(ds, ["fixed"], [0.1], runs=3, seed0=0)
    assert len(procs) == min(3, len(os.sched_getaffinity(0)))
    assert all(p.returncode == 0 for p in procs)
    procs.clear()
    # on 10 rows the proper split has 4, fewer than the 5 KNN folds: every
    # worker's point_model raises, and the first run's error reaches the caller
    with pytest.raises(ValueError) as exc:
        run_protocol(ds.subset(range(10)), ["fixed"], [0.1], runs=3, seed0=0)
    assert type(exc.value) is ValueError
    assert str(exc.value) == (
        "the data has 10 rows; cross-validating the point model's k takes "
        "at least 13, for a proper training part of 5 rows, one per fold")
    assert procs and all(p.returncode is not None for p in procs)


def test_run_protocol_shares_one_localizer_across_log_families():
    ds = generate(SynthSpec("cos", n=300, seed=5)).dataset
    result = run_protocol(ds, ["linear", "exp", "sigma"], [0.1, 0.32],
                          runs=2, seed0=1,
                          config=quick_config(epochs=3, patience=3))
    cells = {}
    for row in result.rows:
        cells.setdefault((row.alpha, row.run_seed), set()).add(
            (row.mean_size, row.validity))
    assert len(cells) == 2 * 2
    assert all(len(c) == 1 for c in cells.values())


def test_protocol_job_evaluates_a_shared_localizer_once(monkeypatch):
    # linear, exp and sigma share linear's localizer: its job trains and
    # evaluates once and copies the rows to each label, error rows included
    calls = {"evaluate": 0}

    def counting_evaluate(*args):
        calls["evaluate"] += 1
        return evaluate(*args)

    monkeypatch.setattr(training, "evaluate", counting_evaluate)
    ds = generate(SynthSpec("cos", n=300, seed=5)).dataset
    labels = ["linear", "exp", "sigma"]
    alphas = [0.1, 0.32]
    for config, evaluations in ((TrainConfig(epochs=3), 1),
                                (TrainConfig(learning_rate=1e9), 0)):
        calls["evaluate"] = 0
        with np.errstate(all="ignore"):
            rows, _, _ = training.protocol_job(ds, labels, alphas,
                                               (2, "linear"), config)
        assert calls["evaluate"] == evaluations
        linear = rows[:len(alphas)]
        assert [r.family for r in linear] == ["linear"] * len(alphas)
        assert rows == [replace(r, family=label)
                        for label in labels for r in linear]
        if evaluations == 0:
            assert all(r.error.startswith("training diverged")
                       for r in rows)


def test_aggregate_skips_error_rows_and_empty_cells():
    rows = [ProtocolRow("fixed", 0.1, 0, 2.0, 0.9),
            ProtocolRow("fixed", 0.1, 1, 4.0, 0.8),
            ProtocolRow("fixed", 0.1, 2, None, None, "boom"),
            ProtocolRow("linear", 0.1, 0, None, None, "boom")]
    (agg,) = aggregate(rows, ["fixed", "linear"], [0.1])
    assert (agg.family, agg.alpha) == ("fixed", 0.1)
    assert (agg.size_mean, agg.size_sd) == (3.0, 1.0)
    assert agg.validity_mean == pytest.approx(0.85)
    assert agg.validity_sd == pytest.approx(0.05)


def zero_predictor_batches(n_cp, n_val, seed):
    """cp and validation (x, A) batches of cos data, A = y^2 (f = 0)."""
    ds = generate(SynthSpec("cos", n=n_cp + n_val, seed=seed)).dataset
    a = ds.y ** 2
    return (LossBatch(ds.x[:n_cp], a[:n_cp]),
            LossBatch(ds.x[n_cp:], a[n_cp:]))


def record_steps(monkeypatch, on_step):
    """Call on_step(net, state) after every Adam step of training."""
    def step(net, grads, state):
        adam_step(net, grads, state)
        on_step(net, state)
        return net, state
    monkeypatch.setattr(training, "adam_step", step)


@pytest.mark.parametrize("label", ["linear", "erc", "erc-fit"])
def test_buffered_step_matches_allocating_step(monkeypatch, label):
    # 160 rows in batches of 16 for 45 epochs: 450 steps, past five first
    # moment flushes (every 83 steps) and the step (~350) from which the
    # bias correction c1 rounds to 1.0
    cp, val = zero_predictor_batches(160, 100, seed=3)
    config = TrainConfig(seed=3, epochs=45, patience=45)
    runs = []
    for allocating in (False, True):
        if allocating:  # backward_batch without out: fresh gradient arrays
            monkeypatch.setattr(training, "loss_batch",
                                lambda fam, b, out: objective.loss_batch(fam, b))
            monkeypatch.setattr(
                training, "erc_error_fit_loss",
                lambda net, b, out: objective.erc_error_fit_loss(net, b))
        last = {}
        record_steps(monkeypatch, lambda net, state: last.update(
            step=state.step, weights=[w.copy() for w in net.weights
                                      + net.biases]))
        fam, trace = train(label, cp, val, config)
        runs.append((last, fam.localizer, trace))
    (last_b, net_b, trace_b), (last_a, net_a, trace_a) = runs
    assert last_b["step"] == last_a["step"] == 450
    for b, a in zip(last_b["weights"], last_a["weights"]):
        assert np.array_equal(b, a)
    for b, a in zip(net_b.weights + net_b.biases, net_a.weights + net_a.biases):
        assert np.array_equal(b, a)
    assert trace_b.epochs == trace_a.epochs


@pytest.mark.parametrize("label", ["linear", "erc-fit"])
def test_training_step_allocates_no_parameter_sized_array(monkeypatch, label):
    cp, val = zero_predictor_batches(160, 40, seed=4)
    param_bytes = 8 * LocalizerNet.init(cp.x.shape[1], 0).n_params
    peaks = []
    start = {}
    loss_fn = "erc_error_fit_loss" if label == "erc-fit" else "loss_batch"
    loss = getattr(training, loss_fn)

    def timed_loss(*args, **kwargs):
        tracemalloc.reset_peak()
        start["bytes"] = tracemalloc.get_traced_memory()[0]
        return loss(*args, **kwargs)
    monkeypatch.setattr(training, loss_fn, timed_loss)
    record_steps(monkeypatch, lambda net, state: peaks.append(
        tracemalloc.get_traced_memory()[1] - start["bytes"]))
    tracemalloc.start()
    try:
        train(label, cp, val, TrainConfig(seed=4, epochs=3, patience=3))
    finally:
        tracemalloc.stop()
    assert len(peaks) == 30
    # the step's own arrays (a 16-row tape, backward scratch) stay well
    # under one copy of the parameters
    assert max(peaks) < param_bytes
