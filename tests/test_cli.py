import base64
import csv
import hashlib
import json
import os
import re
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scoremorph import cli, knn, training
from scoremorph.cli import main, read_raw_axis
from scoremorph.data import (FRACTIONS, IngestionError, NormalizationStats,
                             load_csv, normalize, split_indices)
from scoremorph.ioutil import write_text_atomic
from scoremorph.knn import KnnModel
from scoremorph.network import LocalizerNet
from scoremorph.serialize import (ModelBundle, load_model, model_from_dict,
                                  save_model)
from scoremorph.synthetic import SynthSpec
from scoremorph.training import TrainConfig
from scoremorph.transforms import make_family


def read_rows(path):
    """CSV rows, skipping versioned comment lines."""
    lines = [l for l in path.read_text().splitlines()
             if l and not l.startswith("#")]
    return list(csv.DictReader(lines))


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def encode(values):
    """The model file's text of a localizer parameter vector."""
    return base64.b64encode(np.asarray(values, dtype="<f8")).decode("ascii")


def run(*argv):
    return main([str(a) for a in argv])


def counting(calls, key, fn):
    """fn, adding one to calls[key] per call."""
    def wrapper(*args, **kwargs):
        calls[key] = calls.get(key, 0) + 1
        return fn(*args, **kwargs)
    return wrapper


def synth(tmp_path, name="d.csv", kind="cos", n=400, seed=42):
    out = tmp_path / name
    assert run("synth", "--kind", kind, "--n", n, "--seed", seed,
               "--out", out) == 0
    return out


# ---- synth ----

def test_synth_shape_and_manifest(tmp_path):
    out = synth(tmp_path, n=1000)
    ds = load_csv(out)
    assert ds.n == 1000
    assert ds.d == 3
    manifest = json.loads((tmp_path / "d.csv.manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["config"]["seed"] == 42
    axis = read_raw_axis(out)
    assert axis.shape == (1000,)


def test_synth_deterministic_digest(tmp_path):
    a = synth(tmp_path, name="a.csv")
    first = digest(a)
    assert run("synth", "--kind", "cos", "--n", 400, "--seed", 42,
               "--out", a) == 0
    assert digest(a) == first


def test_synth_roundtrip_values_exact(tmp_path):
    from scoremorph.synthetic import SynthSpec, generate
    out = synth(tmp_path, kind="inverse", n=120, seed=7)
    ds = load_csv(out)
    sd = generate(SynthSpec("inverse", n=120, seed=7))
    assert np.array_equal(ds.x, sd.dataset.x)
    assert np.array_equal(ds.y, sd.dataset.y)


def test_synth_unknown_kind_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("synth", "--kind", "bogus", "--out", tmp_path / "x.csv")
    assert exc.value.code == 2


@pytest.mark.parametrize("kind", ["cos", "inverse"])
@pytest.mark.parametrize("rho", ["nan", "inf"])
def test_synth_rejects_a_bad_rho_by_name(tmp_path, capsys, kind, rho):
    out = tmp_path / "x.csv"
    assert run("synth", "--kind", kind, "--rho", rho, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: rho must be finite and positive, got {float(rho)}\n")
    assert not out.exists()


def test_missing_required_flag_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("train", "--family", "linear", "--model-out", tmp_path / "m.json")
    assert exc.value.code == 2


def test_main_calls_parse_independently(tmp_path):
    # main builds its parser once per process; a call's flags must not
    # leak into the next call, whatever its subcommand
    first = synth(tmp_path, name="first.csv", n=50, seed=7)
    assert run("train", "--data", first, "--family", "fixed",
               "--model-out", tmp_path / "m.json") == 0
    assert run("synth", "--kind", "cos", "--out", tmp_path / "second.csv") == 0
    train = json.loads((tmp_path / "m.json.manifest.json").read_text())
    second = json.loads(
        (tmp_path / "second.csv.manifest.json").read_text())
    assert train["config"]["seed"] == 0
    assert (second["config"]["n"], second["config"]["seed"]) == (1000, 0)
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask-022", "umask-077"])
def test_outputs_follow_the_umask(tmp_path, umask, mode):
    # the CLI's files are created as open(path, "w") creates a file, not
    # with a temp file's fixed 0600
    old = os.umask(umask)
    try:
        data = synth(tmp_path, n=50, seed=7)
        assert run("train", "--data", data, "--family", "fixed",
                   "--model-out", tmp_path / "m.json") == 0
    finally:
        os.umask(old)
    for path in (data, tmp_path / "d.csv.manifest.json", tmp_path / "m.json"):
        assert path.stat().st_mode & 0o777 == mode


def test_failed_write_leaves_no_file(tmp_path):
    # a lone surrogate fails to encode partway through the write
    with pytest.raises(UnicodeEncodeError):
        write_text_atomic(tmp_path / "out.txt", "row\n\ud800")
    assert list(tmp_path.iterdir()) == []


def test_runtime_failure_exit_code(tmp_path):
    assert run("eval", "--data", tmp_path / "missing.csv", "--families",
               "fixed", "--report", tmp_path / "r.csv") == 1


# ---- train ----

def train_model(tmp_path, family="linear", epochs=2, data=None, seed=1):
    data = data or synth(tmp_path)
    model = tmp_path / f"m_{family}.json"
    assert run("train", "--data", data, "--family", family, "--seed", seed,
               "--epochs", epochs, "--model-out", model) == 0
    return data, model


def test_train_writes_model_trace_manifest(tmp_path):
    data, model = train_model(tmp_path)
    doc = json.loads(model.read_text())
    assert doc["family"] == "linear"
    assert doc["localizer"]["layer_dims"] == [3, 100, 100, 100, 100, 100, 1]
    assert doc["normalization_stats"]["mean"]
    assert doc["knn_k"] >= 1
    trace = read_rows(tmp_path / "m_linear.trace.csv")
    assert trace[0]["epoch"] == "0"
    assert trace[0]["train_loss"] == ""
    assert len(trace) == 3  # init + 2 epochs
    assert (tmp_path / "m_linear.json.manifest.json").exists()


def test_train_writes_the_localizer_as_bytes_not_text_floats(tmp_path):
    # base64 float64 is 8 * 4/3 bytes a parameter; the format 1 file, one
    # text float per line, was about 2.5 times this bound
    data = synth(tmp_path, n=200)
    model = tmp_path / "m.json"
    assert run("train", "--data", data, "--family", "linear", "--epochs", 1,
               "--model-out", model) == 0
    n_params = load_model(model).family.localizer.n_params
    assert n_params == 40901
    assert model.stat().st_size <= 8 * 4 / 3 * n_params + 4096


def test_train_small_file_fits_its_knn_grid(tmp_path):
    # 100 rows: k = 34 fits the 40-row proper split but not its smallest
    # CV training part (32 rows), so the grid must leave it out
    data, model = train_model(tmp_path, data=synth(tmp_path, n=100))
    assert json.loads(model.read_text())["knn_k"] <= 32


def test_train_fixed_family_no_localizer(tmp_path):
    _, model = train_model(tmp_path, family="fixed")
    doc = json.loads(model.read_text())
    assert doc["localizer"] is None
    bundle = load_model(model)
    assert bundle.family.kind == "fixed"


def test_train_erc_fit_dispatch(tmp_path):
    _, model = train_model(tmp_path, family="erc-fit")
    doc = json.loads(model.read_text())
    assert doc["family"] == "erc-fit"
    assert doc["gamma"] == pytest.approx(1e-2)
    bundle = load_model(model)
    assert bundle.family.kind == "erc"


def test_model_save_load_roundtrip(tmp_path):
    data, model = train_model(tmp_path, family="exp")
    bundle = load_model(model)
    rng = np.random.default_rng(0)
    xs = rng.normal(size=(5, 3))
    a = rng.chisquare(1, size=5) + 0.1
    locs = bundle.family.loc_batch(xs)
    b = bundle.family.forward_batch(a, locs)
    save_model(tmp_path / "again.json", bundle.label, bundle.family,
               bundle.stats, bundle.knn_k, bundle.seed)
    again = load_model(tmp_path / "again.json")
    assert np.array_equal(again.family.loc_batch(xs), locs)
    assert np.array_equal(again.family.forward_batch(a, locs), b)
    assert again.seed == bundle.seed == 1
    # synth data holds a constant column; its flag is derived, not stored
    assert again.stats.zero_variance.tolist() == [True, False, False, False]


# theta entries the round trip must keep bit for bit, sign of zero included
SPECIAL_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308,
                                  1.7e308, -1.7e308])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=st.integers(1, 3), hidden=st.lists(st.integers(1, 4), max_size=2),
       data=st.data())
def test_model_file_keeps_theta_bit_for_bit(tmp_path_factory, d, hidden,
                                            data):
    net = LocalizerNet.init(d, seed=0, hidden=hidden)
    values = data.draw(st.lists(
        SPECIAL_FLOATS | st.floats(allow_nan=False, allow_infinity=False),
        min_size=net.n_params, max_size=net.n_params))
    np.copyto(net.theta, values)
    stats = NormalizationStats(np.zeros(d + 1), np.ones(d + 1))
    path = tmp_path_factory.mktemp("roundtrip") / "m.json"
    save_model(path, "linear", make_family("linear", net), stats, 3, 0)
    theta = load_model(path).family.localizer.theta
    assert np.array_equal(theta.view(np.uint64), net.theta.view(np.uint64))


# ---- eval ----

def test_eval_frozen_rows_and_aggregate(tmp_path):
    data, model = train_model(tmp_path)
    report = tmp_path / "r.csv"
    assert run("eval", "--data", data, "--model", model, "--alphas",
               "0.1,0.32", "--runs", 2, "--report", report) == 0
    rows = read_rows(report)
    # 2 runs x 2 families (linear + auto fixed baseline) x 2 alphas
    assert len(rows) == 8
    assert {r["family"] for r in rows} == {"linear", "fixed"}
    agg = read_rows(tmp_path / "r.aggregate.csv")
    assert len(agg) == 4


def test_eval_runs_one_gives_zero_sd(tmp_path):
    data, model = train_model(tmp_path, family="fixed")
    report = tmp_path / "r1.csv"
    assert run("eval", "--data", data, "--model", model, "--alphas", "0.1",
               "--runs", 1, "--report", report) == 0
    agg = read_rows(tmp_path / "r1.aggregate.csv")
    assert all(float(a["size_sd"]) == 0.0 for a in agg)


def test_eval_out_of_range_alpha_error_row(tmp_path):
    data, model = train_model(tmp_path, family="fixed")
    report = tmp_path / "r2.csv"
    assert run("eval", "--data", data, "--model", model, "--alphas",
               "0.1,0.0001", "--runs", 1, "--report", report) == 0
    rows = read_rows(report)
    bad = [r for r in rows if r["alpha"] == "0.0001"]
    assert bad and all("order statistic" in r["error"] for r in bad)
    good = [r for r in rows if r["alpha"] == "0.1"]
    assert good and all(r["error"] == "" for r in good)


@pytest.mark.parametrize("mode", ["frozen", "protocol"])
def test_eval_report_rows_keep_seven_cells(tmp_path, mode):
    # the dataset cell comes from the file name, whose commas become
    # semicolons as the error cell's do
    data = synth(tmp_path, name="a,b.csv", n=300)
    if mode == "frozen":
        _, model = train_model(tmp_path, family="fixed", data=data)
        source = ["--model", model]
    else:
        source = ["--families", "fixed"]
    report = tmp_path / "r.csv"
    assert run("eval", "--data", data, *source, "--alphas", "0.1",
               "--report", report) == 0
    lines = [l for l in report.read_text().splitlines()
             if not l.startswith("#")]
    assert len(lines) == 2
    assert all(len(l.split(",")) == 7 for l in lines)
    assert read_rows(report)[0]["dataset"] == "a;b"


def test_eval_frozen_scores_once_per_run_and_bundle(tmp_path, monkeypatch):
    data, model = train_model(tmp_path)
    calls = {}
    monkeypatch.setattr(KnnModel, "predict_batch",
                        counting(calls, "predict", KnnModel.predict_batch))
    monkeypatch.setattr(cli, "evaluate",
                        counting(calls, "evaluate", cli.evaluate))
    assert run("eval", "--data", data, "--model", model, "--alphas",
               "0.05,0.1,0.32", "--runs", 3, "--report",
               tmp_path / "r.csv") == 0
    # 3 runs x 2 bundles (linear + auto fixed): one evaluate each; both
    # bundles share one point model, which scores the calibration and the
    # test split once per run
    assert calls == {"predict": 2 * 3, "evaluate": 3 * 2}


def test_eval_protocol_scores_each_split_once_per_run(tmp_path, monkeypatch):
    # the jobs of protocol eval run in worker processes, where no spy
    # reaches, so each job is called here in-process; a job holds its
    # run's split, and linear's job builds exp and sigma too
    calls = {}
    monkeypatch.setattr(KnnModel, "predict_batch",
                        counting(calls, "predict", KnnModel.predict_batch))
    ds = normalize(load_csv(synth(tmp_path, n=300)))
    for seed in (0, 1):
        for trained in ("fixed", "erc", "erc-fit", "linear"):
            calls.clear()
            training.protocol_job(ds, list(training.CLI_FAMILIES), [0.1],
                                  (seed, trained),
                                  TrainConfig(epochs=2))
            # cp-train, validation and test, once each
            assert calls == {"predict": 3}


def test_eval_frozen_unbuildable_point_model_gives_error_rows(tmp_path):
    # on 60 rows the proper split has 24: k = 34 cannot be rebuilt, and
    # that must not cost the k = 5 model its rows
    data, model = train_model(tmp_path, data=synth(tmp_path, n=60))
    b = load_model(model)
    k5, k34 = tmp_path / "k5.json", tmp_path / "k34.json"
    save_model(k5, "fixed", make_family("fixed"), b.stats, 5, b.seed)
    save_model(k34, "linear", b.family, b.stats, 34, b.seed)
    rows = {}
    for models in (f"{k5},{k34}", str(k5)):
        report = tmp_path / f"r{len(models)}.csv"
        assert run("eval", "--data", data, "--model", models, "--runs", 2,
                   "--report", report) == 0
        rows[models] = read_rows(report)
    both = rows[f"{k5},{k34}"]
    assert [r for r in both if r["family"] == "fixed"] == rows[str(k5)]
    linear = [r for r in both if r["family"] == "linear"]
    assert len(linear) == 3 * 2
    assert all(r["error"] == "k=34 outside [1; 24]" and r["mean_size"] == ""
               for r in linear)


def test_eval_frozen_duplicate_labels_fail(tmp_path, capsys):
    data, model = train_model(tmp_path)
    b = load_model(model)
    other = tmp_path / "other.json"
    save_model(other, "linear", b.family, b.stats, b.knn_k, b.seed)
    report = tmp_path / "dup.csv"
    assert run("eval", "--data", data, "--model", f"{model},{other}",
               "--report", report) == 1
    assert "'linear'" in capsys.readouterr().err
    assert not report.exists()


@pytest.mark.parametrize("template", ["{0}, {1}", "{0},"])
def test_eval_parses_the_model_list_as_it_parses_families(tmp_path,
                                                          template):
    # entries are stripped and empty ones dropped, for loading and for the
    # manifest's inputs alike
    data, model = train_model(tmp_path)
    b = load_model(model)
    fixed = tmp_path / "m_fixed.json"
    save_model(fixed, "fixed", make_family("fixed"), b.stats, b.knn_k, b.seed)
    report = tmp_path / "r.csv"
    assert run("eval", "--data", data, "--model",
               template.format(model, fixed), "--report", report) == 0
    assert {r["family"] for r in read_rows(report)} == {"linear", "fixed"}
    manifest = json.loads((tmp_path / "r.csv.manifest.json").read_text())
    models = [model, fixed] if "{1}" in template else [model]
    assert set(manifest["inputs"]) == {str(p) for p in [data, *models]}


def test_eval_refuses_a_model_list_with_no_file(tmp_path, capsys):
    report = tmp_path / "r.csv"
    assert run("eval", "--data", synth(tmp_path, n=100), "--model", " , ",
               "--report", report) == 1
    assert capsys.readouterr().err == "error: no model files given\n"
    assert not report.exists()


def test_every_command_splits_and_fits_through_point_model(tmp_path,
                                                           monkeypatch):
    # train, frozen eval, plot and each protocol job get their split and
    # point model from one function: cross-validated k for the ones that
    # train, the model file's k for the frozen ones
    calls = []
    point_model = training.point_model

    def spy(dataset, seed, k=None):
        calls.append(k)
        return point_model(dataset, seed, k)

    monkeypatch.setattr(cli, "point_model", spy)
    monkeypatch.setattr(training, "point_model", spy)
    data, model = train_model(tmp_path)
    assert calls == [None]
    k = load_model(model).knn_k
    calls.clear()
    assert run("eval", "--data", data, "--model", model, "--runs", 2,
               "--report", tmp_path / "r.csv") == 0
    assert calls == [k, k]
    calls.clear()
    assert run("plot", "--data", data, "--model", model,
               "--out", tmp_path / "p.svg") == 0
    assert calls == [k]
    ds = normalize(load_csv(data))
    for trained in ("fixed", "linear"):
        calls.clear()
        training.protocol_job(ds, ["fixed", "linear"], [0.1], (0, trained),
                              TrainConfig(epochs=2))
        assert calls == [None]


def test_eval_runs_zero_fails_in_both_modes(tmp_path, capsys):
    data, model = train_model(tmp_path, family="fixed")
    for mode in (["--model", model], ["--families", "fixed"]):
        report = tmp_path / "r0.csv"
        assert run("eval", "--data", data, *mode, "--runs", 0,
                   "--report", report) == 1
        assert "runs must be >= 1" in capsys.readouterr().err
        assert not report.exists()


def test_eval_invalid_alphas_same_error_rows_in_both_modes(tmp_path):
    data, model = train_model(tmp_path, family="fixed")
    modes = {"frozen": ["--model", model],
             "protocol": ["--families", "fixed", "--epochs", 2]}
    errors = {}
    for name, mode in modes.items():
        rows = {}
        for alphas in ("0.1,0.0001,1.5", "0.1"):
            report = tmp_path / f"{name}_{len(alphas)}.csv"
            assert run("eval", "--data", data, *mode, "--alphas", alphas,
                       "--runs", 2, "--seed", 1, "--report", report) == 0
            rows[alphas] = read_rows(report)
        mixed = rows["0.1,0.0001,1.5"]
        # rows come in (run, family, alpha) order in both modes
        assert [r["alpha"] for r in mixed] == ["0.1", "0.0001", "1.5"] * 2
        assert [r for r in mixed if r["alpha"] == "0.1"] == rows["0.1"]
        for alpha, text in (("0.0001", "order statistic"),
                            ("1.5", "alpha=1.5 above 1")):
            bad = [r for r in mixed if r["alpha"] == alpha]
            assert len(bad) == 2
            assert all(text in r["error"] and r["mean_size"] == ""
                       for r in bad)
        errors[name] = [r["error"] for r in mixed if r["error"]]
    assert errors["protocol"] == errors["frozen"]


def test_eval_protocol_mode_shape(tmp_path):
    data = synth(tmp_path, n=300)
    report = tmp_path / "p.csv"
    assert run("eval", "--data", data, "--families", "fixed,erc-fit",
               "--alphas", "0.1,0.32", "--runs", 2, "--epochs", 2,
               "--report", report) == 0
    rows = read_rows(report)
    assert len(rows) == 2 * 2 * 2
    assert {r["family"] for r in rows} == {"fixed", "erc-fit"}


def test_eval_protocol_divergence_becomes_error_rows(tmp_path):
    # lr = 1 overflows the linear localizer in the first epoch of every run
    data = synth(tmp_path, n=300, seed=1)
    report = tmp_path / "div.csv"
    assert run("eval", "--data", data, "--families", "fixed,erc,linear",
               "--runs", 2, "--epochs", 20, "--patience", 20, "--lr", 1,
               "--report", report) == 0
    rows = read_rows(report)
    assert len(rows) == 3 * 3 * 2
    fixed = [r for r in rows if r["family"] == "fixed"]
    assert all(r["error"] == "" and np.isfinite(float(r["mean_size"]))
               for r in fixed)
    linear = [r for r in rows if r["family"] == "linear"]
    assert len(linear) == 3 * 2
    assert all(r["error"].startswith("training diverged")
               and r["mean_size"] == "" for r in linear)
    agg = read_rows(tmp_path / "div.aggregate.csv")
    assert {a["family"] for a in agg} <= {"fixed", "erc"}


def test_eval_protocol_gradient_overflow_becomes_error_rows(tmp_path,
                                                            monkeypatch):
    # lr = 1e20 drives erc-fit's gradient past 1e154 in the first epoch;
    # Adam refuses it before squaring it into its second moment. The job
    # runs in-process under the suite's warning filter, and the CLI's
    # workers are told to raise any RuntimeWarning too
    data = synth(tmp_path, n=300, seed=1)
    rows, _, _ = training.protocol_job(
        normalize(load_csv(data)), ["erc-fit"], [0.05, 0.1, 0.32],
        (0, "erc-fit"), TrainConfig(learning_rate=1e20))
    monkeypatch.setenv("PYTHONWARNINGS", "error::RuntimeWarning")
    report = tmp_path / "over.csv"
    assert run("eval", "--data", data, "--families", "erc-fit", "--runs", 1,
               "--lr", 1e20, "--report", report) == 0
    cli_rows = read_rows(report)
    assert [r["error"] for r in cli_rows] == [r.error for r in rows] == [
        "training diverged at epoch 1: NaN or infinite gradient or squared "
        "gradient; aborting the update"] * 3
    assert all(r["mean_size"] == "" for r in cli_rows)


def test_eval_protocol_untrainable_family_gives_error_rows(tmp_path):
    # 30 rows: the 12-row cp-train split is smaller than one batch of 16
    data = synth(tmp_path, n=30)
    rows = {}
    for families in ("fixed", "fixed,linear"):
        report = tmp_path / f"r{len(families)}.csv"
        assert run("eval", "--data", data, "--families", families,
                   "--runs", 2, "--report", report) == 0
        rows[families] = read_rows(report)
    both = rows["fixed,linear"]
    assert [r for r in both if r["family"] == "fixed"] == rows["fixed"]
    linear = [r for r in both if r["family"] == "linear"]
    assert len(linear) == 3 * 2
    assert all(r["error"] == "training set of 12 rows is smaller than one "
               "batch of 16"
               and r["mean_size"] == "" for r in linear)


def test_eval_protocol_shared_localizer_diverges_once(tmp_path, monkeypatch):
    # linear, exp and sigma share one trained localizer: its divergence is
    # trained once per run and gives all three the same error rows; the
    # count is taken in-process, one job per run, since the CLI's jobs run
    # in workers
    calls = {}
    monkeypatch.setattr(training, "_loop",
                        counting(calls, "loop", training._loop))
    data = synth(tmp_path, n=300, seed=1)
    ds = normalize(load_csv(data))
    for seed in (0, 1):
        calls.clear()
        rows, _, _ = training.protocol_job(
            ds, ["linear", "exp", "sigma"], [0.05, 0.1, 0.32],
            (seed, "linear"), TrainConfig(learning_rate=1))
        assert calls == {"loop": 1}
        assert [r.family for r in rows] == ["linear"] * 3 + ["exp"] * 3 \
            + ["sigma"] * 3
    report = tmp_path / "div3.csv"
    assert run("eval", "--data", data, "--families", "linear,exp,sigma",
               "--runs", 2, "--lr", 1, "--report", report) == 0
    rows = read_rows(report)
    assert len(rows) == 3 * 3 * 2
    for seed in ("0", "1"):
        errors = {r["error"] for r in rows if r["run_seed"] == seed}
        assert len(errors) == 1
        assert errors.pop().startswith("training diverged")


TOO_FEW_ROWS = ("error: the data has 10 rows; cross-validating the point "
                "model's k takes at least 13, for a proper training part "
                "of 5 rows, one per fold\n")


def test_eval_protocol_worker_error_fails_the_command(tmp_path, capsys):
    # on 10 rows the proper split has 4, fewer than the 5 KNN folds: the
    # ValueError point_model raises in a worker reaches the CLI unchanged,
    # naming the data's row count, not the proper part's 4
    data = synth(tmp_path, n=10)
    report = tmp_path / "tiny.csv"
    assert run("eval", "--data", data, "--families", "fixed", "--runs", 2,
               "--report", report) == 1
    assert capsys.readouterr().err == TOO_FEW_ROWS
    assert not report.exists()


def test_train_names_the_row_count_too_small_to_cross_validate(tmp_path,
                                                                capsys):
    data = synth(tmp_path, n=10)
    model = tmp_path / "m.json"
    assert run("train", "--data", data, "--family", "linear",
               "--model-out", model) == 1
    assert capsys.readouterr().err == TOO_FEW_ROWS
    assert not model.exists()


@pytest.mark.parametrize("families, message", [
    (",", "no families given"),
    ("linear,exp,linear", "family 'linear' given twice"),
])
def test_eval_protocol_refuses_empty_or_repeated_families(tmp_path, capsys,
                                                          families, message):
    data = synth(tmp_path, n=300)
    report = tmp_path / "r.csv"
    assert run("eval", "--data", data, "--families", families,
               "--report", report) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.exists()


def test_eval_protocol_manifest_times_each_job(tmp_path):
    data = synth(tmp_path, n=300)
    report = tmp_path / "t.csv"
    assert run("eval", "--data", data, "--families", "fixed,exp,linear",
               "--runs", 2, "--seed", 3, "--epochs", 2,
               "--report", report) == 0
    manifest = json.loads((tmp_path / "t.csv.manifest.json").read_text())
    timings = manifest["timings"]
    jobs = timings["jobs"]
    assert [(j["run_seed"], j["trained"]) for j in jobs] == [
        (3, "fixed"), (3, "linear"), (4, "fixed"), (4, "linear")]
    assert all(0 < j["seconds"] < timings["protocol_s"] for j in jobs)


def test_train_manifest_times_its_phases_and_names_why_it_stopped(tmp_path):
    # 200 rows leave 80 calibration-training rows: 5 steps of 16 an epoch
    data = synth(tmp_path, n=200)
    cases = {  # name -> (family, epochs, patience)
        "full": ("linear", 3, 3), "early": ("linear", 30, 1),
        "none": ("linear", 0, 1), "fixed": ("fixed", 3, 3)}
    got = {}
    for name, (family, epochs, patience) in cases.items():
        model = tmp_path / f"{name}.json"
        assert run("train", "--data", data, "--family", family,
                   "--epochs", epochs, "--patience", patience,
                   "--model-out", model) == 0
        manifest = json.loads(
            (tmp_path / f"{name}.json.manifest.json").read_text())
        timings = manifest["timings"]
        assert set(timings) == {"load_s", "point_model_s", "train_s",
                                "write_s", "steps", "ms_per_step"}
        assert all(timings[k] > 0 for k in ("load_s", "point_model_s",
                                            "write_s"))
        epochs_run = len(read_rows(tmp_path / f"{name}.trace.csv")) - 1
        got[name] = (timings, manifest["config"]["stop_reason"], epochs_run)
    # at --patience equal to --epochs every epoch runs
    timings, reason, epochs_run = got["full"]
    assert (reason, epochs_run, timings["steps"]) == ("epochs", 3, 15)
    assert timings["ms_per_step"] == pytest.approx(
        1e3 * timings["train_s"] / 15)
    timings, reason, epochs_run = got["early"]
    assert reason == "patience" and epochs_run < 30
    assert timings["steps"] == 5 * epochs_run
    assert timings["ms_per_step"] > 0
    for name, reason in (("none", "epochs"), ("fixed", None)):
        timings, stop_reason, _ = got[name]
        assert (timings["steps"], timings["ms_per_step"], stop_reason) == (
            0, None, reason)


@pytest.fixture(scope="module")
def trained_linear(tmp_path_factory):
    return train_model(tmp_path_factory.mktemp("model"))


MODEL_FIELDS = ("format_version", "family", "gamma", "localizer",
                "normalization_stats", "knn_k", "split_seed")


@pytest.mark.parametrize("damage", [*(f"no-{field}" for field in MODEL_FIELDS),
                                    "text-knn_k", "list", "truncated"])
def test_a_broken_model_file_is_refused_by_path_and_field(
        trained_linear, tmp_path, capsys, damage):
    data, model = trained_linear
    text = model.read_text()
    doc = json.loads(text)
    field = damage.split("-")[-1]
    if damage == "list":
        text = json.dumps([doc])
    elif damage == "truncated":
        text = text[:len(text) // 2]
    elif damage.startswith("no-"):
        del doc[field]
        text = json.dumps(doc)
    else:  # a number written as text
        doc[field] = str(doc[field])
        text = json.dumps(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out"
    for argv in (("eval", "--model", bad, "--report", out),
                 ("plot", "--model", bad, "--out", out)):
        assert run(*argv, "--data", data) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and str(bad) in line
        if damage not in ("list", "truncated"):
            assert f"field '{field}'" in line
        assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("field, edit", [
    ("split_seed", lambda doc: doc.update(split_seed=1.0)),
    ("localizer.theta", lambda doc: doc["localizer"].update(theta=3)),
    ("normalization_stats.mean",
     lambda doc: doc["normalization_stats"].update(mean="x")),
    ("gamma", lambda doc: doc.update(family="erc", gamma=None)),
    pytest.param("localizer.layer_dims", lambda doc: doc.update(
        localizer={"layer_dims": [3], "theta": ""}), id="no-layers"),
    # a localizer of 2 attributes on the file's 3
    pytest.param("localizer.layer_dims", lambda doc: doc.update(localizer={
        "layer_dims": [2, 1], "theta": encode([0.0] * 3)}),
        id="input-width"),
    # each value below is refused inside the read that names its field
    pytest.param("normalization_stats", lambda doc: doc[
        "normalization_stats"].update(sd=[-1.0] * 4), id="negative-sd"),
    pytest.param("normalization_stats", lambda doc: doc[
        "normalization_stats"].update(sd=[1.0] * 3), id="short-sd"),
    # no attribute: fixed loaded, and eval wrote error rows
    pytest.param("normalization_stats", lambda doc: doc[
        "normalization_stats"].update(mean=[], sd=[]), id="no-columns"),
    pytest.param("gamma", lambda doc: doc.update(
        family="erc", gamma=float("nan")), id="nan-gamma"),
    pytest.param("family", lambda doc: doc.update(family="foo"),
                 id="unknown-family"),
    pytest.param("format_version", lambda doc: doc.update(format_version=1),
                 id="format-version-1"),
    pytest.param("split_seed", lambda doc: doc.update(split_seed=-1),
                 id="negative-seed"),
    pytest.param("knn_k", lambda doc: doc.update(knn_k=0), id="zero-k"),
])
def test_a_model_file_error_names_the_nested_field(
        trained_linear, tmp_path, capsys, field, edit):
    data, model = trained_linear
    doc = json.loads(model.read_text())
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    report = tmp_path / "r.csv"
    assert run("eval", "--data", data, "--model", bad,
               "--report", report) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: model file {bad}: field '{field}' ")
    assert list(tmp_path.iterdir()) == [bad]


@pytest.mark.parametrize("field, edit", [
    ("knn_k", lambda doc: doc.update(knn_k=True)),
    ("format_version", lambda doc: doc.update(format_version=True)),
    ("split_seed", lambda doc: doc.update(split_seed=True)),
    ("gamma", lambda doc: doc.update(family="erc", gamma=True)),
    ("normalization_stats.mean",
     lambda doc: doc["normalization_stats"]["mean"].__setitem__(0, False)),
    ("normalization_stats.sd",
     lambda doc: doc["normalization_stats"]["sd"].__setitem__(1, True)),
])
def test_a_model_file_refuses_true_or_false_for_a_number(trained_linear,
                                                          field, edit):
    # Python counts a bool as an int: each of these loaded, as k = 1, as
    # format_version 1, and as 1.0 or 0.0 entries
    doc = json.loads(trained_linear[1].read_text())
    edit(doc)
    with pytest.raises(ValueError) as exc:
        model_from_dict(doc, "m.json")
    assert str(exc.value) in (
        f"model file m.json: field '{field}' holds a bool",
        f"model file m.json: field '{field}' cannot be read: it holds an "
        "entry that is true or false")


@pytest.mark.parametrize("field, edit", [
    pytest.param("localizer.theta", lambda loc: loc.update(
        theta="not base64!"), id="theta-not-base64"),
    pytest.param("localizer.theta", lambda loc: loc.update(
        theta=loc["theta"][:-4]), id="theta-cut-by-4"),
    pytest.param("localizer.theta", lambda loc: loc.update(theta=encode(
        np.append(np.frombuffer(base64.b64decode(loc["theta"]), "<f8"),
                  0.0))), id="theta-one-parameter-too-long"),
    pytest.param("localizer.theta", lambda loc: loc.update(
        theta=[0.0] * 40901), id="theta-list"),
    pytest.param("localizer.theta", lambda loc: loc.update(theta=True),
                 id="theta-true"),
    pytest.param("localizer.layer_dims", lambda loc: loc.update(
        layer_dims=[3]), id="dims-one-entry"),
    pytest.param("localizer.layer_dims", lambda loc: loc.update(
        layer_dims=[3, 0, 1]), id="dims-zero"),
    # True == 1, so only the bool check refuses this last entry
    pytest.param("localizer.layer_dims", lambda loc: loc.update(
        layer_dims=[3, 100, 100, 100, 100, 100, True]), id="dims-bool"),
    pytest.param("localizer.layer_dims", lambda loc: loc.update(
        layer_dims=[3, 100, 100, 100, 100, 100, 2]), id="dims-last-2"),
])
def test_a_model_file_refuses_a_bad_localizer_by_name(trained_linear, field,
                                                      edit):
    doc = json.loads(trained_linear[1].read_text())
    edit(doc["localizer"])
    with pytest.raises(ValueError, match=(
            rf"^model file m\.json: field '{re.escape(field)}' ")):
        model_from_dict(doc, "m.json")


def test_a_huge_layer_dims_is_refused_before_any_array_is_made(
        trained_linear):
    # 1e9 hidden units would take 32 GB; the byte count is compared first
    doc = json.loads(trained_linear[1].read_text())
    doc["localizer"]["layer_dims"] = [3, 10 ** 9, 1]
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=(
                r"^model file m\.json: field 'localizer\.theta' cannot be "
                r"read: it holds 327208 bytes, but layer_dims ")):
            model_from_dict(doc, "m.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_non_finite_localizer_parameter_is_refused_by_name(
        trained_linear, tmp_path, capsys, bad):
    # a NaN bias loaded: frozen eval wrote non-finite rows and exited 0,
    # and plot's error named neither the file nor the field
    data, model = trained_linear
    doc = json.loads(model.read_text())
    theta = np.frombuffer(base64.b64decode(doc["localizer"]["theta"]),
                          "<f8").copy()
    theta[-1] = bad
    doc["localizer"]["theta"] = encode(theta)
    message = ("field 'localizer.theta' cannot be read: it holds a "
               "non-finite parameter")
    with pytest.raises(ValueError) as exc:
        model_from_dict(doc, "m.json")
    assert str(exc.value) == f"model file m.json: {message}"
    bad_file = tmp_path / "bad.json"
    bad_file.write_text(json.dumps(doc))
    out = tmp_path / "band.svg"
    assert run("plot", "--data", data, "--model", bad_file,
               "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: model file {bad_file}: {message}\n")
    assert not out.exists()


def test_a_format_1_model_file_is_refused_with_what_to_do(trained_linear):
    doc = json.loads(trained_linear[1].read_text())
    for version in (1, 2):
        doc["format_version"] = version
        with pytest.raises(ValueError) as exc:
            model_from_dict(doc, "m.json")
        assert str(exc.value) == (
            "model file m.json: field 'format_version' cannot be read: "
            f"unsupported model format_version {version}: this version reads "
            "format 3, which `scoremorph train` writes")


def field_names(doc, prefix=""):
    """Every field of a model document, dotted below the top level."""
    for key, value in doc.items():
        yield prefix + key
        if isinstance(value, dict):
            yield from field_names(value, prefix + key + ".")


DELETE = object()


def with_field(doc, name, value):
    """doc with field name set to value, or deleted where value is DELETE;
    only the objects on the field's path are copied."""
    key, _, rest = name.partition(".")
    doc = dict(doc)
    if rest:
        doc[key] = with_field(doc[key], rest, value)
    elif value is DELETE:
        del doc[key]
    else:
        doc[key] = value
    return doc


# one field's damage, from its value: gone, another JSON type, a bad
# number, or an empty, nested or short list
DAMAGE = {
    "delete": lambda v: DELETE, "text": lambda v: "text",
    "true": lambda v: True, "null": lambda v: None, "object": lambda v: {},
    "integer": lambda v: 3, "float": lambda v: 0.5,
    "nan": lambda v: float("nan"), "inf": lambda v: float("inf"),
    "-inf": lambda v: float("-inf"), "zero": lambda v: 0,
    "huge": lambda v: 10 ** 400,  # an integer no float holds
    "negative": lambda v: -v if isinstance(v, (int, float)) else -1,
    "empty": lambda v: [],
    "nested": lambda v: [[e] for e in v] if isinstance(v, list) else [v],
    "short": lambda v: v[:-1] if isinstance(v, list) else [],
}


@pytest.fixture(scope="module")
def model_docs(trained_linear):
    """A trained linear model document, and the same as erc and fixed."""
    doc = json.loads(trained_linear[1].read_text())
    return [doc, {**doc, "family": "erc", "gamma": 0.01},
            {**doc, "family": "fixed", "localizer": None}]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_damaged_model_field_is_refused_by_name_or_loads(model_docs, data):
    doc = data.draw(st.sampled_from(model_docs))
    names = list(field_names(doc))
    name = data.draw(st.sampled_from(names))
    damage = DAMAGE[data.draw(st.sampled_from(sorted(DAMAGE)))]
    value = doc
    for key in name.split("."):
        value = value[key]
    try:
        bundle = model_from_dict(with_field(doc, name, damage(value)),
                                 "m.json")
    except ValueError as exc:
        refused = re.fullmatch(r"model file m\.json: field '([^']+)' .+",
                               str(exc))
        assert refused and refused[1] in names, str(exc)
        assert str(exc).count("model file") == 1, str(exc)
    else:
        assert isinstance(bundle, ModelBundle)


@pytest.mark.parametrize("field", ["gamma"])
def test_eval_frozen_rejects_a_nan_model_value(tmp_path, capsys, field):
    # the file is refused: a NaN erc gamma gives nan,0.0 in every row
    data, model = train_model(tmp_path, family="erc")
    doc = json.loads(model.read_text())
    doc[field] = float("nan")
    model.write_text(json.dumps(doc))
    report = tmp_path / "r.csv"
    assert run("eval", "--data", data, "--model", model, "--runs", 2,
               "--report", report) == 1
    assert capsys.readouterr().err == (
        f"error: model file {model}: field '{field}' cannot be read: "
        f"{field} must be positive, got nan\n")
    assert not report.exists()


@pytest.mark.parametrize("rate", ["0", "-0.001", "nan", "inf"])
def test_train_and_protocol_eval_reject_a_bad_rate(tmp_path, capsys,
                                                   monkeypatch, trained_linear,
                                                   rate):
    # the protocol checks it before any worker starts, and frozen eval
    # before it loads a model; a NaN rate would reach the manifest
    monkeypatch.setattr(training, "map_in_workers", None)
    monkeypatch.setattr(cli, "load_model", None)
    data = synth(tmp_path, n=300)
    model, report = tmp_path / "m.json", tmp_path / "r.csv"
    assert run("train", "--data", data, "--family", "linear", "--lr", rate,
               "--model-out", model) == 1
    for mode in (["--families", "fixed"], ["--model", trained_linear[1]]):
        assert run("eval", "--data", data, *mode, "--lr", rate,
                   "--report", report) == 1
    message = (f"error: learning_rate must be finite and positive, "
               f"got {float(rate)}\n")
    assert capsys.readouterr().err == 3 * message
    assert not model.exists() and not report.exists()


@pytest.mark.parametrize("gamma", ["0", "-0.001", "nan", "inf"])
def test_train_and_protocol_eval_reject_a_bad_gamma(tmp_path, capsys,
                                                    monkeypatch,
                                                    trained_linear, gamma):
    # refused for every label before the point model is fit, any worker
    # starts or a model loads; a NaN gamma would reach the manifest, which
    # is then not JSON
    monkeypatch.setattr(knn, "fit", None)
    monkeypatch.setattr(training, "map_in_workers", None)
    monkeypatch.setattr(cli, "load_model", None)
    data = synth(tmp_path, n=300)
    model, report = tmp_path / "m.json", tmp_path / "r.csv"
    assert run("train", "--data", data, "--family", "linear",
               "--gamma", gamma, "--model-out", model) == 1
    for mode in (["--families", "fixed,erc"], ["--model", trained_linear[1]]):
        assert run("eval", "--data", data, *mode, "--gamma", gamma,
                   "--report", report) == 1
    message = f"error: gamma must be positive, got {float(gamma)}\n"
    assert capsys.readouterr().err == 3 * message
    assert not model.exists() and not report.exists()


@pytest.mark.parametrize("command, seed", [
    ("synth", -1), ("train", -2), ("protocol eval", -3), ("frozen eval", -3),
])
def test_a_negative_seed_is_refused_by_name(tmp_path, capsys, monkeypatch,
                                            command, seed):
    # numpy's message would not name the option; eval refuses the seed
    # before it loads a model or starts a worker
    data, model = train_model(tmp_path, family="fixed")
    capsys.readouterr()
    monkeypatch.setattr(cli, "load_model", None)
    monkeypatch.setattr(training, "map_in_workers", None)
    out = tmp_path / "out.csv"
    argv = {
        "synth": ["synth", "--kind", "cos", "--n", 300, "--out", out],
        "train": ["train", "--data", data, "--family", "linear",
                  "--model-out", out],
        "protocol eval": ["eval", "--data", data, "--families", "fixed",
                          "--report", out],
        "frozen eval": ["eval", "--data", data, "--model", model,
                        "--report", out],
    }[command]
    assert run(*argv, "--seed", seed) == 1
    assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("alphas", ["0.1,0.1", "0.05,0.1,0.10"])
def test_eval_refuses_an_alpha_given_twice_in_both_modes(tmp_path, capsys,
                                                         alphas):
    # values are compared, so 0.1 and 0.10 are one alpha; the report would
    # hold every row and aggregate line twice
    data, model = train_model(tmp_path, family="fixed")
    capsys.readouterr()
    for mode in (["--model", model], ["--families", "fixed"]):
        report = tmp_path / "r.csv"
        assert run("eval", "--data", data, *mode, "--alphas", alphas,
                   "--report", report) == 1
        assert capsys.readouterr().err == "error: alpha 0.1 given twice\n"
        assert not report.exists()


@pytest.mark.parametrize("alphas, name", [("nan,0.1", "nan"),
                                          ("inf,0.1", "inf"),
                                          ("0.1,-inf", "-inf")])
def test_eval_refuses_a_non_finite_alpha_in_both_modes(tmp_path, capsys,
                                                       alphas, name):
    # it gave exit 0 and a bare NaN or Infinity in the manifest's
    # config.alphas, which is then not JSON
    data, model = train_model(tmp_path, family="fixed")
    capsys.readouterr()
    for mode in (["--model", model], ["--families", "fixed"]):
        report = tmp_path / "r.csv"
        assert run("eval", "--data", data, *mode, "--alphas", alphas,
                   "--report", report) == 1
        assert capsys.readouterr().err == f"error: alpha {name} is not finite\n"
        assert list(tmp_path.glob("r.*")) == []


def test_eval_requires_exactly_one_mode(tmp_path):
    data = synth(tmp_path, n=300)
    assert run("eval", "--data", data, "--report", tmp_path / "x.csv") == 1


def test_eval_deterministic_report(tmp_path):
    data, model = train_model(tmp_path, family="fixed")
    r1, r2 = tmp_path / "ra.csv", tmp_path / "rb.csv"
    for rep in (r1, r2):
        assert run("eval", "--data", data, "--model", model, "--alphas",
                   "0.1", "--runs", 2, "--report", rep) == 0
    assert r1.read_text() == r2.read_text()


# ---- plot ----

def test_plot_svg_valid_and_band_monotone(tmp_path):
    data, model = train_model(tmp_path, family="fixed")
    out = tmp_path / "fig.svg"
    assert run("plot", "--data", data, "--model", model, "--alpha", 0.1,
               "--out", out) == 0
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    rows = read_rows(tmp_path / "fig.svg.band.csv")
    xs = [float(r["axis"]) for r in rows]
    assert xs == sorted(xs)
    widths = [float(r["upper"]) - float(r["lower"]) for r in rows]
    # fixed family: x-independent width
    assert max(widths) - min(widths) <= 1e-9


def test_plot_trained_band_adapts_to_cos_noise(tmp_path):
    # noise is large for |X| < 0.5 and tiny beyond: a trained band must be
    # wider in the noisy region (desk-scale run)
    data = synth(tmp_path, name="cos.csv", kind="cos", n=600, seed=3)
    model = tmp_path / "m_cos.json"
    assert run("train", "--data", data, "--family", "linear", "--seed", 3,
               "--epochs", 25, "--model-out", model) == 0
    out = tmp_path / "cos.svg"
    assert run("plot", "--data", data, "--model", model, "--alpha", 0.05,
               "--out", out) == 0
    rows = read_rows(tmp_path / "cos.svg.band.csv")
    axis = np.array([float(r["axis"]) for r in rows])
    width = np.array([float(r["upper"]) - float(r["lower"]) for r in rows])
    noisy = width[np.abs(axis) < 0.5].mean()
    quiet = width[(np.abs(axis) >= 0.7) & (np.abs(axis) <= 1.0)].mean()
    assert noisy > quiet


def test_plot_predicts_the_data_file_once(tmp_path, monkeypatch):
    data, model = train_model(tmp_path, family="fixed")
    queries = []
    predict = KnnModel.predict_batch

    def spy(self, xs):
        queries.append(len(xs))
        return predict(self, xs)

    monkeypatch.setattr(KnnModel, "predict_batch", spy)
    assert run("plot", "--data", data, "--model", model,
               "--out", tmp_path / "once.svg") == 0
    # the calibration rows are sliced from the one prediction of the file
    assert queries == [load_csv(data).n]


def test_eval_and_plot_run_the_localizer_once_per_split(tmp_path,
                                                         monkeypatch):
    # evaluate computes s(x) on the test rows once for all alphas, and plot
    # once on the data file, taking the calibration rows from it
    data, model = train_model(tmp_path)
    rows = []
    values = LocalizerNet.values

    def spy(self, xs):
        rows.append(len(xs))
        return values(self, xs)

    monkeypatch.setattr(LocalizerNet, "values", spy)
    assert run("eval", "--data", data, "--model", model, "--alphas",
               "0.05,0.1,0.32", "--runs", 2, "--report",
               tmp_path / "r.csv") == 0
    n = load_csv(data).n
    parts = split_indices(n, 1)
    # the trained bundle only: the auto-added fixed one has no localizer
    assert rows == [len(parts[1]), len(parts[3])] * 2
    rows.clear()
    assert run("plot", "--data", data, "--model", model,
               "--out", tmp_path / "once.svg") == 0
    assert rows == [n]


@pytest.mark.parametrize("token, problem", [("nan", "non-finite"),
                                            ("x0.5", "non-numeric")])
def test_plot_rejects_a_bad_raw_x_comment(tmp_path, capsys, token, problem):
    # a raw_x comment of the right length with one bad coordinate: a NaN
    # gave exit 0 and an SVG of nan coordinates and tick labels
    data, model = train_model(tmp_path, family="fixed")
    lines = data.read_text().splitlines()
    raw = [i for i, line in enumerate(lines) if line.startswith("# raw_x:")]
    assert raw == [1]
    coords = lines[1].split()
    coords[5] = token
    lines[1] = " ".join(coords)
    data.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestionError, match=f"line 2: {problem}"):
        read_raw_axis(data)
    out = tmp_path / "bad.svg"
    assert run("plot", "--data", data, "--model", model, "--out", out) == 1
    assert f"line 2: {problem} coordinate" in capsys.readouterr().err
    assert not out.exists()


def test_read_raw_axis_memory_within_load_csv(tmp_path):
    # the coordinates go into one flat buffer, as load_csv's values do: a
    # Python float per coordinate peaked at 12.8 MB against load_csv's 4.6
    data = synth(tmp_path, n=100_000)

    def traced(read):
        tracemalloc.start()
        try:
            return read(data), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    axis, axis_peak = traced(read_raw_axis)
    _, csv_peak = traced(load_csv)
    assert axis_peak <= csv_peak
    comment = data.read_text().splitlines()[1]
    assert axis.tolist() == [float(t) for t in comment.split()[2:]]


def test_plot_dimension_mismatch_fails(tmp_path):
    data, model = train_model(tmp_path, family="fixed")
    other = tmp_path / "other.csv"
    other.write_text("1,2\n3,4\n5,6\n")
    assert run("plot", "--data", other, "--model", model,
               "--out", tmp_path / "x.svg") == 1


def test_plot_deterministic_digest(tmp_path):
    data, model = train_model(tmp_path, family="fixed")
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    for out in (a, b):
        assert run("plot", "--data", data, "--model", model, "--out", out) == 0
    assert digest(a) == digest(b)


def test_outputs_carry_format_version(tmp_path):
    data, model = train_model(tmp_path, family="fixed")
    report = tmp_path / "v.csv"
    assert run("eval", "--data", data, "--model", model, "--alphas", "0.1",
               "--report", report) == 0
    out = tmp_path / "v.svg"
    assert run("plot", "--data", data, "--model", model, "--out", out) == 0
    assert "format_version=1" in data.read_text().splitlines()[0]
    assert "format_version=1" in report.read_text().splitlines()[0]
    assert "format_version=1" in out.read_text().splitlines()[1]
    assert json.loads(model.read_text())["format_version"] == 3
    manifest = json.loads((tmp_path / "v.csv.manifest.json").read_text())
    assert manifest["format_version"] == 1


def _manifest_case(tmp_path, command):
    """(argv, primary output) of one command, its inputs made first."""
    data = synth(tmp_path, n=300)
    model = tmp_path / "m.json"
    if command != "train":
        assert run("train", "--data", data, "--family", "linear",
                   "--epochs", 2, "--model-out", model) == 0
    out = tmp_path / "out"
    return {
        "synth": (["synth", "--kind", "squared", "--n", 200, "--out", out],
                  out),
        "train": (["train", "--data", data, "--family", "erc", "--seed", 3,
                   "--epochs", 2, "--model-out", out], out),
        "frozen eval": (["eval", "--data", data, "--model", model,
                         "--alphas", "0.1,0.32", "--runs", 2,
                         "--report", out], out),
        "protocol eval": (["eval", "--data", data, "--families",
                           "fixed,linear", "--alphas", "0.1", "--runs", 2,
                           "--epochs", 2, "--report", out], out),
        "plot": (["plot", "--data", data, "--model", model, "--alpha", 0.1,
                  "--out", out], out),
    }[command]


@pytest.mark.parametrize("command, resolved", [
    ("synth", set()),
    ("train", {"fractions", "knn_k", "best_epoch", "stop_reason"}),
    ("frozen eval", {"alphas", "knn_ks"}),
    ("protocol eval", {"alphas", "knn_ks"}),
    ("plot", set()),
])
def test_manifest_config_is_the_parsed_options(tmp_path, command, resolved):
    # config holds every parsed option but command and func, with only the
    # values the command worked out itself in place of, or beside, them
    argv, out = _manifest_case(tmp_path, command)
    assert run(*argv) == 0
    manifest = json.loads((tmp_path / "out.manifest.json").read_text())
    parsed = vars(cli.build_parser().parse_args([str(a) for a in argv]))
    assert manifest["command"] == parsed.pop("command")
    del parsed["func"]
    config = manifest["config"]
    assert set(config) == set(parsed) | resolved
    assert {k: v for k, v in config.items() if k not in resolved} == {
        k: v for k, v in parsed.items() if k not in resolved}
    if command == "train":
        b = load_model(out)
        assert config["fractions"] == list(FRACTIONS)
        assert config["knn_k"] == b.knn_k
        trace = read_rows(tmp_path / "out.trace.csv")
        best = min(trace, key=lambda r: float(r["val_loss"]))
        assert config["best_epoch"] == int(best["epoch"])
    elif command.endswith("eval"):
        assert config["alphas"] == cli._parse_alphas(parsed["alphas"])
        k = load_model(tmp_path / "m.json").knn_k
        if command == "frozen eval":
            assert config["knn_ks"] == {"linear": k, "fixed": k}
        else:  # run seed -> the k its point model selected
            assert set(config["knn_ks"]) == {"0", "1"}
            assert all(type(v) is int for v in config["knn_ks"].values())


def test_option_defaults_come_from_the_library():
    parse = cli.build_parser().parse_args
    synth_args = parse(["synth", "--kind", "cos", "--out", "o"])
    spec = SynthSpec("cos")
    assert (synth_args.n, synth_args.rho, synth_args.seed) == (
        spec.n, spec.rho, spec.seed)
    config = TrainConfig()
    for argv in (["train", "--data", "d", "--family", "fixed",
                  "--model-out", "m"],
                 ["eval", "--data", "d", "--report", "r"]):
        args = parse(argv)
        assert (args.epochs, args.lr, args.batch, args.patience,
                args.gamma) == (config.epochs, config.learning_rate,
                                config.batch_size, config.patience,
                                config.gamma)
        assert [type(v) for v in (args.epochs, args.lr, args.gamma)] == [
            int, float, float]
    assert parse(["train", "--data", "d", "--family", "fixed",
                  "--model-out", "m"]).seed == config.seed


def test_full_protocol_table_within_budget(tmp_path):
    # all five trainable variants + fixed, three alphas, five runs
    import time
    data = synth(tmp_path, name="lin.csv", kind="linear", n=1000, seed=0)
    report = tmp_path / "table.csv"
    t0 = time.perf_counter()
    assert run("eval", "--data", data, "--families",
               "fixed,erc,erc-fit,linear,exp,sigma",
               "--alphas", "0.05,0.1,0.32", "--runs", 5,
               "--report", report) == 0
    elapsed = time.perf_counter() - t0
    rows = read_rows(report)
    assert len(rows) == 5 * 6 * 3
    agg = read_rows(tmp_path / "table.aggregate.csv")
    assert len(agg) == 6 * 3
    assert {r["family"] for r in rows} == {"fixed", "erc", "erc-fit",
                                           "linear", "exp", "sigma"}
    assert elapsed < 900
