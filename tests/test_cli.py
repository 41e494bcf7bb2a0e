import csv
import hashlib
import json
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from scoremorph import cli, knn, training
from scoremorph.cli import main, read_raw_axis
from scoremorph.data import (DEFAULT_FRACTIONS, IngestionError, SplitSpec,
                             load_csv, normalize, split_indices)
from scoremorph.knn import KnnModel
from scoremorph.network import LocalizerNet
from scoremorph.serialize import load_model, save_model
from scoremorph.synthetic import SynthSpec
from scoremorph.training import TrainConfig
from scoremorph.transforms import FixedTransform


def read_rows(path):
    """CSV rows, skipping versioned comment lines."""
    lines = [l for l in path.read_text().splitlines()
             if l and not l.startswith("#")]
    return list(csv.DictReader(lines))


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
    assert isinstance(bundle.family, FixedTransform)


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
    b = bundle.family.forward_batch(xs, a)
    save_model(tmp_path / "again.json", bundle.label, bundle.family,
               bundle.stats, bundle.knn_k, bundle.split)
    again = load_model(tmp_path / "again.json")
    assert np.array_equal(again.family.forward_batch(xs, a), b)
    assert again.split == bundle.split


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
                                  TrainConfig("fixed", epochs=2))
            # cp-train, validation and test, once each
            assert calls == {"predict": 3}


def test_eval_frozen_unbuildable_point_model_gives_error_rows(tmp_path):
    # on 60 rows the proper split has 24: k = 34 cannot be rebuilt, and
    # that must not cost the k = 5 model its rows
    data, model = train_model(tmp_path, data=synth(tmp_path, n=60))
    b = load_model(model)
    k5, k34 = tmp_path / "k5.json", tmp_path / "k34.json"
    save_model(k5, "fixed", FixedTransform(), b.stats, 5, b.split)
    save_model(k34, "linear", b.family, b.stats, 34, b.split)
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
    save_model(other, "linear", b.family, b.stats, b.knn_k, b.split)
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
    save_model(fixed, "fixed", FixedTransform(), b.stats, b.knn_k, b.split)
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

    def spy(dataset, spec, k=None):
        calls.append(k)
        return point_model(dataset, spec, k)

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
                              TrainConfig("fixed", epochs=2))
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
    assert all(r["error"] == "training set smaller than one batch"
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
            (seed, "linear"), TrainConfig("fixed", learning_rate=1))
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


@pytest.mark.parametrize("field", ["epsilon_floor", "gamma"])
def test_eval_frozen_rejects_a_nan_model_value(tmp_path, capsys, field):
    # the file is refused: a NaN floor or erc gamma gives nan,0.0 in every row
    data, model = train_model(tmp_path, family="erc")
    doc = json.loads(model.read_text())
    doc[field] = float("nan")
    model.write_text(json.dumps(doc))
    report = tmp_path / "r.csv"
    assert run("eval", "--data", data, "--model", model, "--runs", 2,
               "--report", report) == 1
    assert capsys.readouterr().err.startswith(f"error: {field} must be")
    assert not report.exists()


@pytest.mark.parametrize("rate", ["0", "-0.001", "nan", "inf"])
def test_train_and_protocol_eval_reject_a_bad_rate(tmp_path, capsys,
                                                   monkeypatch, rate):
    # the protocol checks it before any worker starts
    monkeypatch.setattr(training, "map_in_workers", None)
    data = synth(tmp_path, n=300)
    model, report = tmp_path / "m.json", tmp_path / "r.csv"
    assert run("train", "--data", data, "--family", "linear", "--lr", rate,
               "--model-out", model) == 1
    assert run("eval", "--data", data, "--families", "fixed", "--lr", rate,
               "--report", report) == 1
    message = (f"error: learning_rate must be finite and positive, "
               f"got {float(rate)}\n")
    assert capsys.readouterr().err == 2 * message
    assert not model.exists() and not report.exists()


@pytest.mark.parametrize("gamma", ["0", "-0.001", "nan", "inf"])
def test_train_and_protocol_eval_reject_a_bad_gamma(tmp_path, capsys,
                                                    monkeypatch, gamma):
    # refused for every label before the point model is fit or any worker
    # starts; a NaN gamma would reach the manifest, which is then not JSON
    monkeypatch.setattr(knn, "fit", None)
    monkeypatch.setattr(training, "map_in_workers", None)
    data = synth(tmp_path, n=300)
    model, report = tmp_path / "m.json", tmp_path / "r.csv"
    assert run("train", "--data", data, "--family", "linear",
               "--gamma", gamma, "--model-out", model) == 1
    assert run("eval", "--data", data, "--families", "fixed,erc",
               "--gamma", gamma, "--report", report) == 1
    message = f"error: gamma must be positive, got {float(gamma)}\n"
    assert capsys.readouterr().err == 2 * message
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
    parts = split_indices(n, SplitSpec(1, DEFAULT_FRACTIONS))
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
    assert json.loads(model.read_text())["format_version"] == 1
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
    ("train", {"fractions", "knn_k", "best_epoch"}),
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
        assert config["fractions"] == list(DEFAULT_FRACTIONS)
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
    config = TrainConfig("fixed")
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
