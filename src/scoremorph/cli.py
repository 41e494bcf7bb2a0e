"""Command-line front end: synthesize data, train, evaluate, plot.

Exit codes: 0 success, 1 runtime failure, 2 usage error. Every command
writes a manifest next to its primary output recording its parsed
arguments, the values it resolved from them, and input digests.

Both ``eval`` modes need ``--runs`` >= 1 and finite ``--alphas`` and build
rows with ``protocol_rows``, so an evaluation ``ValueError`` (an alpha
outside [1/(N+1), 1] included) gives the same per-alpha error rows in both.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from array import array

import numpy as np

from . import __version__
from .conformal import calibrate, evaluate, scored
from .data import (FRACTIONS, IngestionError, apply_normalization,
                   checked_seed, load_csv, normalize, split, split_indices)
from .figures import band_csv, compute_band, render_svg
from .ioutil import sha256_file, write_text_atomic
# perfbench/tracer.py patches cli.split and cli.knn_fit, so both stay here
from .knn import fit as knn_fit
from .serialize import ModelBundle, load_model, save_model
from .synthetic import KINDS, SynthSpec, generate
from .training import (CLI_FAMILIES, ProtocolRow, TrainConfig, aggregate,
                       point_model, protocol_rows, run_protocol, score, train)
from .transforms import make_family

MANIFEST_FORMAT_VERSION = 1

_RAW_X = "# raw_x:"
_TOKEN = re.compile(r"\S+")


def write_manifest(primary_out, args, inputs, outputs, timings=None,
                   **resolved) -> str:
    """Write ``<primary_out>.manifest.json``, whose ``config`` is every
    parsed argument but ``command`` and ``func``, plus ``resolved``."""
    doc = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "tool": "scoremorph",
        "version": __version__,
        "command": args.command,
        "config": {key: value for key, value in vars(args).items()
                   if key not in ("command", "func")} | resolved,
        "inputs": {os.fspath(p): sha256_file(p) for p in inputs},
        "outputs": [os.fspath(p) for p in outputs],
    }
    if timings is not None:
        doc["timings"] = timings
    path = os.fspath(primary_out) + ".manifest.json"
    write_text_atomic(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def _names(text: str) -> list:
    """The entries of a comma-separated list, stripped, empty ones dropped."""
    return [t.strip() for t in text.split(",") if t.strip()]


def _parse_alphas(text: str):
    try:
        alphas = [float(t) for t in _names(text)]
    except ValueError:
        raise ValueError(f"cannot parse alphas '{text}'") from None
    if not alphas:
        raise ValueError("no alphas given")
    for alpha in alphas:
        if not np.isfinite(alpha):  # the manifest would not be JSON
            raise ValueError(f"alpha {alpha!r} is not finite")
        if alphas.count(alpha) > 1:
            raise ValueError(f"alpha {alpha!r} given twice")
    return alphas


def read_raw_axis(path):
    """Raw X coordinates from a '# raw_x:' comment line, if present.

    Raises IngestionError naming the 1-based line when a coordinate is not
    a finite number. Each coordinate is parsed with ``float()`` into one
    flat buffer, so no Python object is kept per coordinate.
    """
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.startswith(_RAW_X):
                tokens = _TOKEN.finditer(line, len(_RAW_X))
                try:
                    axis = np.frombuffer(
                        array("d", map(float, map(re.Match.group, tokens))))
                except ValueError:
                    raise IngestionError(
                        f"line {lineno}: non-numeric coordinate in the "
                        "'# raw_x:' comment") from None
                if not np.isfinite(axis).all():
                    raise IngestionError(
                        f"line {lineno}: non-finite coordinate in the "
                        "'# raw_x:' comment")
                return axis
    return None


# ---- synth ----

def cmd_synth(args) -> int:
    spec = SynthSpec(kind=args.kind, n=args.n, rho=args.rho, seed=args.seed)
    sd = generate(spec)
    lines = [
        f"# scoremorph synth format_version=1 kind={spec.kind} n={spec.n} "
        f"rho={spec.rho!r} seed={spec.seed}",
        "# raw_x: " + " ".join(map(repr, sd.x_raw.tolist())),
        "# weights: " + " ".join(map(repr, sd.weights.tolist())),
    ]
    ds = sd.dataset
    lines.extend(",".join(map(repr, row))
                 for row in np.column_stack([ds.x, ds.y]).tolist())
    write_text_atomic(args.out, "\n".join(lines) + "\n")
    write_manifest(args.out, args, [], [args.out])
    return 0


# ---- train ----

# option of ``train`` and ``eval`` -> the TrainConfig field it sets
_TRAIN_OPTIONS = {"epochs": "epochs", "lr": "learning_rate",
                  "batch": "batch_size", "patience": "patience",
                  "gamma": "gamma"}


def _train_config(args, seed: int) -> TrainConfig:
    """The TrainConfig of ``seed`` and ``args``' training options."""
    return TrainConfig(seed, **{field: getattr(args, option)
                                for option, field in _TRAIN_OPTIONS.items()})


def cmd_train(args) -> int:
    """Train one family; the manifest's ``timings`` hold each phase's
    seconds, the Adam steps and the training's milliseconds per step (null
    when no step ran), and its config the resolved ``stop_reason``."""
    config = _train_config(args, args.seed)
    start = time.perf_counter()
    ds = normalize(load_csv(args.data, args.has_header))
    loaded = time.perf_counter()
    model, parts = point_model(ds, args.seed)
    cp, val = score(model, parts.cp_train, parts.validation)
    scored_at = time.perf_counter()
    fam, trace = train(args.family, cp, val, config)
    trained = time.perf_counter()

    save_model(args.model_out, args.family, fam, ds.stats, model.k, args.seed)
    trace_path = os.path.splitext(os.fspath(args.model_out))[0] + ".trace.csv"
    rows = ["# scoremorph train-trace format_version=1",
            "epoch,train_loss,val_loss"]
    for epoch, tr, val in trace.epochs:
        rows.append(f"{epoch},{'' if tr is None else repr(tr)},{val!r}")
    write_text_atomic(trace_path, "\n".join(rows) + "\n")
    train_s = trained - scored_at
    timings = {"load_s": loaded - start, "point_model_s": scored_at - loaded,
               "train_s": train_s, "write_s": time.perf_counter() - trained,
               "steps": trace.steps,
               "ms_per_step": (1e3 * train_s / trace.steps if trace.steps
                               else None)}
    write_manifest(args.model_out, args, [args.data],
                   [args.model_out, trace_path], timings,
                   fractions=list(FRACTIONS), knn_k=model.k,
                   best_epoch=trace.best_epoch,
                   stop_reason=trace.stop_reason)
    return 0


# ---- eval ----

def _format_row(dataset_name: str, r: ProtocolRow) -> str:
    return (f"{dataset_name.replace(',', ';')},{r.family},{r.alpha!r},"
            f"{r.run_seed},"
            f"{'' if r.mean_size is None else repr(r.mean_size)},"
            f"{'' if r.validity is None else repr(r.validity)},"
            f"{r.error.replace(',', ';')}")


def _print_table(aggregates, alphas, dataset_name):
    cells = {(a.family, a.alpha): a for a in aggregates}
    families = list(dict.fromkeys(a.family for a in aggregates))
    header = f"{dataset_name:12s}"
    for alpha in alphas:
        header += f" | alpha={alpha:<5g} size         val         "
    print(header)
    for fam in families:
        line = f"{fam:12s}"
        for alpha in alphas:
            c = cells.get((fam, alpha))
            if c is None:
                line += " | " + " " * 37
            else:
                line += (f" | {c.size_mean:.3f}+-{c.size_sd:.3f} "
                         f"{c.validity_mean:.3f}+-{c.validity_sd:.3f}")
        print(line)


def _eval_frozen(args, paths, alphas):
    if not paths:
        raise ValueError("no model files given")
    rows = []
    bundles = [load_model(p) for p in paths]
    labels = [b.label for b in bundles]
    for label in labels:
        if labels.count(label) > 1:
            raise ValueError(f"two model files have the label '{label}'")
    ds_raw = load_csv(args.data, args.has_header)
    base_seed = args.seed if args.seed is not None else bundles[0].seed
    if "fixed" not in labels:
        first = bundles[0]
        bundles.append(ModelBundle("fixed", make_family("fixed"), first.stats,
                                   first.knn_k, first.seed))
    for r in range(args.runs):
        run_seed = base_seed + r
        splits = {}  # point-model recipe -> scored calibration and test split
        for b in bundles:
            def evaluate_all():
                key = (b.stats.mean.tobytes(), b.stats.sd.tobytes(), b.knn_k)
                if key not in splits:
                    model, parts = point_model(
                        apply_normalization(ds_raw, b.stats), run_seed, b.knn_k)
                    splits[key] = score(model, parts.cp_train, parts.test)
                return evaluate(b.family, *splits[key], alphas)

            rows += protocol_rows(b.label, run_seed, alphas, evaluate_all)
    return rows, [b.label for b in bundles], {b.label: b.knn_k for b in bundles}


def _eval_protocol(args, alphas, config):
    families = _names(args.families)
    ds = normalize(load_csv(args.data, args.has_header))
    start = time.perf_counter()
    result = run_protocol(ds, families, alphas, args.runs, config.seed,
                          config)
    timings = {"protocol_s": time.perf_counter() - start,
               "jobs": [{"run_seed": seed, "trained": label, "seconds": sec}
                        for seed, label, sec in result.job_seconds]}
    knn_ks = {str(seed): k for seed, k in result.knn_ks.items()}
    return result.rows, families, knn_ks, timings


def cmd_eval(args) -> int:
    if (args.model is None) == (args.families is None):
        raise ValueError("pass exactly one of --model or --families")
    if args.runs < 1:
        raise ValueError("runs must be >= 1")
    # checked in both modes, so a bad option fails before any output
    config = _train_config(args, 0 if args.seed is None
                           else checked_seed(args.seed))
    alphas = _parse_alphas(args.alphas)
    ds_name = os.path.splitext(os.path.basename(os.fspath(args.data)))[0]
    timings = None  # the protocol's wall time and per-job seconds
    models = [] if args.model is None else _names(args.model)
    if args.model is not None:
        rows, families, knn_ks = _eval_frozen(args, models, alphas)
    else:
        rows, families, knn_ks, timings = _eval_protocol(args, alphas, config)

    lines = ["# scoremorph eval-report format_version=1",
             "dataset,family,alpha,run_seed,mean_size,validity,error"]
    lines += [_format_row(ds_name, r) for r in rows]
    write_text_atomic(args.report, "\n".join(lines) + "\n")

    aggregates = aggregate(rows, families, alphas)
    agg_path = os.path.splitext(os.fspath(args.report))[0] + ".aggregate.csv"
    agg_lines = ["# scoremorph eval-aggregate format_version=1",
                 "family,alpha,size_mean,size_sd,validity_mean,validity_sd"]
    for a in aggregates:
        agg_lines.append(f"{a.family},{a.alpha!r},{a.size_mean!r},"
                         f"{a.size_sd!r},{a.validity_mean!r},"
                         f"{a.validity_sd!r}")
    write_text_atomic(agg_path, "\n".join(agg_lines) + "\n")
    _print_table(aggregates, alphas, ds_name)

    write_manifest(args.report, args, [args.data, *models],
                   [args.report, agg_path],
                   timings, alphas=alphas, knn_ks=knn_ks)
    return 0


# ---- plot ----

def cmd_plot(args) -> int:
    bundle = load_model(args.model)
    ds = apply_normalization(load_csv(args.data, args.has_header),
                             bundle.stats)
    model, parts = point_model(ds, bundle.seed, bundle.knn_k)
    center = model.predict_batch(ds.x)
    locs = bundle.family.loc_batch(ds.x)
    cal = split_indices(ds.n, bundle.seed).cp_train
    q_hat = calibrate(bundle.family.forward_batch(
        scored(parts.cp_train, center[cal]).a, locs[cal]), args.alpha)
    axis = read_raw_axis(args.data)
    if axis is None:
        axis = ds.x[:, 0]
    elif axis.shape[0] != ds.n:
        raise ValueError("raw_x comment length mismatches the data rows")
    band = compute_band(bundle.family, center, locs, axis, ds.y, q_hat)
    svg = render_svg(band, title=f"{bundle.label} alpha={args.alpha:g}")
    write_text_atomic(args.out, svg)
    csv_path = os.fspath(args.out) + ".band.csv"
    write_text_atomic(csv_path, band_csv(band))
    write_manifest(args.out, args, [args.data, args.model],
                   [args.out, csv_path])
    return 0


# ---- parser ----

def _add_training_flags(p) -> None:
    """Add the training options, with TrainConfig's defaults, to ``p``."""
    for option, field in _TRAIN_OPTIONS.items():
        default = getattr(TrainConfig, field)
        p.add_argument(f"--{option}", type=type(default), default=default)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: ``parse_args`` keeps no
    state from one call to the next."""
    parser = argparse.ArgumentParser(
        prog="scoremorph",
        description="Locally adaptive conformal prediction intervals via "
                    "trainable monotone score transformations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a heteroskedastic dataset")
    p.add_argument("--kind", required=True, choices=KINDS)
    p.add_argument("--n", type=int, default=SynthSpec.n)
    p.add_argument("--rho", type=float, default=SynthSpec.rho)
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="split, fit the point model, train a family")
    p.add_argument("--data", required=True)
    p.add_argument("--family", required=True, choices=CLI_FAMILIES)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    _add_training_flags(p)
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--model-out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="interval size and validity tables")
    p.add_argument("--data", required=True)
    p.add_argument("--model", help="comma-separated model files (frozen eval)")
    p.add_argument("--families",
                   help="comma-separated family names; retrains per run")
    p.add_argument("--alphas", default="0.05,0.1,0.32")
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    _add_training_flags(p)
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("plot", help="SVG scatter with the interval band")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
