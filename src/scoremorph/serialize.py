"""Model-file serialization: family, localizer, normalization, split seed.

A model file (format 3) holds ``format_version``, ``family``, ``gamma``,
``localizer``, ``normalization_stats`` (``mean`` and ``sd``), ``knn_k`` and
``split_seed``: only what varies from one training to the next. It is
self-contained given the original data file, from which
``training.point_model(dataset, bundle.seed, bundle.knn_k)`` rebuilds the
point predictor and the calibration split deterministically.

The localizer is stored as ``{"layer_dims": [d, h1, ..., 1], "theta":
"<base64>"}``: ``theta`` is ``LocalizerNet.theta``, the one flat parameter
vector in the layout ``network._layer_views`` defines (w0, b0, w1, b1, ...;
each weight row-major, (out, in)), as little-endian float64 bytes in
standard padded base64. The round trip is exact, and no float is written as
text. Files of format 1, which held text floats, and of format 2, which
also held the split fractions, the score floor and the zero-variance flags,
are refused by their version.

This module alone writes and reads the file, by one rule: every value
reaches its check or constructor inside the ``field`` read that names it,
so a refused value raises one ValueError naming the file and that field.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass

import numpy as np

from .data import NormalizationStats, checked_seed
from .ioutil import write_text_atomic
from .network import LocalizerNet, _layer_views
from .training import family_kind
from .transforms import TransformFamily, checked_gamma, make_family

MODEL_FORMAT_VERSION = 3


class _FieldError(ValueError):
    """A refused field, already named; an enclosing read passes it on."""


def _version(value):
    if value != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {value}: this "
                         f"version reads format {MODEL_FORMAT_VERSION}, which "
                         "`scoremorph train` writes")


def _floats(value):
    if np.ndim(value) != 1:
        raise ValueError("it is not a flat list of numbers")
    if any(isinstance(v, bool) for v in value):
        raise ValueError("it holds an entry that is true or false")
    return np.asarray(value, dtype=float)


def _layer_dims(value, d):
    if len(value) < 2:
        raise ValueError("it needs an input and an output width")
    if not all(type(n) is int and n >= 1 for n in value):
        raise ValueError("it holds an entry that is not an integer >= 1")
    if value[-1] != 1:
        raise ValueError(f"it ends in {value[-1]}, not in one scalar output")
    if value[0] != d:
        raise ValueError(f"it takes {value[0]} attributes, but the "
                         f"normalization stats describe {d}")
    return value


def _theta(text, dims):
    # the count, in Python ints, is checked before any array is made
    n = sum(n_out * (n_in + 1) for n_in, n_out in zip(dims, dims[1:]))
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * n:
        raise ValueError(f"it holds {len(raw)} bytes, but layer_dims "
                         f"{dims} take {n} float64 parameters, {8 * n} bytes")
    theta = np.frombuffer(raw, dtype="<f8")
    if not np.isfinite(theta).all():
        raise ValueError("it holds a non-finite parameter")
    return theta


def _knn_k(value):
    if value < 1:
        raise ValueError(f"k must be >= 1, got {value}")
    return value


@dataclass(frozen=True)
class ModelBundle:
    label: str
    family: TransformFamily
    stats: NormalizationStats
    knn_k: int
    seed: int


def model_to_dict(label: str, family: TransformFamily,
                  stats: NormalizationStats, knn_k: int, seed: int) -> dict:
    family_kind(label)  # rejects unknown labels
    net = family.localizer
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "family": label,
        "gamma": family.gamma,
        "localizer": None if net is None else {
            "layer_dims": [net.d] + [rows for rows, _ in net.shapes],
            "theta": base64.b64encode(
                net.theta.astype("<f8", copy=False)).decode("ascii")},
        "normalization_stats": {
            "mean": stats.mean.tolist(), "sd": stats.sd.tolist()},
        "knn_k": int(knn_k),
        "split_seed": int(seed),
    }


def model_from_dict(doc: dict, path) -> ModelBundle:
    """The bundle of the JSON object doc read from the model file at path.
    A field that is missing, of the wrong JSON type or refused raises one
    ValueError naming the file and the field, dotted as in
    ``normalization_stats.mean``."""
    def field(name, types, read=None):
        # read after its parents' type checks: each step is into a dict
        value = doc
        for key in name.split("."):
            if key not in value:
                raise _FieldError(f"model file {path}: field '{name}' "
                                  "is missing")
            value = value[key]
        # a JSON true or false reads as a bool, which Python counts as an
        # int; no field's types name bool, so every field refuses it
        if isinstance(value, bool) or not isinstance(value, types):
            raise _FieldError(f"model file {path}: field '{name}' holds a "
                              f"{type(value).__name__}")
        try:
            return value if read is None else read(value)
        except _FieldError:
            raise
        except (TypeError, ValueError, OverflowError) as exc:
            raise _FieldError(f"model file {path}: field '{name}' cannot be "
                              f"read: {exc}") from None

    field("format_version", int, _version)
    kind, label = field("family", str, lambda v: (family_kind(v), v))
    stats = field("normalization_stats", dict, lambda v: NormalizationStats(
        field("normalization_stats.mean", list, _floats),
        field("normalization_stats.sd", list, _floats)))
    erc = kind == "erc"
    gamma = field("gamma", (int, float) if erc else (int, float, type(None)),
                  checked_gamma if erc else None)

    def localizer(value):  # fixed takes none, the other kinds need one
        net, d = None, len(stats.mean) - 1
        if value is not None:
            dims = field("localizer.layer_dims", list,
                         lambda v: _layer_dims(v, d))
            theta = field("localizer.theta", str, lambda t: _theta(t, dims))
            shapes = list(zip(dims[1:], dims))
            net = LocalizerNet(*zip(*_layer_views(theta, shapes)))
        return make_family(kind, net, gamma)

    family = field("localizer", (dict, type(None)), localizer)
    knn_k = field("knn_k", int, _knn_k)
    seed = field("split_seed", int, checked_seed)
    return ModelBundle(label, family, stats, knn_k, seed)


def save_model(path, label, family, stats, knn_k, seed) -> None:
    doc = model_to_dict(label, family, stats, knn_k, seed)
    text = json.dumps(doc, indent=1, sort_keys=True)
    write_text_atomic(path, text + "\n")


def load_model(path) -> ModelBundle:
    """The bundle of the model file at path. A file that holds no JSON
    object raises a ValueError naming the file; see ``model_from_dict``
    for the fields."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"model file {path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"model file {path} holds a JSON "
                         f"{type(doc).__name__}, not an object")
    return model_from_dict(doc, path)
