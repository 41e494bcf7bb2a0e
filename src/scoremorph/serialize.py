"""Model-file serialization: family, localizer, normalization, split recipe.

A model file is self-contained given the original data file: it stores the
split seed/fractions and the selected K, from which
``training.point_model(dataset, bundle.split, bundle.knn_k)`` rebuilds the
point predictor and the calibration split deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import NormalizationStats, SplitSpec
from .ioutil import write_text_atomic
from .network import LocalizerNet
from .training import family_kind
from .transforms import TransformFamily, make_family

MODEL_FORMAT_VERSION = 1

# every top-level field save_model writes, with the JSON types it may hold
_FIELDS = {"format_version": int, "family": str,
           "gamma": (int, float, type(None)), "epsilon_floor": (int, float),
           "localizer": (dict, type(None)), "normalization_stats": dict,
           "knn_k": int, "split": dict}


def _floats(value):
    if np.ndim(value) != 1:
        raise ValueError("it is not a flat list of numbers")
    return np.asarray(value, dtype=float)


def _localizer(value, d):
    net = LocalizerNet(value["weights"], value["biases"])
    if net.d != d:
        raise ValueError(f"it takes {net.d} attributes, but the "
                         f"normalization stats describe {d}")
    return net


@dataclass(frozen=True)
class ModelBundle:
    label: str
    family: TransformFamily
    stats: NormalizationStats
    knn_k: int
    split: SplitSpec


def model_to_dict(label: str, family: TransformFamily,
                  stats: NormalizationStats, knn_k: int,
                  split: SplitSpec) -> dict:
    family_kind(label)  # rejects unknown labels
    localizer = family.localizer
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "family": label,
        "gamma": family.gamma,
        "epsilon_floor": family.epsilon_floor,
        "localizer": localizer.to_json_dict() if localizer is not None else None,
        "normalization_stats": stats.to_json_dict(),
        "knn_k": int(knn_k),
        "split": {"seed": int(split.seed), "fractions": list(split.fractions)},
    }


def model_from_dict(doc: dict, path) -> ModelBundle:
    """The bundle of the JSON object doc read from the model file at path.
    A field that is missing, holds a value of the wrong JSON type, or holds
    an array numpy cannot read, raises one ValueError naming the file and
    the field, dotted below the top level as in ``split.seed``."""
    def field(name, types, read=None):
        value = doc
        for key in name.split("."):
            if key not in value:
                raise ValueError(f"model file {path} has no field '{name}'")
            value = value[key]
        if not isinstance(value, types):
            raise ValueError(f"model file {path}: field '{name}' holds a "
                             f"{type(value).__name__}")
        if read is None:
            return value
        try:
            return read(value)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"model file {path}: field '{name}' cannot be "
                             f"read: {exc}") from None

    for name, types in _FIELDS.items():
        field(name, types)
    version = doc["format_version"]
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version}")
    label = doc["family"]
    kind = family_kind(label)
    stats = NormalizationStats(
        field("normalization_stats.mean", list, _floats),
        field("normalization_stats.sd", list, _floats),
        field("normalization_stats.zero_variance", list,
              lambda v: np.asarray(v, dtype=bool)))
    localizer = None
    if doc["localizer"] is not None:
        field("localizer.weights", list)
        field("localizer.biases", list)
        localizer = field("localizer", dict,
                          lambda v: _localizer(v, len(stats.mean) - 1))
    gamma = field("gamma", (int, float)) if kind == "erc" else None
    family = make_family(kind, localizer, gamma, doc["epsilon_floor"])
    split = SplitSpec(field("split.seed", int),
                      tuple(field("split.fractions", list, _floats)))
    return ModelBundle(label, family, stats, int(doc["knn_k"]), split)


def save_model(path, label, family, stats, knn_k, split) -> None:
    doc = model_to_dict(label, family, stats, knn_k, split)
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
