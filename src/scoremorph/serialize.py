"""Model-file serialization: family, localizer, normalization, split recipe.

A model file is self-contained given the original data file: it stores the
split seed/fractions and the selected K, from which
``training.point_model(dataset, bundle.split, bundle.knn_k)`` rebuilds the
point predictor and the calibration split deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .data import NormalizationStats, SplitSpec
from .ioutil import write_text_atomic
from .network import LocalizerNet
from .training import family_kind
from .transforms import TransformFamily, make_family

MODEL_FORMAT_VERSION = 1

# every field save_model writes, with the JSON types it may hold
_FIELDS = {"format_version": int, "family": str,
           "gamma": (int, float, type(None)), "epsilon_floor": (int, float),
           "localizer": (dict, type(None)), "normalization_stats": dict,
           "knn_k": int, "split": dict}


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
    localizer = getattr(family, "localizer", None)
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "family": label,
        "gamma": getattr(family, "gamma", None),
        "epsilon_floor": family.epsilon_floor,
        "localizer": localizer.to_json_dict() if localizer is not None else None,
        "normalization_stats": stats.to_json_dict(),
        "knn_k": int(knn_k),
        "split": {"seed": int(split.seed), "fractions": list(split.fractions)},
    }


def model_from_dict(doc: dict) -> ModelBundle:
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format_version {version}")
    label = doc["family"]
    kind = family_kind(label)
    localizer = None
    if doc.get("localizer") is not None:
        localizer = LocalizerNet.from_json_dict(doc["localizer"])
    kwargs = {"epsilon_floor": doc["epsilon_floor"]}
    if kind == "erc":
        kwargs["gamma"] = doc["gamma"]
    family = make_family(kind, localizer=localizer, **kwargs)
    stats = NormalizationStats.from_json_dict(doc["normalization_stats"])
    split = SplitSpec(doc["split"]["seed"], tuple(doc["split"]["fractions"]))
    return ModelBundle(label, family, stats, int(doc["knn_k"]), split)


def save_model(path, label, family, stats, knn_k, split) -> None:
    doc = model_to_dict(label, family, stats, knn_k, split)
    text = json.dumps(doc, indent=1, sort_keys=True)
    write_text_atomic(path, text + "\n")


def load_model(path) -> ModelBundle:
    """The bundle of the model file at path. A file that holds no JSON
    object, or lacks a field or holds one of the wrong type, raises one
    ValueError naming the file and the field."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"model file {path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"model file {path} holds a JSON "
                         f"{type(doc).__name__}, not an object")
    for field, types in _FIELDS.items():
        if field not in doc:
            raise ValueError(f"model file {path} has no field '{field}'")
        if not isinstance(doc[field], types):
            raise ValueError(f"model file {path}: field '{field}' holds a "
                             f"{type(doc[field]).__name__}")
    return model_from_dict(doc)
