"""File formats: line-delimited datasets, JSON checkpoints, 6-decimal
evaluation reports, PR-curve CSVs and training logs.

All writers are deterministic: rerunning a command with the same inputs
produces byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .annotations import ClassSpace, Evaluation, classify_agreement, expand, soft_label
from .losses import LossConfig, LossKind
from .metrics import MetricsReport, PRCurve
from .model import LabelledExample, ModelParams, TrainConfig

__all__ = [
    "DatasetRecord",
    "write_dataset",
    "read_dataset",
    "write_checkpoint",
    "read_checkpoint",
    "write_report",
    "read_report",
    "write_curve",
    "write_train_log",
    "record_to_example",
]

FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class DatasetRecord:
    """One serialized utterance: id, split, features and evaluations."""

    uid: int
    split: str
    features: np.ndarray
    evaluations: tuple[Evaluation, ...]


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def write_dataset(path: str, space: ClassSpace, records: Sequence[DatasetRecord]) -> None:
    """Manifest line followed by one JSON record per utterance."""
    lines = [
        _compact(
            {
                "format_version": FORMAT_VERSION,
                "kind": "dataset",
                "classes": list(space.names),
                "feature_dim": int(records[0].features.shape[0]) if records else 0,
            }
        )
    ]
    for rec in records:
        lines.append(
            _compact(
                {
                    "id": rec.uid,
                    "split": rec.split,
                    "features": [float(v) for v in rec.features],
                    "evaluations": [
                        [space.names[t] for t in ev.tags] for ev in rec.evaluations
                    ],
                }
            )
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dataset(path: str) -> tuple[ClassSpace, list[DatasetRecord]]:
    """Manifest and records; a malformed line raises ValueError naming it.

    Every split must be "train" or "test" and every id unique.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [(no, line) for no, line in enumerate(fh.read().splitlines(), 1)
                 if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    manifest = json.loads(lines[0][1])
    if not isinstance(manifest, dict) or manifest.get("kind") != "dataset":
        raise ValueError(f"{path}: not a dataset file")
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version")
    try:
        space = ClassSpace(tuple(manifest["classes"]))
        d = int(manifest["feature_dim"])
    except (KeyError, TypeError) as err:
        raise ValueError(f"{path}: bad manifest: {err!r}") from err
    records = []
    id_lines: dict[int, int] = {}
    for no, line in lines[1:]:
        try:
            raw = json.loads(line)
            features = np.asarray(raw["features"], dtype=np.float64)
            if not all(isinstance(tags, list) for tags in raw["evaluations"]):
                raise TypeError("each evaluation must be a list of class names")
            evaluations = tuple(
                Evaluation(tuple(space.index(name) for name in tags))
                for tags in raw["evaluations"]
            )
            record = DatasetRecord(int(raw["id"]), str(raw["split"]), features, evaluations)
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"{path}: line {no}: bad record: {err!r}") from err
        if features.shape != (d,):
            raise ValueError(f"{path}: line {no}: feature shape {features.shape} != ({d},)")
        if not np.isfinite(features).all():
            raise ValueError(f"{path}: line {no}: non-finite feature")
        if record.split not in ("train", "test"):
            raise ValueError(
                f"{path}: line {no}: split {record.split!r} is not 'train' or 'test'")
        if record.uid in id_lines:
            raise ValueError(f"{path}: line {no}: id {record.uid} repeats "
                             f"the id on line {id_lines[record.uid]}")
        id_lines[record.uid] = no
        records.append(record)
    return space, records


def record_to_example(record: DatasetRecord, space: ClassSpace) -> LabelledExample:
    """Derive the training view (labels, soft label, group) of a record."""
    group, majority = classify_agreement(record.evaluations, space)
    labels = tuple(expand(record.evaluations, space))
    return LabelledExample(
        features=record.features,
        labels=labels,
        soft=soft_label(labels),
        group=group,
        majority=majority,
        uid=record.uid,
    )


def write_checkpoint(
    path: str, params: ModelParams, space: ClassSpace, config: TrainConfig
) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "checkpoint",
        "classes": list(space.names),
        "dims": {
            "input": int(params.dims[0]),
            "hidden": [int(v) for v in params.dims[1:-1]],
            "output": int(params.dims[-1]),
        },
        "train_config": {
            "loss": config.loss.kind.value,
            "eps1": config.loss.eps1,
            "eps2": config.loss.eps2,
            "lambda": config.loss.lam,
            "learning_rate": config.learning_rate,
            "batch_size": config.batch_size,
            "epochs": config.epochs,
            "seed": config.seed,
            "hidden": list(config.hidden),
        },
        "layers": [
            {
                "weights": [[float(v) for v in row] for row in w],
                "bias": [float(v) for v in b],
            }
            for w, b in zip(params.weights, params.biases)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


def read_checkpoint(path: str) -> tuple[ModelParams, ClassSpace, TrainConfig]:
    """Params, classes and settings; a missing key raises ValueError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or doc.get("kind") != "checkpoint":
        raise ValueError(f"{path}: not a checkpoint file")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version")
    try:
        space = ClassSpace(tuple(doc["classes"]))
        raw = doc["train_config"]
        config = TrainConfig(
            loss=LossConfig(
                kind=LossKind(raw["loss"]),
                eps1=float(raw["eps1"]),
                eps2=float(raw["eps2"]),
                lam=float(raw["lambda"]),
            ),
            learning_rate=float(raw["learning_rate"]),
            batch_size=int(raw["batch_size"]),
            epochs=int(raw["epochs"]),
            seed=int(raw["seed"]),
            hidden=tuple(int(v) for v in raw["hidden"]),
        )
        params = ModelParams(
            [np.asarray(layer["weights"], dtype=np.float64) for layer in doc["layers"]],
            [np.asarray(layer["bias"], dtype=np.float64) for layer in doc["layers"]],
        )
    except (KeyError, TypeError, IndexError) as err:
        raise ValueError(f"{path}: missing or mistyped field: {err!r}") from err
    return params, space, config


def _fmt_json_6dp(obj, indent: int = 0) -> str:
    # Floats at fixed 6 decimal places; non-finite values become null.
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad} "{key}": {_fmt_json_6dp(value, indent + 1)}'
            for key, value in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_fmt_json_6dp(v, indent) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return f"{obj:.6f}"
    return json.dumps(obj)


def write_report(path: str, report: MetricsReport) -> None:
    """Evaluation report as JSON with every value at 6 decimal places."""
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "report",
        "wa": report.wa,
        "ua": report.ua,
        "mean_kl": report.mean_kl,
        "mean_entropy": report.mean_entropy,
        "aupr_maxp": report.aupr_maxp,
        "aupr_ent": report.aupr_ent,
        "per_group": {
            group.value: {
                "count": gm.count,
                "mean_maxp": gm.mean_maxp,
                "mean_entropy": gm.mean_entropy,
                "mean_kl": gm.mean_kl,
                "wa": gm.wa,
                "ua": gm.ua,
            }
            for group, gm in report.per_group.items()
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_fmt_json_6dp(doc) + "\n")


def read_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("kind") != "report":
        raise ValueError(f"{path}: not a report file")
    return doc


def write_curve(path: str, curve: PRCurve) -> None:
    lines = ["threshold,precision,recall"]
    for threshold, precision, recall in curve.points:
        lines.append(f"{threshold:.6f},{precision:.6f},{recall:.6f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_train_log(path: str, losses: Sequence[float]) -> None:
    lines = ["epoch,mean_loss"]
    for epoch, value in enumerate(losses):
        lines.append(f"{epoch},{value!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
