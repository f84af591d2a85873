"""File formats: line-delimited datasets, JSON checkpoints, 6-decimal
evaluation reports, PR-curve CSVs and training logs.

All writers are deterministic: rerunning a command with the same inputs
produces byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .annotations import ClassSpace, Evaluation, agreement, vote_matrix
from .dirichlet import CategoricalDist
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


def _text(path: str) -> str:
    """The file's text; a byte that is not UTF-8 raises ValueError naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise ValueError(f"{path}: line {line}: not UTF-8: {err}") from err


def _parse(path: str, text: str, kind: str) -> dict:
    """The JSON object of a ``kind`` file at this format version."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:
        raise ValueError(f"{path}: not JSON: {err}") from err
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise ValueError(f"{path}: not a {kind} file")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version!r}")
    return doc


def _class_space(path: str, classes) -> ClassSpace:
    """A file's ``classes``: a JSON list of unique strings."""
    if not (isinstance(classes, list) and all(isinstance(c, str) for c in classes)):
        raise ValueError(f"{path}: classes must be a list of strings, got {classes!r}")
    try:
        return ClassSpace(tuple(classes))
    except ValueError as err:
        raise ValueError(f"{path}: bad classes: {err}") from err


def read_dataset(path: str) -> tuple[ClassSpace, list[DatasetRecord]]:
    """Manifest and records; a malformed line raises ValueError naming it.

    Every split must be "train" or "test", every id a unique integer and
    every record's evaluations non-empty.
    """
    lines = [(no, line) for no, line in enumerate(_text(path).splitlines(), 1)
             if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    manifest = _parse(path, lines[0][1], "dataset")
    space, d = _class_space(path, manifest.get("classes")), manifest.get("feature_dim")
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise ValueError(f"{path}: manifest feature_dim must be an integer >= 0, got {d!r}")
    records = []
    id_lines: dict[int, int] = {}
    for no, line in lines[1:]:
        try:
            raw = json.loads(line)
            features = np.asarray(raw["features"], dtype=np.float64)
            if not (isinstance(raw["evaluations"], list)
                    and all(isinstance(tags, list) for tags in raw["evaluations"])):
                raise TypeError("each evaluation must be a list of class names")
            evaluations = tuple(
                Evaluation(tuple(space.index(name) for name in tags))
                for tags in raw["evaluations"]
            )
            if not isinstance(raw["id"], int) or isinstance(raw["id"], bool):
                raise TypeError(f"id must be an integer, got {raw['id']!r}")
            record = DatasetRecord(raw["id"], str(raw["split"]), features, evaluations)
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as err:
            raise ValueError(f"{path}: line {no}: bad record: {err!r}") from err
        if features.shape != (d,):
            raise ValueError(f"{path}: line {no}: feature shape {features.shape} != ({d},)")
        if not np.isfinite(features).all():
            raise ValueError(f"{path}: line {no}: non-finite feature")
        if not {int, float}.issuperset(map(type, raw["features"])):
            raise ValueError(f"{path}: line {no}: features must be JSON numbers")
        if not evaluations:
            raise ValueError(f"{path}: line {no}: at least one evaluation is required")
        if record.split not in ("train", "test"):
            raise ValueError(
                f"{path}: line {no}: split {record.split!r} is not 'train' or 'test'")
        if record.uid in id_lines:
            raise ValueError(f"{path}: line {no}: id {record.uid} repeats "
                             f"the id on line {id_lines[record.uid]}")
        id_lines[record.uid] = no
        records.append(record)
    return space, records


def record_to_example(
    records: Sequence[DatasetRecord], space: ClassSpace
) -> list[LabelledExample]:
    """Derive the training view (labels, soft label, group) of every record
    of a split from its vote counts, classifying agreement over the whole
    split at once.  Each record's one-hot labels are grouped by class."""
    counts, annotators = vote_matrix([rec.evaluations for rec in records], space)
    groups, majority = agreement(counts, annotators)
    soft = counts / counts.sum(axis=1, keepdims=True)
    eye = np.eye(space.k)
    return [
        LabelledExample(
            features=rec.features,
            labels=tuple(np.repeat(eye, row_counts, axis=0)),
            soft=CategoricalDist(row),
            group=group,
            majority=None if major < 0 else int(major),
            uid=rec.uid,
        )
        for rec, row_counts, row, group, major in zip(records, counts, soft, groups, majority)
    ]


def _dims(params: ModelParams) -> dict:
    d_in, *hidden, k = (int(v) for v in params.dims)
    return {"input": d_in, "hidden": hidden, "output": k}


def write_checkpoint(
    path: str, params: ModelParams, space: ClassSpace, config: TrainConfig
) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "checkpoint",
        "classes": list(space.names),
        "dims": _dims(params),
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


def _json(value, *types):
    """``value`` if its type is exactly one of ``types``: bool is an int subclass,
    and int(), float() and np.asarray would also take numeric strings."""
    if type(value) not in types:
        raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _reals(value) -> np.ndarray:
    items = np.asarray(value, dtype=object)
    return np.array([float(_json(v, int, float)) for v in items.flat]).reshape(items.shape)


def read_checkpoint(path: str) -> tuple[ModelParams, ClassSpace, TrainConfig]:
    """Params, classes and settings; a malformed checkpoint raises ValueError naming
    the file.  ``dims`` and ``hidden`` describe the layers, the last one per class."""
    doc = _parse(path, _text(path), "checkpoint")
    space = _class_space(path, doc.get("classes"))
    try:
        raw = doc["train_config"]
        config = TrainConfig(
            loss=LossConfig(
                kind=LossKind(raw["loss"]),
                eps1=float(_json(raw["eps1"], int, float)),
                eps2=float(_json(raw["eps2"], int, float)),
                lam=float(_json(raw["lambda"], int, float)),
            ),
            learning_rate=float(_json(raw["learning_rate"], int, float)),
            batch_size=_json(raw["batch_size"], int),
            epochs=_json(raw["epochs"], int),
            seed=_json(raw["seed"], int),
            hidden=tuple(_json(v, int) for v in raw["hidden"]),
        )
        dims = doc["dims"]
        for size in (dims["input"], *dims["hidden"], dims["output"]):
            _json(size, int)
        params = ModelParams(
            [_reals(layer["weights"]) for layer in doc["layers"]],
            [_reals(layer["bias"]) for layer in doc["layers"]],
        )
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as err:
        raise ValueError(f"{path}: missing or mistyped field: {err!r}") from err
    if dims != _dims(params) or config.hidden != params.dims[1:-1]:
        raise ValueError(f"{path}: dims or hidden do not match the layers {_dims(params)}")
    if params.dims[-1] != space.k:
        raise ValueError(f"{path}: last layer has {params.dims[-1]} units for {space.k} classes")
    if not all(np.isfinite(a).all() for a in params.weights + params.biases):
        raise ValueError(f"{path}: non-finite weight or bias")
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
    if isinstance(obj, float):
        return f"{obj:.6f}" if math.isfinite(obj) else "null"
    return json.dumps(obj)


def write_report(path: str, report: MetricsReport) -> None:
    """Evaluation report as JSON with every value at 6 decimal places; the
    report's field order is the file's key order."""
    doc = {"format_version": FORMAT_VERSION, "kind": "report", **asdict(report)}
    doc["per_group"] = {group.value: gm for group, gm in doc["per_group"].items()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_fmt_json_6dp(doc) + "\n")


def read_report(path: str) -> dict:
    return _parse(path, _text(path), "report")


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
