"""File formats: line-delimited datasets, JSON checkpoints, 6-decimal
evaluation reports, PR-curve CSVs and training logs.

All writers are deterministic: rerunning a command with the same inputs
produces byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from itertools import chain, compress, islice
from typing import Optional, Sequence

import numpy as np

from .annotations import ClassSpace, Evaluation, agreement, tag_counts
from .losses import LossConfig, LossKind
from .metrics import MetricsReport, PRCurve
from .model import ModelParams, TrainConfig, TrainingSet

__all__ = [
    "Corpus",
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
                    "features": np.asarray(rec.features, dtype=np.float64).tolist(),
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


_NUMBERS = frozenset((int, float))
_LISTS = frozenset((list,))


@dataclass(frozen=True, eq=False)
class Corpus:
    """A dataset's records as columns, one row per record in file order.

    ``tags`` holds the class index of every tag in file order,
    ``tags_per_eval`` the number of tags of every evaluation and
    ``annotators`` the number of evaluations of every record.
    """

    ids: list[int]
    train: np.ndarray          # (n,) bool, False for the test split
    features: np.ndarray       # (n, d) float64
    counts: np.ndarray         # (n, K) votes per class
    annotators: np.ndarray     # (n,)
    tags: np.ndarray
    tags_per_eval: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def evaluation_sets(self, rows: Optional[np.ndarray] = None) -> list[tuple[Evaluation, ...]]:
        """The evaluations of every record, or of the records a boolean (n,)
        mask selects, rebuilt from the tag columns (each sorts its tags)."""
        rows = np.ones(len(self), dtype=bool) if rows is None else rows
        evals = np.repeat(rows, self.annotators)
        tags = iter(self.tags[np.repeat(evals, self.tags_per_eval)].tolist())
        evaluations = iter([Evaluation(tuple(islice(tags, m)))
                            for m in self.tags_per_eval[evals].tolist()])
        return [tuple(islice(evaluations, a)) for a in self.annotators[rows].tolist()]


def _tag_fault(evaluations: list, index: dict) -> None:
    """Raise the first fault of a record's evaluations, in file order."""
    for names in evaluations:
        for name in names:
            if type(name) is not str or name not in index:
                raise ValueError(f"unknown class name: {name!r}")
        if not names:
            raise ValueError("an evaluation must contain at least one tag")
        if len(set(names)) != len(names):
            raise ValueError("duplicate tags in evaluation")


def read_dataset(path: str) -> tuple[ClassSpace, Corpus]:
    """Manifest and records; a malformed line raises ValueError naming it.

    Lines end at a line feed only; a carriage return before it is JSON
    whitespace, so CRLF files read too.  Every split must be "train" or
    "test", every id a unique integer and every record's evaluations
    non-empty.  Each line is checked in full before the next, so the error
    names the first bad line.
    """
    lines = [(no, line) for no, line in enumerate(_text(path).split("\n"), 1)
             if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    manifest = _parse(path, lines[0][1], "dataset")
    space, d = _class_space(path, manifest.get("classes")), manifest.get("feature_dim")
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise ValueError(f"{path}: manifest feature_dim must be an integer >= 0, got {d!r}")
    index = {name: i for i, name in enumerate(space.names)}
    ids, train, rows, tags, tags_per_eval, annotators = [], [], [], [], [], []
    id_lines: dict[int, int] = {}
    for no, line in lines[1:]:
        try:
            raw = json.loads(line)
            features = raw["features"]
            if type(features) is list and _NUMBERS.issuperset(map(type, features)):
                # Every element is converted, so a huge integer overflows here.
                finite = all(list(map(math.isfinite, features)))
                shape, numbers = (len(features),), True
            else:  # raises numpy's own error, or sets the first failing check below
                array = np.asarray(features, dtype=np.float64)
                shape, finite, numbers = array.shape, np.isfinite(array).all(), False
            evaluations = raw["evaluations"]
            if not (type(evaluations) is list and _LISTS.issuperset(map(type, evaluations))):
                raise TypeError("each evaluation must be a list of class names")
            sizes = list(map(len, evaluations))
            try:
                classes = list(map(index.get, chain.from_iterable(evaluations)))
            except TypeError:  # an unhashable name
                classes = [None]
            # Only an evaluation of two or more tags can repeat one.
            if (None in classes or 0 in sizes or len(classes) > len(sizes)
                    and sum(map(len, map(set, evaluations))) != len(classes)):
                _tag_fault(evaluations, index)
            uid = raw["id"]
            if type(uid) is not int:
                raise TypeError(f"id must be an integer, got {uid!r}")
            split = raw["split"]
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as err:
            raise ValueError(f"{path}: line {no}: bad record: {err!r}") from err
        if shape != (d,):
            raise ValueError(f"{path}: line {no}: feature shape {shape} != ({d},)")
        if not finite:
            raise ValueError(f"{path}: line {no}: non-finite feature")
        if not numbers:
            raise ValueError(f"{path}: line {no}: features must be JSON numbers")
        if not evaluations:
            raise ValueError(f"{path}: line {no}: at least one evaluation is required")
        if split != "train" and split != "test":
            raise ValueError(
                f"{path}: line {no}: split {str(split)!r} is not 'train' or 'test'")
        if uid in id_lines:
            raise ValueError(f"{path}: line {no}: id {uid} repeats the id on line {id_lines[uid]}")
        id_lines[uid] = no
        ids.append(uid)
        train.append(split == "train")
        rows.append(features)
        tags += classes
        tags_per_eval += sizes
        annotators.append(len(sizes))
    tags, tags_per_eval = np.array(tags, dtype=np.int64), np.array(tags_per_eval, dtype=np.int64)
    annotators = np.array(annotators, dtype=np.int64)
    return space, Corpus(
        ids=ids,
        train=np.array(train, dtype=bool),
        features=np.array(rows, dtype=np.float64).reshape(len(ids), d),
        counts=tag_counts(tags, tags_per_eval, annotators, space.k),
        annotators=annotators,
        tags=tags,
        tags_per_eval=tags_per_eval,
    )


def record_to_example(corpus: Corpus) -> TrainingSet:
    """The training view of the train records of ``corpus``: a
    :class:`TrainingSet` of their features, vote counts, agreement groups,
    majority classes and ids, in file order.  Agreement is classified over
    the whole split in one call; no per-record object is built."""
    train = corpus.train
    counts = corpus.counts[train]
    groups, majority = agreement(counts, corpus.annotators[train])
    return TrainingSet(corpus.features[train], counts, groups, majority,
                       list(compress(corpus.ids, train.tolist())))


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
                "weights": np.asarray(w, dtype=np.float64).tolist(),
                "bias": np.asarray(b, dtype=np.float64).tolist(),
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
