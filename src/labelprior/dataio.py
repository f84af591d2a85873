"""File formats only: line-delimited datasets, JSON checkpoints, 6-decimal
evaluation reports, PR-curve CSVs and training logs.

All writers are deterministic: rerunning a command with the same inputs produces
byte-identical files.  ``write_columns`` is the one dataset encoder, a block of an
``annotations.Corpus``'s records at a time; ``write_dataset`` converts to one.
Checkpoints and reports share one indented layout, ``_indented``, and differ only
in their number rule.  ``write_checkpoint`` refuses what ``read_checkpoint`` refuses.
"""

from __future__ import annotations

import gc
import json
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from itertools import chain, count, repeat, starmap
from operator import itemgetter

import numpy as np

from .annotations import ClassSpace, Corpus, ordered_tags
from .dirichlet import _check_eps2
from .losses import LossConfig, LossKind
from .metrics import MetricsReport, PRCurve
from .model import ModelParams, TrainConfig

__all__ = [
    "DatasetRecord",
    "write_columns",
    "write_dataset",
    "read_dataset",
    "write_checkpoint",
    "read_checkpoint",
    "write_report",
    "read_report",
    "write_curve",
    "write_train_log",
]

FORMAT_VERSION = 1


@dataclass(frozen=True, eq=False)
class DatasetRecord:
    """One serialized utterance: id, split, features and class-index evaluations."""

    uid: int
    split: str
    features: np.ndarray
    evaluations: tuple[tuple[int, ...], ...]


_compact = json.JSONEncoder(separators=(",", ":")).encode


_BLOCK = 128  # records parsed, checked or encoded at a time, so peak memory stays flat
_HEAD = '{{"id":{},"split":{},"features":[{}],"evaluations":[['


def write_columns(path: str, space: ClassSpace, corpus: Corpus) -> None:
    """Manifest line and one JSON record per row of ``corpus``, encoded ``_BLOCK``
    rows at a time before the file opens; ids, features and checked tags are written as given."""
    tokens = np.array([_compact(name) for name in space.names], dtype=object)
    splits = np.where(corpus.train, '"train"', '"test"').tolist()
    # The offsets of every record's first evaluation and of every evaluation's first tag.
    record_evals = np.concatenate([[0], np.cumsum(corpus.annotators)])
    eval_tags = np.concatenate([[0], np.cumsum(corpus.tags_per_eval)])
    record_tags = eval_tags[record_evals]
    blocks = [_compact({"format_version": FORMAT_VERSION, "kind": "dataset", "classes":
                        list(space.names), "feature_dim": corpus.features.shape[1]}) + "\n"]
    for r0 in range(0, len(corpus), _BLOCK):
        r1 = min(r0 + _BLOCK, len(corpus))
        # Feature lists hold only numbers, so "],[" falls between rows alone.
        features = _compact(corpus.features[r0:r1].tolist())[2:-2]
        heads = list(starmap(_HEAD.format, zip(_compact(corpus.ids[r0:r1])[1:-1].split(","),
                                               splits[r0:r1], features.split("],["), strict=True)))
        t0, t1 = record_tags[r0], record_tags[r1]
        seps = np.full(t1 - t0, ",", dtype=object)
        seps[eval_tags[record_evals[r0] + 1:record_evals[r1] + 1] - t0 - 1] = "],["
        seps[record_tags[r0 + 1:r1 + 1] - t0 - 1] = "]]}\n"
        pieces = np.stack([tokens[corpus.tags[t0:t1]], seps], axis=1).ravel()
        blocks.append("".join(np.insert(pieces, 2 * (record_tags[r0:r1] - t0), heads).tolist()))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(blocks)


def write_dataset(path: str, space: ClassSpace, records: Sequence[DatasetRecord]) -> None:
    """``records`` through ``Corpus.from_tags`` and ``write_columns``, ids and features as
    given.  A split not "train" or "test", or an evaluation ``from_tags`` refuses, raises
    ValueError; no file opens."""
    if bad := sorted({rec.split for rec in records} - _SPLITS, key=repr):
        raise ValueError(f"splits {bad} are not 'train' or 'test'")
    evaluations = [ev for rec in records for ev in rec.evaluations]
    write_columns(path, space, Corpus.from_tags(
        [rec.uid for rec in records], np.array([rec.split == "train" for rec in records], bool),
        # One (n, d) array: rows of different widths raise ValueError; no records, d = 0.
        np.array([rec.features for rec in records] or np.empty((0, 0)), dtype=np.float64),
        list(chain.from_iterable(evaluations)),
        np.array(list(map(len, evaluations)), dtype=np.int64),
        np.array([len(rec.evaluations) for rec in records], dtype=np.int64), space.k))


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


_BLANK = " \t\r"  # the JSON whitespace a line can hold; a line of only these is blank
_LISTS, _INTS, _NUMBERS = frozenset((list,)), frozenset((int,)), frozenset((int, float))
_SPLITS = frozenset(("train", "test"))
_FIELDS = itemgetter("id", "split", "features", "evaluations")
# The decoder's C scanner: (line, 0) gives (value, end) and a line that holds no
# value raises StopIteration, which inside ``map`` ends the map without an error.
_scan = json.JSONDecoder().scan_once


def _corpus(lines: list[str], d: int, index: dict) -> Corpus | None:
    """The records of the stripped ``lines`` as columns, or None if any line
    has a fault.  Each check covers a whole column of a block at once, and
    no decoded list is copied."""
    ids, train, features, tags, tags_per_eval, annotators = [], [], [np.empty((0, d))], [], [], []
    try:
        for start in range(0, len(lines), _BLOCK):
            text = lines[start:start + _BLOCK]
            docs, ends = zip(*map(_scan, text, repeat(0)))
            # Every line must give one record that ends where the line does: a
            # map that stopped early leaves fewer ends than lines.
            if ends != tuple(map(len, text)):
                return None
            # A record that is not an object fails the lookup, and list.__len__
            # raises on anything but a list.
            uid, split, rows, evaluations = zip(*map(_FIELDS, docs))
            if not (_INTS.issuperset(map(type, uid)) and _SPLITS.issuperset(split)
                    and set(map(list.__len__, rows)) == {d}
                    and _NUMBERS.issuperset(map(type, chain.from_iterable(rows)))):
                return None
            annotators += map(list.__len__, evaluations)
            # A string or an object would pass len and give strings to the lookup.
            if not _LISTS.issuperset(map(type, chain.from_iterable(evaluations))):
                return None
            tags_per_eval += map(len, chain.from_iterable(evaluations))
            # Only class names are keys, so a lookup rejects every other value.
            tags += map(index.__getitem__, chain.from_iterable(chain.from_iterable(evaluations)))
            features.append(np.array(rows, dtype=np.float64))  # a huge integer overflows here
            ids += uid
            train += map("train".__eq__, split)
        features = np.concatenate(features)
        if not (np.isfinite(features).all() and len(set(ids)) == len(ids)):
            return None
        # from_tags refuses an empty record or evaluation and a repeated tag.
        return Corpus.from_tags(ids, np.array(train, dtype=bool), features, tags,
                                np.array(tags_per_eval, dtype=np.int64),
                                np.array(annotators, dtype=np.int64), len(index))
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError):
        return None


def _raise_first_fault(path: str, lines: list, d: int, space: ClassSpace) -> None:
    """Check each numbered line in full before the next and raise ValueError
    naming the first bad one.  A record's evaluations are checked by
    ``annotations.ordered_tags``, the rules' one owner, on that record alone."""
    id_lines: dict[int, int] = {}
    for no, line in lines:
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
            ordered_tags(list(map(space.index, chain.from_iterable(evaluations))),
                         list(map(len, evaluations)), [len(evaluations)], space.k)
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
        if split != "train" and split != "test":
            raise ValueError(
                f"{path}: line {no}: split {str(split)!r} is not 'train' or 'test'")
        if uid in id_lines:
            raise ValueError(f"{path}: line {no}: id {uid} repeats the id on line {id_lines[uid]}")
        id_lines[uid] = no


def read_dataset(path: str) -> tuple[ClassSpace, Corpus]:
    """Manifest and records; a malformed line raises ValueError naming it.

    Lines end at a line feed only, and a line of nothing but spaces, tabs
    and carriage returns is blank and skipped; a carriage return is JSON
    whitespace, so CRLF files read too.  Every split must be "train" or
    "test", every id a unique integer and every record's evaluations
    non-empty.  The records are parsed and checked a whole column at a
    time; only when a check fails are they checked again line by line, so
    the error names the first bad line.
    """
    text = _text(path).split("\n")
    lines = list(filter(None, map(str.strip, text, repeat(_BLANK))))
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    # The manifest's line as written, so that a JSON error counts its indent.
    manifest = _parse(path, next(line for line in text if line.strip(_BLANK)), "dataset")
    space, d = _class_space(path, manifest.get("classes")), manifest.get("feature_dim")
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise ValueError(f"{path}: manifest feature_dim must be an integer >= 0, got {d!r}")
    index = {name: i for i, name in enumerate(space.names)}
    # The decoded records hold no cycles and each block drops them, so the
    # collector's scans of them would find nothing.
    collecting = gc.isenabled()
    gc.disable()
    try:
        corpus = _corpus(lines[1:], d, index)
    finally:
        if collecting:
            gc.enable()
    if corpus is None:
        numbered = [(no, line) for no, line in enumerate(text, 1) if line.strip(_BLANK)]
        _raise_first_fault(path, numbered[1:], d, space)
        raise RuntimeError(f"{path}: a record check failed that no line check names")
    return space, corpus


def _dims(params: ModelParams) -> dict:
    d_in, *hidden, k = (int(v) for v in params.dims)
    return {"input": d_in, "hidden": hidden, "output": k}


def _indented(obj, real, pad: str = "") -> str:
    """``obj`` as ``json.dumps(obj, indent=1)`` lays it out when it opens on a line
    indented by ``pad``, but with each float written by ``real`` and a float vector's
    numbers by one C-encoder call split on commas, which no number holds."""
    if isinstance(obj, dict):
        ends, items = "{}", [_compact(key) + ": " + _indented(value, real, pad + " ")
                             for key, value in obj.items()]
    elif isinstance(obj, np.ndarray) and obj.ndim == 1:
        ends, items = "[]", _compact(obj.tolist())[1:-1].split(",") if len(obj) else []
    elif isinstance(obj, (list, np.ndarray)):
        ends, items = "[]", [_indented(value, real, pad + " ") for value in obj]
    else:
        return real(obj) if isinstance(obj, float) else _compact(obj)
    item = "\n" + pad + " "
    return ends[0] + item + ("," + item).join(items) + "\n" + pad + ends[1] if items else ends


def _check_fit(params: ModelParams, space: ClassSpace, config: TrainConfig, dims: dict) -> None:
    """Raise ValueError unless ``dims`` and ``config.hidden`` describe the layers, the
    last layer has one unit per class and ``config``'s eps2 suits that many classes."""
    if dims != _dims(params) or config.hidden != params.dims[1:-1]:
        raise ValueError(f"dims or hidden do not match the layers {_dims(params)}")
    if params.dims[-1] != space.k:
        raise ValueError(f"last layer has {params.dims[-1]} units for {space.k} classes")
    _check_eps2(config.loss.eps2, space.k)


def write_checkpoint(
    path: str, params: ModelParams, space: ClassSpace, config: TrainConfig
) -> None:
    """The bytes of ``json.dumps(doc, indent=1) + "\\n"``, each matrix laid out a row
    per C-encoder call.  Params that ``read_checkpoint`` would refuse under these
    classes and settings raise its ValueError; no file opens."""
    dims = _dims(params)
    _check_fit(params, space, config, dims)
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": "checkpoint",
        "classes": list(space.names),
        "dims": dims,
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
        "layers": [{"weights": np.asarray(w, np.float64), "bias": np.asarray(b, np.float64)}
                   for w, b in zip(params.weights, params.biases)],
    }
    text = _indented(doc, _compact) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json(value, *types):
    """``value`` if its type is exactly one of ``types``: bool is an int subclass,
    and int(), float() and np.asarray would also take numeric strings."""
    if type(value) not in types:
        raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
    return value


def _reals(value) -> np.ndarray:
    """``value`` as a float64 array; an element that is not a JSON number raises
    TypeError, and an integer past the float range OverflowError.  The element
    loop runs only to name the first offender."""
    items = np.asarray(value, dtype=object)
    if _NUMBERS.issuperset(map(type, items.flat)):
        return items.astype(np.float64)
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
    try:
        _check_fit(params, space, config, dims)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    if not all(np.isfinite(a).all() for a in params.weights + params.biases):
        raise ValueError(f"{path}: non-finite weight or bias")
    return params, space, config


def _six(value) -> str:
    """A report number: 6 decimal places, or null for None or a non-finite value."""
    return f"{value:.6f}" if value is not None and math.isfinite(value) else "null"


def write_report(path: str, report: MetricsReport) -> None:
    """The eval report as indented JSON with every float through ``_six``; the
    report's field order is the file's key order."""
    doc = {"format_version": FORMAT_VERSION, "kind": "report", **asdict(report)}
    doc["per_group"] = {group.name.lower(): gm for group, gm in doc["per_group"].items()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_indented(doc, _six) + "\n")


def read_report(path: str) -> dict:
    return _parse(path, _text(path), "report")


def write_curve(path: str, curve: PRCurve) -> None:
    """A header and one 6-decimal row per curve point, all rows formatted by one ``%``."""
    rows = "%.6f,%.6f,%.6f\n" * len(curve.points) % tuple(curve.points.ravel().tolist())
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("threshold,precision,recall\n" + rows)


def write_train_log(path: str, losses: Sequence[float]) -> None:
    """A header and one line per epoch: its index and the repr of its mean loss."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,mean_loss\n" + "".join(map("{},{!r}\n".format, count(), losses)))
