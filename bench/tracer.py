"""Span tracing of labelprior's layers from outside the package.

:func:`traced` wraps the public functions of each layer module (the names
in its ``__all__``, plus the methods, properties and ``__post_init__`` of
the classes it exports) wherever a labelprior module has bound them, so
that calls between modules go through the wrapper too.  Each call records
a span (name, start, end, parent) in flat arrays; counters record the work
done at the same boundaries.  Nothing inside the package is edited, and
leaving the context restores every original.
"""

from __future__ import annotations

import enum
import importlib
import inspect
import os
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "dataio", "annotations", "synth", "rng", "model", "losses",
          "specfun", "dirichlet", "metrics")

_READS = ("read_dataset", "read_checkpoint", "read_report")
_WRITES = ("write_dataset", "write_checkpoint", "write_report", "write_curve",
           "write_train_log")


def _rows(a) -> int:
    a = np.asarray(a)
    return 1 if a.ndim <= 1 else int(a.shape[0])


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._last_error: BaseException | None = None
        self._train_depth = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        self.names.append(name)
        self.name_layer.append(LAYERS.index(layer))
        return len(self.names) - 1

    def wrap(self, layer: str, name: str, fn, count=None):
        """A span-recording stand-in for ``fn``; ``count(tracer, arguments,
        result, top)`` records work, with ``top`` true when the caller is
        outside the layer."""
        sid = self._name_id(f"{layer}.{name}", layer)
        lid = LAYERS.index(layer)
        sig = inspect.signature(fn) if count is not None else None

        def traced_call(*args, **kwargs):
            stack = self._stack
            parent = stack[-1] if stack else -1
            top = parent < 0 or self.name_layer[self.span_name[parent]] != lid
            idx = len(self.span_name)
            self.span_name.append(sid)
            self.span_parent.append(parent)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                if err is not self._last_error:  # count where it was raised
                    self._last_error = err
                    self.counters[f"{layer}.errors"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
            if count is not None:
                count(self, sig.bind(*args, **kwargs).arguments, result, top)
            return result

        return traced_call

    # -- derived numbers ---------------------------------------------------

    def self_by_name(self) -> dict[str, float]:
        """Self time per wrapped function: the duration of its spans minus
        the part covered by their child spans."""
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.shape[0])
        totals = np.bincount(np.frombuffer(self.span_name, dtype=np.int32),
                             weights=dur - child, minlength=len(self.names))
        return {name: float(t) for name, t in zip(self.names, totals)}

    def save(self, path: str) -> None:
        """Write every span: name, start, end and parent index."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        by_name = self.self_by_name()
        c = self.counters
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            total = sum(t for name, t in by_name.items() if name.split(".")[0] == layer)
            out[f"{layer}.self_s"] = (total, "s")
            out[f"{layer}.errors"] = (c[f"{layer}.errors"], "count")
        out["specfun.calls"] = (c["specfun.calls"], "count")
        out["specfun.elements"] = (c["specfun.elements"], "count")
        out["losses.calls"] = (c["losses.calls"], "count")
        out["losses.rows"] = (c["losses.rows"], "count")
        out["losses.rows_per_call"] = (_ratio(c["losses.rows"], c["losses.calls"]), "ratio")
        out["model.forward.rows"] = (c["model.forward.rows"], "count")
        out["model.backward.rows"] = (c["model.backward.rows"], "count")
        out["model.passes_per_example"] = (
            _ratio(c["model.train_passes"], c["model.example_epochs"]), "ratio")
        for name in ("forward", "backward", "train"):
            out[f"model.{name}.self_s"] = (by_name.get(f"model.{name}", 0.0), "s")
        records = c["dataio.records_read"] + c["synth.utterances"]
        out["annotations.classify_calls"] = (c["annotations.classify_calls"], "count")
        out["annotations.classify_per_record"] = (
            _ratio(c["annotations.classify_calls"], records), "ratio")
        out["dirichlet.calls"] = (c["dirichlet.calls"], "count")
        out["metrics.items"] = (c["metrics.items"], "count")
        out["metrics.pr_points"] = (c["metrics.pr_points"], "count")
        for key in ("records_read", "records_written"):
            out[f"dataio.{key}"] = (c[f"dataio.{key}"], "count")
        for key in ("bytes_read", "bytes_written"):
            out[f"dataio.{key}"] = (c[f"dataio.{key}"], "B")
        out["dataio.read_s"] = (sum(by_name.get(f"dataio.{n}", 0.0) for n in _READS), "s")
        out["dataio.write_s"] = (sum(by_name.get(f"dataio.{n}", 0.0) for n in _WRITES), "s")
        out["synth.utterances"] = (c["synth.utterances"], "count")
        out["rng.streams"] = (c["rng.streams"], "count")
        out["trace.spans"] = (len(self.span_name), "count")
        return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- counters at the layer boundaries --------------------------------------

def _entry(key: str):
    def count(tr, args, result, top):
        if top:
            tr.counters[key] += 1
    return count


def _every(key: str):
    def count(tr, args, result, top):
        tr.counters[key] += 1
    return count


def _specfun(tr, args, result, top):
    tr.counters["specfun.calls"] += 1
    tr.counters["specfun.elements"] += int(np.size(args["x"]))


def _losses(tr, args, result, top):
    if top:
        tr.counters["losses.calls"] += 1
        tr.counters["losses.rows"] += _rows(args["z"])


def _model_rows(key: str):
    def count(tr, args, result, top):
        tr.counters[key] += _rows(args["x"])
    return count


def _metrics(tr, args, result, top):
    if top:
        first = next(iter(args.values()))
        tr.counters["metrics.items"] += len(first) if hasattr(first, "__len__") else 1
    if hasattr(result, "points"):
        tr.counters["metrics.pr_points"] += len(result.points)


def _read(tr, args, result, top):
    tr.counters["dataio.bytes_read"] += os.path.getsize(args["path"])


def _read_dataset(tr, args, result, top):
    _read(tr, args, result, top)
    tr.counters["dataio.records_read"] += len(result[1])


def _written(tr, args, result, top):
    tr.counters["dataio.bytes_written"] += os.path.getsize(args["path"])


def _write_dataset(tr, args, result, top):
    _written(tr, args, result, top)
    tr.counters["dataio.records_written"] += len(args["records"])


def _synth_generate(tr, args, result, top):
    tr.counters["synth.utterances"] += len(result[0])


def _counter_for(layer: str, name: str):
    if layer == "specfun":
        return _specfun
    if layer == "losses":
        return _losses
    if layer == "dirichlet":
        return _entry("dirichlet.calls")
    if layer == "metrics":
        return _metrics
    if layer == "model" and name in ("forward", "backward"):
        return _model_rows(f"model.{name}.rows")
    if layer == "annotations" and name == "classify_agreement":
        return _every("annotations.classify_calls")
    if layer == "dataio" and name in _READS:
        return _read_dataset if name == "read_dataset" else _read
    if layer == "dataio" and name in _WRITES:
        return _write_dataset if name == "write_dataset" else _written
    if layer == "synth" and name == "generate":
        return _synth_generate
    if layer == "rng" and name == "stream":
        return _every("rng.streams")
    return None


def _wrap_train(tr: Tracer, fn):
    """model.train also counts the example-epochs it trains on (hard
    drops the no-majority examples) for passes_per_example."""
    def train(examples, config):
        kept = len(examples)
        if config.loss.kind.value == "hard":
            kept = sum(1 for e in examples if e.majority is not None)
        tr.counters["model.example_epochs"] += kept * config.epochs
        tr._train_depth += 1
        try:
            return fn(examples, config)
        finally:
            tr._train_depth -= 1
    return train


def _wrap_passes(tr: Tracer, fn):
    """Counter only, no span: every forward pass over a feature row during
    training, including the one ``backward`` re-runs today."""
    def forward_pass(params, x):
        if tr._train_depth:
            tr.counters["model.train_passes"] += _rows(x)
        return fn(params, x)
    return forward_pass


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "labelprior" or name.startswith("labelprior."))]


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block."""
    modules = [importlib.import_module(f"labelprior.{layer}") for layer in LAYERS]
    everywhere = _package_modules()
    undo: list[tuple[object, str, object]] = []

    def rebind(original, replacement) -> None:
        for mod in everywhere:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def patch_class(layer: str, cls) -> None:
        # Every constructor and accessor of a dirichlet class is an entry
        # into that layer; the other layers' classes only record spans.
        count = _entry("dirichlet.calls") if layer == "dirichlet" else None
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            label = f"{cls.__name__}.{attr}"
            if isinstance(value, property) and value.fget is not None:
                new = property(tracer.wrap(layer, label, value.fget, count))
            elif isinstance(value, (classmethod, staticmethod)):
                new = type(value)(tracer.wrap(layer, label, value.__func__, count))
            elif inspect.isfunction(value):
                new = tracer.wrap(layer, label, value, count)
            else:
                continue
            undo.append((cls, attr, value))
            setattr(cls, attr, new)

    try:
        for layer, mod in zip(LAYERS, modules):
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    if not issubclass(obj, enum.Enum):
                        patch_class(layer, obj)
                elif inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    fn = _wrap_train(tracer, obj) if (layer, name) == ("model", "train") else obj
                    rebind(obj, tracer.wrap(layer, name, fn, _counter_for(layer, name)))
        model = modules[LAYERS.index("model")]
        if hasattr(model, "_forward_cached"):
            rebind(model._forward_cached, _wrap_passes(tracer, model._forward_cached))
        yield tracer
    finally:
        for target, attr, value in reversed(undo):
            setattr(target, attr, value)
