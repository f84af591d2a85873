"""Independent reference computations for checking the CLI's outputs.

Everything here re-derives what a command should have written from the
files it read, with batched numpy code that shares nothing with the
package: its own JSON parsing, count-vector agreement groups, a matrix
forward pass and a vectorised average-precision sweep.  The check
functions return a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

# Reports round every value to 6 decimals and the oracle's batched matmul
# may differ from the per-row forward pass in the last bits, so two correct
# values can differ by one unit in the 6th decimal.
REPORT_TOL = 1e-5
# Recorded reference reports absorb last-digit changes in training (e.g. a
# different accumulation order) but not a change in what is computed.
REFERENCE_TOL = 1e-4
LOGIT_CLAMP = 60.0
GROUPS = ("full", "majority", "none")
_NP_REPR = re.compile(r"np\.float64\((.*)\)")


@dataclass(frozen=True)
class Corpus:
    """A dataset file as arrays: one row per record, in file order."""

    classes: tuple[str, ...]
    ids: np.ndarray          # (n,) int
    test: np.ndarray         # (n,) bool, split == "test"
    features: np.ndarray     # (n, d)
    counts: np.ndarray       # (n, k) labels per class over all annotators
    annotators: np.ndarray   # (n,) evaluations per record
    evaluations: list        # raw class-name lists, as written

    @property
    def n(self) -> int:
        return self.ids.shape[0]

    def groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Group index into GROUPS per record, and the majority (-1 if none)."""
        # An evaluation holds each class at most once, so label counts are
        # also annotator votes.
        top = self.counts.max(axis=1)
        leaders = (self.counts == top[:, None]).sum(axis=1)
        full = (top == self.annotators) & (leaders == 1)
        majority = ~full & (top >= 2) & (leaders == 1)
        group = np.where(full, 0, np.where(majority, 1, 2))
        winner = np.where(group < 2, self.counts.argmax(axis=1), -1)
        return group, winner


def read_corpus(path: str) -> Corpus:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    manifest = json.loads(lines[0])
    if manifest.get("kind") != "dataset":
        raise ValueError(f"{path}: manifest is not a dataset manifest")
    classes = tuple(manifest["classes"])
    index = {name: i for i, name in enumerate(classes)}
    raws = [json.loads(line) for line in lines[1:]]
    counts = np.zeros((len(raws), len(classes)), dtype=np.int64)
    for row, raw in enumerate(raws):
        for tags in raw["evaluations"]:
            for tag in tags:
                counts[row, index[tag]] += 1
    return Corpus(
        classes=classes,
        ids=np.array([raw["id"] for raw in raws], dtype=np.int64),
        test=np.array([raw["split"] == "test" for raw in raws], dtype=bool),
        features=np.array([raw["features"] for raw in raws], dtype=np.float64).reshape(
            len(raws), int(manifest["feature_dim"])
        ),
        counts=counts,
        annotators=np.array([len(raw["evaluations"]) for raw in raws], dtype=np.int64),
        evaluations=[raw["evaluations"] for raw in raws],
    )


def check_generated(corpus: Corpus, n: int, k: int, d: int, annotators: int,
                    test_frac: float) -> list[str]:
    problems = []
    if corpus.n != n:
        problems.append(f"gen wrote {corpus.n} records, expected {n}")
    if len(corpus.classes) != k or corpus.features.shape[1] != d:
        problems.append(f"gen wrote k={len(corpus.classes)}, d={corpus.features.shape[1]}")
    if not np.array_equal(corpus.ids, np.arange(corpus.n)):
        problems.append("gen ids are not 0..n-1 in order")
    n_train = round(n * (1.0 - test_frac))
    if not np.array_equal(corpus.test, np.arange(corpus.n) >= n_train):
        problems.append("gen split does not match --test-frac")
    if np.any(corpus.annotators != annotators):
        problems.append("gen wrote a record with the wrong number of evaluations")
    if not np.all(np.isfinite(corpus.features)):
        problems.append("gen wrote non-finite features")
    return problems


def check_transformed(source: Corpus, out: Corpus) -> list[str]:
    """Vote-and-replace: agreed records become M copies of the majority tag."""
    if out.n != source.n or out.classes != source.classes:
        return ["transform changed the record count or classes"]
    problems = []
    if not (np.array_equal(out.ids, source.ids) and np.array_equal(out.test, source.test)
            and np.array_equal(out.features, source.features)):
        problems.append("transform changed ids, splits or features")
    group, winner = source.groups()
    for row in range(source.n):
        if group[row] == 2:
            expected = source.evaluations[row]
        else:
            m = int(source.counts[row].sum())
            expected = [[source.classes[winner[row]]]] * m
        if out.evaluations[row] != expected:
            problems.append(f"transform record {int(source.ids[row])} is wrong")
            break
    return problems


def train_examples(corpus: Corpus, loss: str) -> int:
    """Examples the objective trains on: hard drops the no-majority ones."""
    group, _ = corpus.groups()
    train = ~corpus.test
    if loss == "hard":
        train &= group < 2
    return int(train.sum())


def check_checkpoint(path: str, log_path: str, corpus: Corpus, loss: str,
                     epochs: int) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    if tuple(doc.get("classes", ())) != corpus.classes:
        problems.append("checkpoint classes differ from the dataset")
    if doc["train_config"]["loss"] != loss or doc["train_config"]["epochs"] != epochs:
        problems.append("checkpoint records the wrong loss or epoch count")
    for layer in doc["layers"]:
        if not (np.all(np.isfinite(layer["weights"])) and np.all(np.isfinite(layer["bias"]))):
            problems.append("checkpoint holds non-finite weights")
    losses = read_train_log(log_path)[0]
    if len(losses) != epochs or not all(math.isfinite(v) for v in losses):
        problems.append(f"training log has {len(losses)} epochs or a non-finite loss")
    return problems


def read_train_log(path: str) -> tuple[list[float], bool]:
    """Per-epoch mean losses, and whether every one was written as a plain
    float.  Under numpy 2 the log can hold ``np.float64(x)`` reprs; those
    are still read, and the format is reported apart from the check."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    values = [row.split(",", 1)[1] for row in rows]
    plain = [_NP_REPR.fullmatch(v) is None for v in values]
    return [float(v if ok else _NP_REPR.fullmatch(v).group(1))
            for v, ok in zip(values, plain)], all(plain)


def predict(ckpt_path: str, features: np.ndarray) -> np.ndarray:
    """Predictive means alpha / alpha0 for a batch of feature rows."""
    with open(ckpt_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    h = features
    layers = doc["layers"]
    for i, layer in enumerate(layers):
        h = h @ np.asarray(layer["weights"]) + np.asarray(layer["bias"])
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0)
    alpha = np.exp(np.clip(h, -LOGIT_CLAMP, LOGIT_CLAMP)) + doc["train_config"]["eps2"]
    return alpha / alpha.sum(axis=1, keepdims=True)


def _xlogx(p: np.ndarray) -> np.ndarray:
    """p ln p with 0 ln 0 = 0."""
    return p * np.log(np.where(p > 0.0, p, 1.0))


def average_precision(scores: np.ndarray, positive: np.ndarray,
                      higher_is_positive: bool) -> tuple[float, int]:
    """Average precision over a threshold swept through every distinct
    score (ties grouped), and the number of curve points."""
    keys = -scores if higher_is_positive else scores
    order = np.argsort(keys, kind="stable")
    s, pos = scores[order], positive[order]
    ends = np.flatnonzero(np.append(s[1:] != s[:-1], True))
    tp = np.cumsum(pos)[ends]
    precision = tp / (ends + 1)
    recall = tp / pos.sum()
    return float(np.sum(np.diff(recall, prepend=0.0) * precision)), int(ends.shape[0])


def _wa_ua(refs: np.ndarray, preds: np.ndarray) -> tuple[float, float]:
    recalls = [np.mean(preds[refs == c] == c) for c in np.unique(refs)]
    return float(np.mean(refs == preds)), float(np.mean(recalls))


def expected_report(corpus: Corpus, ckpt_path: str) -> dict:
    """The eval report a checkpoint should produce on the test split."""
    group, winner = corpus.groups()
    test = corpus.test
    group, winner = group[test], winner[test]
    counts = corpus.counts[test]
    soft = counts / counts.sum(axis=1, keepdims=True)
    p = predict(ckpt_path, corpus.features[test])
    pred = p.argmax(axis=1)
    kl = np.sum(_xlogx(soft) - soft * np.log(p), axis=1)  # p > 0: alpha >= exp(-60)
    ent = -np.sum(_xlogx(p), axis=1)
    maxp = p.max(axis=1)
    positive = group < 2
    wa, ua = _wa_ua(winner[positive], pred[positive])
    report = {
        "wa": wa,
        "ua": ua,
        "mean_kl": float(kl.mean()),
        "mean_entropy": float(ent.mean()),
        "aupr_maxp": average_precision(maxp, positive, True)[0],
        "aupr_ent": average_precision(ent, positive, False)[0],
        "per_group": {},
    }
    for g, name in enumerate(GROUPS):
        idx = group == g
        if not idx.any():
            report["per_group"][name] = {"count": 0, "mean_maxp": None, "mean_entropy": None,
                                         "mean_kl": None, "wa": None, "ua": None}
            continue
        g_wa, g_ua = _wa_ua(winner[idx], pred[idx]) if name != "none" else (None, None)
        report["per_group"][name] = {
            "count": int(idx.sum()),
            "mean_maxp": float(maxp[idx].mean()),
            "mean_entropy": float(ent[idx].mean()),
            "mean_kl": float(kl[idx].mean()),
            "wa": g_wa,
            "ua": g_ua,
        }
    return report


def report_values(doc: dict) -> dict[str, object]:
    """Flatten a report to {"wa": .., "per_group.full.count": .., ...}."""
    flat = {key: doc[key] for key in ("wa", "ua", "mean_kl", "mean_entropy",
                                      "aupr_maxp", "aupr_ent")}
    for name in GROUPS:
        for key, value in doc["per_group"][name].items():
            flat[f"per_group.{name}.{key}"] = value
    return flat


def compare_reports(actual: dict, expected: dict, tol: float, what: str) -> list[str]:
    got, want = report_values(actual), report_values(expected)
    problems = []
    for key, value in want.items():
        other = got.get(key)
        if value is None or other is None:
            if value is not other:
                problems.append(f"{key}: {other!r} where {what} has {value!r}")
        elif not abs(other - value) <= tol:
            problems.append(f"{key}: {other!r} differs from {what} {value!r} by more than {tol:g}")
    return problems


def check_report(path: str, corpus: Corpus, ckpt_path: str) -> tuple[list[str], dict]:
    """Every field finite (the none group has no WA/UA) and equal to the oracle."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    for key, value in report_values(doc).items():
        if key in ("per_group.none.wa", "per_group.none.ua"):
            if value is not None:
                problems.append(f"{key} should be null, got {value!r}")
        elif not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"report field {key} is not finite: {value!r}")
    problems += compare_reports(doc, expected_report(corpus, ckpt_path), REPORT_TOL, "oracle")
    return problems, doc


def read_curve(path: str) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines[0] != "threshold,precision,recall":
        raise ValueError(f"{path}: bad curve header")
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).reshape(-1, 3)


def check_curves(prefix: str, corpus: Corpus, ckpt_path: str) -> list[str]:
    """Both PR curves: one point per distinct score, recall rising to 1,
    and an area equal to the oracle's average precision."""
    group, _ = corpus.groups()
    positive = group[corpus.test] < 2
    p = predict(ckpt_path, corpus.features[corpus.test])
    problems = []
    for name, scores, higher in (("maxp", p.max(axis=1), True),
                                 ("ent", -np.sum(_xlogx(p), axis=1), False)):
        curve = read_curve(f"{prefix}_{name}.csv")
        ap, n_points = average_precision(scores, positive, higher)
        recall = curve[:, 2]
        if curve.shape[0] != n_points:
            problems.append(f"{name} curve has {curve.shape[0]} points, oracle {n_points}")
        if curve.shape[0] == 0 or np.any(np.diff(recall) < 0) or recall[-1] != 1.0:
            problems.append(f"{name} curve recall does not rise to 1")
            continue
        area = float(np.sum(np.diff(recall, prepend=0.0) * curve[:, 1]))
        if not abs(area - ap) <= REPORT_TOL:
            problems.append(f"{name} curve area {area:.6f} differs from oracle {ap:.6f}")
    return problems


def check_orderings(reports: dict[str, dict]) -> list[str]:
    """The acceptance orderings of the paper's experiment (criterion 7)."""
    problems = []
    if not reports["hard"]["mean_entropy"] < reports["soft"]["mean_entropy"]:
        problems.append("hard mean entropy is not below soft")
    for loss in ("soft", "dpn-kl"):
        groups = reports[loss]["per_group"]
        if not groups["none"]["mean_entropy"] >= groups["full"]["mean_entropy"]:
            problems.append(f"{loss}: none-group entropy below full-group entropy")
    if not reports["dpn-kl"]["aupr_ent"] >= reports["hard"]["aupr_ent"]:
        problems.append("dpn-kl aupr_ent below hard")
    return problems
