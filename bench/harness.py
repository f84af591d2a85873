"""Workload definitions and the closed loop that runs them.

Every command goes through ``labelprior.cli.main(argv)`` in this process,
one at a time: a command starts when the previous one returns.  Each one
is an operation; it fails when it exits non-zero, raises, or writes an
output that its check rejects.  Commands run back to back in groups (a
set-up or a cycle) and are checked after their group.  The first time an
operation runs its outputs are checked against the oracle (and, for the
recorded seeds, against reference reports); every later run of the same
argv must write byte-identical files.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import statistics
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

import hostspeed
import oracle
from labelprior import cli

DEFAULT_SEED = 42
HELDOUT_SEED = 1729
LOSSES = ("hard", "soft", "dpn", "dpn-kl")
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class GenSpec:
    """Flags of one ``gen`` command."""

    n: int
    k: int = 5
    d: int = 16
    annotators: int = 3
    multi_tag: float = 0.04
    precisions: Optional[tuple[float, ...]] = None
    test_frac: float = 0.2

    def argv(self, seed: int, out: str) -> list[str]:
        argv = ["gen", "--n", str(self.n), "--k", str(self.k), "--d", str(self.d),
                "--annotators", str(self.annotators),
                "--multi-tag-prob", repr(self.multi_tag),
                "--test-frac", repr(self.test_frac), "--seed", str(seed), "--out", out]
        if self.precisions is not None:
            argv += ["--precisions", ",".join(repr(p) for p in self.precisions)]
        return argv


@dataclass(frozen=True)
class Workload:
    """A workload's sizes; BENCHMARK.json records why each one exists."""

    name: str
    corpus: GenSpec            # the corpus each timed cycle generates
    epochs: int
    # When set, the four trainings run once per set-up on this corpus and
    # the timed cycle only evaluates the dpn-kl checkpoint.
    setup_corpus: Optional[GenSpec] = None
    orderings: bool = False    # check the paper's criterion-7 orderings
    setup_repeats: int = 3     # set-ups per run; setup_s is their median


WORKLOADS = {
    w.name: w
    for w in (
        # Three epochs is the fewest at which the criterion-7 orderings held
        # on every seed tried (after one epoch some seeds fail them).
        Workload("paper-pipeline", GenSpec(2000), epochs=3, orderings=True),
        Workload(
            "corpus-large",
            GenSpec(5000, test_frac=1.0),
            epochs=1,
            setup_corpus=GenSpec(1000),
            # Each set-up trains all four objectives once, and these are
            # the workload's only training samples.
            setup_repeats=8,
        ),
        # About 3% of these utterances have no majority; a 600-utterance test
        # split keeps that group non-empty, which detect needs.
        Workload(
            "crowd-train",
            GenSpec(1500, k=10, d=32, annotators=20, multi_tag=0.2,
                    precisions=(300.0, 40.0, 15.0), test_frac=0.4),
            epochs=2,
        ),
    )
}

# Set-up of the workloads that train in their timed cycle: the same
# commands at a small size, so lazy imports and first-call costs are paid
# before timing.
WARMUP = Workload("warm-up", GenSpec(200), epochs=1)


@dataclass
class Op:
    """One CLI command with its output check and the work it does."""

    metric: Optional[str]           # throughput metric it feeds, if any
    argv: list[str]
    outputs: tuple[str, ...]
    check: Callable[[], list[str]]
    work: Callable[[], int]         # utterances or example-epochs


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def call_main(argv: list[str]) -> tuple[int, float, float, str]:
    """Run one command; returns exit code, start and end time, and stderr."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:  # an escaped exception is a failed command, not a crash
        return -1, start, perf_counter(), traceback.format_exc(limit=3)
    return code, start, perf_counter(), err.getvalue()


@dataclass
class Timed:
    """When one command ran and, once it passed its check, the work it did."""

    group: str                 # "setup-0", "cycle-3", ...
    metric: Optional[str]      # None when it is not a throughput sample
    start: float
    end: float
    work: Optional[int] = None


@dataclass
class Session:
    """Runs operations and keeps the tallies of one benchmark process."""

    workdir: str
    seed: int
    reference: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    notes: set = field(default_factory=set)   # defects seen that fail no check
    timings: list = field(default_factory=list)
    speed: list = field(default_factory=list)  # (time, host slowdown)
    digests: dict = field(default_factory=dict)
    _corpora: dict = field(default_factory=dict)

    def path(self, *parts: str) -> str:
        path = os.path.join(self.workdir, *parts)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return path

    def corpus(self, path: str) -> oracle.Corpus:
        """Parsed dataset file, re-read only when its bytes change."""
        digest = _digest(path)
        if self._corpora.get(path, (None,))[0] != digest:
            self._corpora[path] = (digest, oracle.read_corpus(path))
        return self._corpora[path][1]

    def run(self, ops: list[Op], group: str, record: bool = True) -> None:
        """Run the commands back to back, timing the host before each and
        after the last, then check them; checking afterwards keeps the
        oracle's own work away from the commands and the host timings."""
        ran = []
        for op in ops:
            self.speed.append((perf_counter(), hostspeed.slowdown()))
            code, start, end, stderr = call_main(op.argv)
            timed = Timed(group, op.metric if record else None, start, end)
            self.timings.append(timed)
            ran.append((op, timed, code, stderr))
        self.speed.append((perf_counter(), hostspeed.slowdown()))
        for op, timed, code, stderr in ran:
            self.attempted += 1
            problems = self._check(op, code, stderr)
            if problems:
                self.failed += 1
                self.problems.append({"argv": op.argv, "problems": problems})
            elif timed.metric is not None:
                timed.work = op.work()

    def _check(self, op: Op, code: int, stderr: str) -> list[str]:
        if code != 0:
            return [f"exit {code}: {stderr.strip()}"]
        label = " ".join(op.argv)
        digests = [_digest(p) for p in op.outputs]
        if label in self.digests:
            if digests != self.digests[label]:
                return ["output bytes differ from the first run"]
            return []
        self.digests[label] = digests
        try:
            return op.check()
        except (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError) as err:
            return [f"output unreadable: {err!r}"]

    # -- timings -----------------------------------------------------------

    def slowdown(self, timed: Timed, window: float = 1.0) -> float:
        """Host slowdown during a command: the median of the reference-loop
        timings within ``window`` seconds of it, which tracks slow stretches
        of the host but not a single preempted timing."""
        near = [v for at, v in self.speed if timed.start - window <= at <= timed.end + window]
        return statistics.median(near)

    def seconds(self, timed: Timed, adjusted: bool) -> float:
        wall = timed.end - timed.start
        return wall / self.slowdown(timed) if adjusted else wall

    def group_seconds(self, group: str, adjusted: bool) -> float:
        return sum(self.seconds(t, adjusted) for t in self.timings if t.group == group)

    def samples(self, adjusted: bool) -> dict[str, list[float]]:
        """Throughput of every checked command, by metric."""
        out = defaultdict(list)
        for t in self.timings:
            if t.work is not None:
                out[t.metric].append(t.work / self.seconds(t, adjusted))
        return out

    # -- operations --------------------------------------------------------

    def gen(self, spec: GenSpec, seed: int, out: str, metric: Optional[str]) -> Op:
        return Op(metric, spec.argv(seed, out), (out,),
                  lambda: oracle.check_generated(self.corpus(out), spec.n, spec.k, spec.d,
                                                 spec.annotators, spec.test_frac),
                  lambda: spec.n)

    def transform(self, data: str, out: str) -> Op:
        return Op("transform_utt_per_s", ["transform", "--data", data, "--out", out], (out,),
                  lambda: oracle.check_transformed(self.corpus(data), self.corpus(out)),
                  lambda: self.corpus(data).n)

    def train(self, data: str, loss: str, epochs: int, out: str) -> Op:
        argv = ["train", "--data", data, "--loss", loss, "--epochs", str(epochs),
                "--seed", str(self.seed), "--out", out]

        def check() -> list[str]:
            if not oracle.read_train_log(out + ".log")[1]:
                self.notes.add(f"train --loss {loss} writes numpy reprs, not plain "
                               "floats, into its training log")
            return oracle.check_checkpoint(out, out + ".log", self.corpus(data), loss, epochs)

        return Op(f"train_ex_per_s.{loss}", argv, (out, out + ".log"), check,
                  lambda: oracle.train_examples(self.corpus(data), loss) * epochs)

    def eval(self, data: str, ckpt: str, out: str, reports: dict, loss: str,
             orderings: bool) -> Op:
        def check() -> list[str]:
            problems, doc = oracle.check_report(out, self.corpus(data), ckpt)
            reports[loss] = doc
            ref = self.reference.get(os.path.relpath(out, self.workdir))
            if ref is not None:
                problems += oracle.compare_reports(doc, ref, oracle.REFERENCE_TOL,
                                                   "the recorded reference")
            if orderings and len(reports) == len(LOSSES):
                problems += oracle.check_orderings(reports)
            return problems

        return Op("eval_utt_per_s", ["eval", "--data", data, "--ckpt", ckpt, "--out", out],
                  (out,), check, lambda: int(self.corpus(data).test.sum()))

    def detect(self, data: str, ckpt: str, prefix: str) -> Op:
        return Op("detect_utt_per_s",
                  ["detect", "--data", data, "--ckpt", ckpt, "--out-prefix", prefix],
                  (prefix + "_maxp.csv", prefix + "_ent.csv"),
                  lambda: oracle.check_curves(prefix, self.corpus(data), ckpt),
                  lambda: int(self.corpus(data).test.sum()))


def cycle_ops(s: Session, w: Workload, subdir: str,
              ckpts: Optional[dict[str, str]] = None) -> list[Op]:
    """The commands of one pass through a workload, in order."""
    data = s.path(subdir, "data.jsonl")
    ops = [s.gen(w.corpus, s.seed, data, "gen_utt_per_s"),
           s.transform(data, s.path(subdir, "data_vr.jsonl"))]
    if ckpts is None:
        ckpts = {loss: s.path(subdir, f"{loss}.json") for loss in LOSSES}
        ops += [s.train(data, loss, w.epochs, ckpt) for loss, ckpt in ckpts.items()]
    reports: dict = {}
    ops += [s.eval(data, ckpt, s.path(subdir, f"report_{loss}.json"), reports, loss,
                   w.orderings)
            for loss, ckpt in ckpts.items()]
    ops += [s.detect(data, ckpt, s.path(subdir, f"curves_{loss}"))
            for loss, ckpt in ckpts.items()]
    return ops


def setup(s: Session, w: Workload, group: str = "setup",
          record: bool = True) -> Optional[dict[str, str]]:
    """Build what the timed cycle needs; returns the checkpoints it
    evaluates, or None when the cycle trains its own."""
    if w.setup_corpus is None:
        s.run(cycle_ops(s, WARMUP, "warmup"), group, record=False)
        return None
    data = s.path("setup", "train.jsonl")
    ckpts = {loss: s.path("setup", f"{loss}.json") for loss in LOSSES}
    s.run([s.gen(w.setup_corpus, s.seed + 1, data, None)]
          + [s.train(data, loss, w.epochs, ckpt) for loss, ckpt in ckpts.items()],
          group, record)
    return {"dpn-kl": ckpts["dpn-kl"]}


def run_cycle(s: Session, w: Workload, ckpts: Optional[dict[str, str]],
              group: str = "cycle", record: bool = True) -> None:
    """One pass through the workload's commands."""
    s.run(cycle_ops(s, w, "cycle", ckpts), group, record)


def load_reference(workload: str, seed: int) -> dict:
    try:
        with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return {}
    return table.get(workload, {}).get(str(seed), {})


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0
