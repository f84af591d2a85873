"""Layer probes at fixed sizes, through today's public functions only.

Each probe repeats one call for a short fixed time and reports the median
rate of its repeats; the 1e5-item report probe takes seconds per call and
is timed once.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import numpy as np

from labelprior import dataio, metrics, model, specfun, synth
from labelprior.annotations import AgreementGroup, AnnotationSet, soft_label
from labelprior.dirichlet import CategoricalDist
from labelprior.losses import LossConfig, LossKind, example_loss

PROBE_SECONDS = 0.2


def _rate(fn, work: int, seconds: float = PROBE_SECONDS, min_reps: int = 3) -> float:
    """Median of work/elapsed over repeats of ``fn`` filling ``seconds``."""
    rates = []
    deadline = perf_counter() + seconds
    while len(rates) < min_reps or perf_counter() < deadline:
        start = perf_counter()
        fn()
        rates.append(work / (perf_counter() - start))
    return statistics.median(rates)


def _examples(n: int) -> list[model.LabelledExample]:
    utterances, space = synth.generate(synth.SynthConfig(n=n, seed=0))
    out = []
    for u in utterances:
        ann = AnnotationSet(u.evaluations, space)
        labels = tuple(ann.labels)
        out.append(model.LabelledExample(u.features, labels, soft_label(labels),
                                         ann.group, ann.majority, u.uid))
    return out


def run_probes(workdir: str) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    gen = np.random.default_rng(0)

    for size, label in ((6, "n6"), (100_000, "n1e5")):
        x = gen.uniform(0.05, 50.0, size=size)
        for name in ("log_gamma", "digamma"):
            fn = getattr(specfun, name)
            reps = 200 if size == 6 else 1
            out[f"specfun.{name}.{label}.elem_per_s"] = (
                _rate(lambda: [fn(x) for _ in range(reps)], size * reps), "elem/s")

    examples = _examples(64)
    with_majority = [e for e in examples if e.group != AgreementGroup.NONE][:32]
    for kind in LossKind:
        config = LossConfig.default_for(kind)
        batch = with_majority if kind == LossKind.HARD else examples[:32]
        zs = [gen.normal(0.0, 1.0, size=5) for _ in batch]

        def loop(items):
            for ex, z in items:
                example_loss(config, z, ex.labels, ex.soft, ex.majority)

        one = [(batch[0], zs[0])] * 50
        out[f"losses.{kind.value}.b1.ex_per_s"] = (_rate(lambda: loop(one), len(one)), "ex/s")
        pairs = list(zip(batch, zs))
        out[f"losses.{kind.value}.b32.ex_per_s"] = (_rate(lambda: loop(pairs), len(pairs)), "ex/s")

    params = model.init(16, (64,), 5, 0)
    rows = gen.normal(size=(32, 16))
    grads = gen.normal(size=(32, 5))
    out["model.forward.b32.rows_per_s"] = (
        _rate(lambda: [model.forward(params, x) for x in rows], 32), "rows/s")
    out["model.backward.b32.rows_per_s"] = (
        _rate(lambda: [model.backward(params, x, g) for x, g in zip(rows, grads)], 32), "rows/s")

    n = 100_000
    probs = gen.dirichlet(np.ones(5), size=n)
    preds = [CategoricalDist(p) for p in probs]
    groups = [list(AgreementGroup)[i % 3] for i in range(n)]
    majorities = [None if g == AgreementGroup.NONE else i % 5 for i, g in enumerate(groups)]
    positive = [g != AgreementGroup.NONE for g in groups]
    scores = probs.max(axis=1)

    def report():
        metrics.pr_curve(scores, positive)
        metrics.build_report(groups, majorities, preds[::-1], preds)

    start = perf_counter()
    report()
    out["metrics.pr_report.n1e5.s"] = (perf_counter() - start, "s")

    utterances, space = synth.generate(synth.SynthConfig(n=2000, seed=0))
    records = [dataio.DatasetRecord(u.uid, "train", u.features, u.evaluations)
               for u in utterances]
    path = os.path.join(workdir, "probe.jsonl")
    out["dataio.write_dataset.rec_per_s"] = (
        _rate(lambda: dataio.write_dataset(path, space, records), len(records), 0.5), "rec/s")
    out["dataio.read_dataset.rec_per_s"] = (
        _rate(lambda: dataio.read_dataset(path), len(records), 0.5), "rec/s")
    return out
