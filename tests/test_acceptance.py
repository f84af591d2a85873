"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them).

Criterion 6 checks multi-tag pair discrimination on the count-based
(Polya) Dirichlet term of dpn-kl, and asserts that the per-label-mean dpn
loss cannot tell the pair apart; its docstring explains why.
"""

import contextlib
import io
import math
import time

import mpmath as mp
import numpy as np
import pytest

from labelprior import cli, dataio, metrics
from labelprior.annotations import (
    AgreementGroup,
    ClassSpace,
    AnnotationSet,
    agreement,
    soft_label,
    tag_lists,
)
from labelprior.dirichlet import CategoricalDist, DirichletParams, log_pdf
from labelprior.losses import LossConfig, LossKind, batch_loss, example_loss
from labelprior.model import backward, forward, init
from labelprior.specfun import digamma, log_gamma

from corpora import corpus_of

mp.mp.dps = 50


def announce(number: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    return ok


def quiet_cli(args) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(args)


def one_hot(index, k):
    label = np.zeros(k)
    label[index] = 1.0
    return label


def test_criterion_1_special_functions():
    start = time.perf_counter()
    checks = [
        abs(digamma(1.0) - (-0.5772156649)) <= 1e-9,
        abs(digamma(0.5) - (-1.9635100260)) <= 1e-9,
        abs(log_gamma(0.5) - 0.5723649429) <= 1e-9,
    ]
    rng = np.random.default_rng(42)
    x = rng.uniform(0.0, 100.0, 1000) + 1e-12
    checks.append(np.abs(log_gamma(x + 1) - log_gamma(x) - np.log(x)).max() <= 1e-10)
    checks.append(np.abs(digamma(x + 1) - digamma(x) - 1.0 / x).max() <= 1e-10)
    elapsed = time.perf_counter() - start
    checks.append(elapsed < 1.0)
    ok = all(checks)
    assert announce(1, ok, f"special-function values and recurrences ({elapsed:.2f}s)")


def test_criterion_2_dirichlet_density():
    start = time.perf_counter()
    ok = True
    for k in (2, 3, 5, 8):
        mu = CategoricalDist(np.full(k, 1.0 / k))
        value = log_pdf(DirichletParams(np.ones(k)), mu)
        ok &= abs(value - math.log(math.factorial(k - 1))) <= 1e-12

    rng = np.random.default_rng(42)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        alpha = rng.uniform(0.1, 10.0, size=k)
        mu = rng.dirichlet(np.ones(k) * 2.0)
        mu = np.clip(mu, 1e-6, None)
        mu = mu / mu.sum()
        value = log_pdf(DirichletParams(alpha), CategoricalDist(mu))
        reference = mp.loggamma(mp.fsum([mp.mpf(float(a)) for a in alpha]))
        for a, m in zip(alpha, mu):
            reference -= mp.loggamma(mp.mpf(float(a)))
            reference += (mp.mpf(float(a)) - 1) * mp.log(mp.mpf(float(m)))
        ok &= abs(value - float(reference)) <= 1e-10
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    assert announce(2, ok, f"log-density vs arbitrary-precision oracle ({elapsed:.2f}s)")


def _loss_value_fn(kind, labels, soft, majority):
    config = LossConfig.default_for(kind)

    def fn(z):
        return example_loss(config, z, labels, soft, majority)[0]

    def grad(z):
        return example_loss(config, z, labels, soft, majority)[1]

    return fn, grad


def _fd(fn, z, step=1e-5):
    out = np.zeros_like(z)
    for i in range(z.shape[0]):
        up, dn = z.copy(), z.copy()
        up[i] += step
        dn[i] -= step
        out[i] = (fn(up) - fn(dn)) / (2 * step)
    return out


def test_criterion_3_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    ok = True

    for kind in LossKind:
        for trial in range(100):
            k = 2 if trial % 2 == 0 else 5
            z = rng.normal(0.0, 1.5, size=k)
            classes = [int(rng.integers(0, k)) for _ in range(int(rng.integers(1, 5)))]
            labels = [one_hot(c, k) for c in classes]
            soft = soft_label(labels)
            majority = int(np.bincount(classes, minlength=k).argmax())
            fn, grad = _loss_value_fn(kind, labels, soft, majority)
            analytic = grad(z)
            numeric = _fd(fn, z)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
            ok &= bool(rel.max() <= 1e-4)

    # End to end: the loss gradient propagated to one random network
    # parameter per instance matches finite differences.
    for kind in LossKind:
        for trial in range(100):
            k = 2 if trial % 2 == 0 else 5
            params = init(4, [6], k, seed=trial)
            x = rng.normal(size=4)
            classes = [int(rng.integers(0, k)) for _ in range(3)]
            labels = [one_hot(c, k) for c in classes]
            soft = soft_label(labels)
            majority = int(np.bincount(classes, minlength=k).argmax())
            config = LossConfig.default_for(kind)

            def net_loss():
                z = forward(params, x)
                return example_loss(config, z, labels, soft, majority)

            grads = backward(params, x, net_loss()[1])
            layer = int(rng.integers(0, len(params.weights)))
            arr = params.weights[layer] if rng.random() < 0.8 else params.biases[layer]
            g = grads[layer][0] if arr is params.weights[layer] else grads[layer][1]
            flat = int(rng.integers(0, arr.size))
            idx = np.unravel_index(flat, arr.shape)
            orig = arr[idx]
            step = 1e-5
            arr[idx] = orig + step
            up = net_loss()[0]
            arr[idx] = orig - step
            down = net_loss()[0]
            arr[idx] = orig
            numeric = (up - down) / (2 * step)
            rel = abs(g[idx] - numeric) / max(abs(numeric), 1e-8)
            ok &= bool(rel <= 1e-4)

    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    assert announce(3, ok, f"analytic vs numeric gradients, 100 instances/loss ({elapsed:.2f}s)")


def test_criterion_4_label_logic():
    space = ClassSpace(("A", "B", "C"))
    A, B, C = 0, 1, 2
    rows = [
        ([(A,), (A,), (A,)], AgreementGroup.FULL, A),
        ([(A,), (A,), (B,)], AgreementGroup.MAJORITY, A),
        ([(A,), (A, B), (C,)], AgreementGroup.MAJORITY, A),
        ([(A,), (B,), (C,)], AgreementGroup.NONE, None),
        ([(A,), (A, B), (B, C)], AgreementGroup.NONE, None),
        ([(A,), (A,), (B,), (C,)], AgreementGroup.MAJORITY, A),
    ]
    annotation_sets = [AnnotationSet(evals, space) for evals, _, _ in rows]
    ok = all((ann.group, ann.majority) == (group, majority)
             for ann, (_, group, majority) in zip(annotation_sets, rows))
    # The batch rule classifies the whole table in one call, row for row.
    table = corpus_of([evals for evals, _, _ in rows])
    groups, majorities = agreement(table.counts, table.annotators)
    ok &= list(groups) == [group for _, group, _ in rows]
    ok &= list(majorities) == [-1 if m is None else m for _, _, m in rows]
    # Tied two-vote counts from multi-tags stay without a majority.
    ok &= AnnotationSet([(A,), (A, B), (B, C)], space).group == AgreementGroup.NONE
    ok &= corpus_of([[(A,), (A, B), (B, C)]]).counts.tolist() == [[2, 2, 1]]

    # Vote-and-replace rows: A A A B C collapses to the majority, A B C stays.
    out = corpus_of([[[A]] * 3 + [[B], [C]], [[A], [B], [C]]]).replace_majorities()
    collapsed, untouched = tag_lists(out.tags, out.tags_per_eval, out.annotators)
    ok &= collapsed == [[A]] * 5
    ok &= untouched == [[A], [B], [C]]

    # Soft label of A, A, B is exact thirds.
    soft = soft_label([one_hot(A, 3), one_hot(A, 3), one_hot(B, 3)])
    ok &= bool(np.allclose(soft.p, [2.0 / 3.0, 1.0 / 3.0, 0.0], atol=1e-15))
    assert announce(4, ok, "agreement table rows, vote-and-replace, soft label")


def _brute_force_ap(scores, positives, higher):
    n_pos = sum(positives)
    thresholds = sorted(set(scores), reverse=higher)
    area, prev_recall = 0.0, 0.0
    for t in thresholds:
        predicted = [(s >= t) if higher else (s <= t) for s in scores]
        tp = sum(1 for p, y in zip(predicted, positives) if p and y)
        fp = sum(1 for p, y in zip(predicted, positives) if p and not y)
        area += (tp / n_pos - prev_recall) * (tp / (tp + fp))
        prev_recall = tp / n_pos
    return area


def test_criterion_5_aupr_oracle():
    rng = np.random.default_rng(42)
    ok = True
    trials = 0
    while trials < 50:
        n = int(rng.integers(4, 201))
        scores = np.round(rng.random(n), 2)
        positives = (rng.random(n) < rng.uniform(0.2, 0.8)).tolist()
        if all(positives) or not any(positives):
            continue
        trials += 1
        higher = bool(rng.integers(0, 2))
        got = metrics.aupr(metrics.pr_curve(scores, positives, higher_is_positive=higher))
        ok &= abs(got - _brute_force_ap(list(scores), positives, higher)) <= 1e-9
        # Monotone transforms leave the area unchanged.
        for transform in (lambda s: 2.0 * s + 0.5, np.exp):
            same = metrics.aupr(
                metrics.pr_curve(transform(scores), positives, higher_is_positive=higher)
            )
            ok &= abs(same - got) <= 1e-12
    assert announce(5, ok, "average precision vs brute-force enumeration, 50 instances")


def test_criterion_6_multitag_pair_discrimination():
    """The Dirichlet label likelihood separates a multi-tag pair that the
    soft label collapses.

    The tag sets {A},{B},{C} give the label counts (1, 1, 1), one label
    per class, and the sets {A,B,C},{A,B,C},{A,B,C} give (3, 3, 3).  Over
    100 logit draws z ~ N(0, 1.5^2) three checks must hold:

    1. The soft-label KL is identical in both cases: both soft labels are
       uniform thirds.
    2. The stock dpn-kl objective differs on at least 95 draws.  Its KL
       half is identical, so the whole gap comes from the Polya term,
       whose count vector (1, 1, 1) versus (3, 3, 3) records how many
       labels were seen.
    3. The dpn loss (eps1 = 1e-2, eps2 = 1e-8) is identical in both cases.
       The second case's labels are an exact threefold replication of the
       first's, and any mean of per-label terms is invariant under such
       replication, so no logit vector or smoothing constant can separate
       them.  This boundary is asserted rather than hidden.
    """
    single = [(i,) for i in range(3)]
    triple = [(0, 1, 2) for _ in range(3)]
    counts = corpus_of([single, triple]).counts

    def pair(kind, z):
        # Both cases as one batch of two rows with the same logits.
        values, _ = batch_loss(LossConfig.default_for(kind), np.array([z, z]), counts)
        return values

    rng = np.random.default_rng(42)
    kl_identical = 0
    dpn_kl_different = 0
    dpn_identical = 0
    for _ in range(100):
        z = rng.normal(0.0, 1.5, size=3)
        kl_a, kl_b = pair(LossKind.SOFT_KL, z)
        if abs(kl_a - kl_b) <= 1e-12:
            kl_identical += 1
        dpn_kl_a, dpn_kl_b = pair(LossKind.DPN_KL, z)
        if abs(dpn_kl_a - dpn_kl_b) > 1e-9:
            dpn_kl_different += 1
        dpn_a, dpn_b = pair(LossKind.DPN, z)
        if abs(dpn_a - dpn_b) <= 1e-12:
            dpn_identical += 1
    ok = kl_identical == 100 and dpn_kl_different >= 95 and dpn_identical == 100
    assert announce(
        6,
        ok,
        f"multi-tag pair: kl identical {kl_identical}/100, "
        f"dpn-kl different {dpn_kl_different}/100 (needs >= 95), "
        f"dpn identical {dpn_identical}/100",
    )


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Seed-42 synthetic pipeline: gen, four trainings, transform, evals."""
    base = tmp_path_factory.mktemp("pipeline")
    start = time.perf_counter()
    data = base / "data.jsonl"
    assert quiet_cli(["gen", "--n", "2000", "--k", "5", "--d", "16", "--seed", "42",
                     "--out", str(data)]) == 0

    transformed = base / "data_vr.jsonl"
    assert quiet_cli(["transform", "--data", str(data), "--out", str(transformed)]) == 0

    reports = {}
    for name, loss, train_data in (
        ("hard", "hard", data),
        ("soft", "soft", data),
        ("dpn-kl", "dpn-kl", data),
        ("dpn-kl2", "dpn-kl", transformed),
    ):
        ckpt = base / f"{name}.json"
        assert quiet_cli(["train", "--data", str(train_data), "--loss", loss,
                         "--epochs", "30", "--seed", "0", "--out", str(ckpt)]) == 0
        report_path = base / f"report_{name}.json"
        # Evaluation always runs against the original test annotations.
        assert quiet_cli(["eval", "--data", str(data), "--ckpt", str(ckpt),
                         "--out", str(report_path)]) == 0
        reports[name] = dataio.read_report(report_path)
    elapsed = time.perf_counter() - start
    return reports, elapsed


def test_criterion_7a_hard_sharper_than_soft(pipeline):
    reports, _ = pipeline
    ok = reports["hard"]["mean_entropy"] < reports["soft"]["mean_entropy"]
    assert announce(
        7, ok,
        f"(a) hard entropy {reports['hard']['mean_entropy']:.4f} < "
        f"soft {reports['soft']['mean_entropy']:.4f}",
    )


def test_criterion_7b_entropy_grows_with_ambiguity(pipeline):
    reports, _ = pipeline
    ok = True
    for name in ("soft", "dpn-kl"):
        groups = reports[name]["per_group"]
        ok &= groups["none"]["mean_entropy"] >= groups["full"]["mean_entropy"]
    assert announce(
        7, ok,
        "(b) no-agreement entropy >= full-agreement entropy for soft and dpn-kl",
    )


def test_criterion_7c_dpn_kl_detects_better(pipeline):
    reports, _ = pipeline
    ok = reports["dpn-kl"]["aupr_ent"] >= reports["hard"]["aupr_ent"]
    assert announce(
        7, ok,
        f"(c) dpn-kl AUPR(ent) {reports['dpn-kl']['aupr_ent']:.4f} >= "
        f"hard {reports['hard']['aupr_ent']:.4f}",
    )


def test_criterion_7d_vote_and_replace_sharpens(pipeline):
    reports, _ = pipeline
    ok = reports["dpn-kl2"]["mean_entropy"] < reports["dpn-kl"]["mean_entropy"]
    assert announce(
        7, ok,
        f"(d) dpn-kl2 entropy {reports['dpn-kl2']['mean_entropy']:.4f} < "
        f"dpn-kl {reports['dpn-kl']['mean_entropy']:.4f}",
    )


def test_criterion_7_runtime(pipeline):
    _, elapsed = pipeline
    ok = elapsed < 120.0
    assert announce(7, ok, f"(runtime) full pipeline {elapsed:.1f}s < 120s")


def test_criterion_8_byte_identical_reruns(tmp_path):
    ok = True
    outputs = {}
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        data = d / "data.jsonl"
        quiet_cli(["gen", "--n", "100", "--k", "4", "--d", "8", "--seed", "9",
                  "--out", str(data)])
        ckpt = d / "model.json"
        quiet_cli(["train", "--data", str(data), "--loss", "dpn-kl", "--epochs", "2",
                  "--seed", "3", "--out", str(ckpt)])
        report = d / "report.json"
        quiet_cli(["eval", "--data", str(data), "--ckpt", str(ckpt), "--out", str(report)])
        quiet_cli(["detect", "--data", str(data), "--ckpt", str(ckpt),
                  "--out-prefix", str(d / "curves")])
        vr = d / "vr.jsonl"
        quiet_cli(["transform", "--data", str(data), "--out", str(vr)])
        outputs[run] = {
            name: (d / name).read_bytes()
            for name in ("data.jsonl", "model.json", "model.json.log",
                         "report.json", "curves_maxp.csv", "curves_ent.csv", "vr.jsonl")
        }
    for name in outputs["one"]:
        ok &= outputs["one"][name] == outputs["two"][name]
    assert announce(8, ok, "gen/train/eval/detect/transform reruns byte-identical")
