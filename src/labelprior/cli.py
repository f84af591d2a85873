"""Command-line entry points: gen, stats, train, eval, detect, transform.

Exit codes: 0 on success, 1 on usage or configuration errors, 2 on
numerical failure (Dirichlet singularity or overflow).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from . import dataio, metrics, model, synth
from .annotations import agreement, vote_and_replace, vote_matrix
from .dirichlet import CategoricalDist, SingularityError, from_logits, predictive_mean
from .losses import LOGIT_CLAMP, LossConfig, LossKind

__all__ = ["main"]

_LOSS_NAMES = {kind.value: kind for kind in LossKind}


def _comma(kind: type, noun: str):
    """argparse type for a comma-separated list of ``kind`` values."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="labelprior",
        description="Label-ambiguity modelling with per-utterance Dirichlet priors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a synthetic dataset")
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int, default=5)
    gen.add_argument("--d", type=int, default=16)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--annotators", type=int, default=3)
    gen.add_argument("--multi-tag-prob", type=float, default=0.04)
    gen.add_argument("--noise-sigma", type=float, default=0.1)
    gen.add_argument("--group-mix", type=_comma(float, "floats"), default=(0.237, 0.513, 0.250))
    gen.add_argument("--precisions", type=_comma(float, "floats"), default=(120.0, 12.0, 5.0))
    gen.add_argument("--test-frac", type=float, default=0.2)
    gen.add_argument("--out", required=True)

    st = sub.add_parser("stats", help="print label statistics of a dataset")
    st.add_argument("--data", required=True)

    tr = sub.add_parser("train", help="train a classifier on the train split")
    tr.add_argument("--data", required=True)
    tr.add_argument("--loss", choices=sorted(_LOSS_NAMES), required=True)
    tr.add_argument("--eps1", type=float, default=None)
    tr.add_argument("--eps2", type=float, default=None)
    tr.add_argument("--lambda", dest="lam", type=float, default=None)
    tr.add_argument("--epochs", type=int, default=30)
    tr.add_argument("--lr", type=float, default=1e-2)
    tr.add_argument("--batch", type=int, default=32)
    tr.add_argument("--hidden", type=_comma(int, "integers"), default=(64,))
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument("--out", required=True)
    tr.add_argument("--log", default=None, help="training log path (default: <out>.log)")

    ev = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    ev.add_argument("--data", required=True)
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--out", required=True)

    de = sub.add_parser("detect", help="PR curves for no-majority detection")
    de.add_argument("--data", required=True)
    de.add_argument("--ckpt", required=True)
    de.add_argument("--out-prefix", required=True)

    tf = sub.add_parser("transform", help="apply vote-and-replace to a dataset")
    tf.add_argument("--data", required=True)
    tf.add_argument("--out", required=True)
    return parser


def _loss_config(args: argparse.Namespace) -> LossConfig:
    kind = _LOSS_NAMES[args.loss]
    base = LossConfig.default_for(kind)
    return LossConfig(
        kind=kind,
        eps1=base.eps1 if args.eps1 is None else args.eps1,
        eps2=base.eps2 if args.eps2 is None else args.eps2,
        lam=base.lam if args.lam is None else args.lam,
    )


def _predict_dists(
    params: model.ModelParams, features: Sequence[np.ndarray], eps2: float
) -> CategoricalDist:
    """Predictive distributions, one (N, K) batch for N feature vectors."""
    logits = np.clip(model.forward(params, features), -LOGIT_CLAMP, LOGIT_CLAMP)
    return predictive_mean(from_logits(logits, eps2))


def _cmd_gen(args: argparse.Namespace) -> int:
    config = synth.SynthConfig(
        n=args.n,
        k=args.k,
        d=args.d,
        annotators=args.annotators,
        seed=args.seed,
        group_mix=args.group_mix,
        regime_precisions=args.precisions,
        multi_tag_prob=args.multi_tag_prob,
        noise_sigma=args.noise_sigma,
    )
    if not 0.0 <= args.test_frac <= 1.0:
        raise ValueError("test-frac must lie in [0, 1]")
    utterances, space = synth.generate(config)
    n_train = round(config.n * (1.0 - args.test_frac))
    records = [
        dataio.DatasetRecord(
            uid=u.uid,
            split="train" if u.uid < n_train else "test",
            features=u.features,
            evaluations=u.evaluations,
        )
        for u in utterances
    ]
    dataio.write_dataset(args.out, space, records)
    print(synth.stats([u.evaluations for u in utterances], space).format_table())
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    space, records = dataio.read_dataset(args.data)
    print(synth.stats([rec.evaluations for rec in records], space).format_table())
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    space, records = dataio.read_dataset(args.data)
    train_records = [rec for rec in records if rec.split == "train"]
    if not train_records:
        raise ValueError(f"{args.data}: no 'train' split records")
    examples = dataio.record_to_example(train_records, space)
    config = model.TrainConfig(
        loss=_loss_config(args),
        learning_rate=args.lr,
        batch_size=args.batch,
        epochs=args.epochs,
        seed=args.seed,
        hidden=args.hidden,
    )
    params, losses = model.train(examples, config)
    dataio.write_checkpoint(args.out, params, space, config)
    dataio.write_train_log(args.log if args.log else f"{args.out}.log", losses)
    print(f"trained {config.loss.kind.value} for {config.epochs} epochs; "
          f"final mean loss {losses[-1]:.6f}")
    return 0


def _test_views(args: argparse.Namespace):
    """Label counts, agreement groups, majorities (-1 for none) and
    predictions of the test split."""
    space, records = dataio.read_dataset(args.data)
    test_records = [rec for rec in records if rec.split == "test"]
    if not test_records:
        raise ValueError(f"{args.data}: no 'test' split records")
    params, ckpt_space, config = dataio.read_checkpoint(args.ckpt)
    if ckpt_space.names != space.names:
        raise ValueError(f"{args.ckpt}: classes {list(ckpt_space.names)} differ from "
                         f"the dataset's {list(space.names)}")
    width = test_records[0].features.shape[0]
    if params.dims[0] != width:
        raise ValueError(f"{args.ckpt}: input width {params.dims[0]} differs from "
                         f"the dataset's feature width {width}")
    counts, annotators = vote_matrix([rec.evaluations for rec in test_records], space)
    preds = _predict_dists(params, [rec.features for rec in test_records], config.loss.eps2)
    return (counts, *agreement(counts, annotators), preds)


def _cmd_eval(args: argparse.Namespace) -> int:
    counts, groups, majority, preds = _test_views(args)
    soft = CategoricalDist(counts / counts.sum(axis=1, keepdims=True))
    report = metrics.build_report(groups, majority, soft, preds)
    dataio.write_report(args.out, report)
    wa, ua, aupr_maxp, aupr_ent = ("null" if v is None else f"{v:.6f}" for v in (
        report.wa, report.ua, report.aupr_maxp, report.aupr_ent))
    print(f"wa {wa}  ua {ua}  mean_kl {report.mean_kl:.6f}  "
          f"mean_entropy {report.mean_entropy:.6f}")
    print(f"aupr_maxp {aupr_maxp}  aupr_ent {aupr_ent}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    _, groups, _, preds = _test_views(args)
    maxp_curve, ent_curve, aupr_maxp, aupr_ent = metrics.detect_report(groups, preds)
    dataio.write_curve(f"{args.out_prefix}_maxp.csv", maxp_curve)
    dataio.write_curve(f"{args.out_prefix}_ent.csv", ent_curve)
    print(f"aupr_maxp {aupr_maxp:.6f}")
    print(f"aupr_ent {aupr_ent:.6f}")
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    space, records = dataio.read_dataset(args.data)
    replaced = vote_and_replace([rec.evaluations for rec in records], space)
    out_records = [dataio.DatasetRecord(rec.uid, rec.split, rec.features, evaluations)
                   for rec, evaluations in zip(records, replaced)]
    dataio.write_dataset(args.out, space, out_records)
    print(f"wrote {len(out_records)} records to {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "stats": _cmd_stats,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "detect": _cmd_detect,
    "transform": _cmd_transform,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return 0 if exit_.code in (0, None) else 1
    try:
        return _COMMANDS[args.command](args)
    except (SingularityError, OverflowError, FloatingPointError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
