"""Command-line entry points: gen, stats, train, eval, detect, transform.

Each command keeps to its arguments and files: ``synth.corpus`` builds gen's
split corpus and ``model.predict`` the predictions of eval and detect.  Exit
codes: 0 on success, 1 on usage or configuration errors, 2 on numerical
failure (a Dirichlet singularity or a non-finite logit, loss or weight).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from typing import Optional, Sequence

from . import dataio, metrics, model, synth
from .annotations import ClassSpace, Corpus
from .dirichlet import SingularityError
from .losses import LossConfig, LossKind

__all__ = ["main"]


def _comma(kind: type, noun: str):
    """argparse type for a comma-separated list of ``kind`` values."""
    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")
    return parse


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process; each ``parse_args``
    call fills a namespace of its own."""
    parser = argparse.ArgumentParser(
        prog="labelprior",
        description="Label-ambiguity modelling with per-utterance Dirichlet priors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A gen or train setting the line leaves out is absent from the namespace,
    # so its config class's default applies (see _settings).
    gen = sub.add_parser("gen", help="generate a synthetic dataset",
                         argument_default=argparse.SUPPRESS)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--k", type=int)
    gen.add_argument("--d", type=int)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--annotators", type=int)
    gen.add_argument("--multi-tag-prob", type=float)
    gen.add_argument("--noise-sigma", type=float)
    gen.add_argument("--group-mix", type=_comma(float, "floats"))
    gen.add_argument("--precisions", dest="regime_precisions", metavar="PRECISIONS",
                     type=_comma(float, "floats"))
    gen.add_argument("--test-frac", type=float)
    gen.add_argument("--out", required=True)

    st = sub.add_parser("stats", help="print label statistics of a dataset")
    st.add_argument("--data", required=True)

    tr = sub.add_parser("train", help="train a classifier on the train split",
                        argument_default=argparse.SUPPRESS)
    tr.add_argument("--data", required=True)
    tr.add_argument("--loss", choices=sorted(kind.value for kind in LossKind), required=True)
    tr.add_argument("--eps1", type=float)
    tr.add_argument("--eps2", type=float)
    tr.add_argument("--lambda", dest="lam", type=float)
    tr.add_argument("--epochs", type=int)
    tr.add_argument("--lr", dest="learning_rate", metavar="LR", type=float)
    tr.add_argument("--batch", dest="batch_size", metavar="BATCH", type=int)
    tr.add_argument("--hidden", type=_comma(int, "integers"))
    tr.add_argument("--seed", type=int)
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


def _settings(args: argparse.Namespace, config: type, **fixed) -> dict:
    """The fields of dataclass ``config`` that the line sets, then ``fixed``;
    a field the line leaves out keeps the class's default."""
    return {**{field.name: getattr(args, field.name) for field in dataclasses.fields(config)
               if hasattr(args, field.name)}, **fixed}


def _cmd_gen(args: argparse.Namespace) -> int:
    space, corpus = synth.corpus(synth.SynthConfig(**_settings(args, synth.SynthConfig)))
    dataio.write_columns(args.out, space, corpus)
    print(synth.count_stats(corpus).format_table())
    print(f"wrote {len(corpus)} records to {args.out}")
    return 0


def _records(path: str, split: Optional[str] = None) -> tuple[ClassSpace, Corpus]:
    """The class space and records of ``path``, or of its ``split`` alone; one at least."""
    space, corpus = dataio.read_dataset(path)
    if split is not None:
        corpus = corpus.select(corpus.train == (split == "train"))
    if not len(corpus):
        raise ValueError(f"{path}: no {f'{split!r} split ' if split else ''}records")
    return space, corpus


def _cmd_stats(args: argparse.Namespace) -> int:
    print(synth.count_stats(_records(args.data)[1]).format_table())
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    space, corpus = _records(args.data, "train")
    # The loss starts from its stock constants, not from LossConfig's field defaults.
    loss = dataclasses.replace(LossConfig.default_for(LossKind(args.loss)),
                               **_settings(args, LossConfig))
    config = model.TrainConfig(**_settings(args, model.TrainConfig, loss=loss))
    params, losses = model.train(corpus, config)
    dataio.write_checkpoint(args.out, params, space, config)
    dataio.write_train_log(args.log if args.log else f"{args.out}.log", losses)
    print(f"trained {config.loss.kind.value} for {config.epochs} epochs; "
          f"final mean loss {losses[-1]:.6f}")
    return 0


def _test_views(args: argparse.Namespace):
    """The test split of ``args.data`` and its (N, K) predictive probabilities
    under the checkpoint ``args.ckpt``.  A non-finite logit raises
    FloatingPointError naming the checkpoint and the utterance of its row."""
    space, test = _records(args.data, "test")
    params, ckpt_space, config = dataio.read_checkpoint(args.ckpt)
    if ckpt_space.names != space.names:
        raise ValueError(f"{args.ckpt}: classes {list(ckpt_space.names)} differ from "
                         f"the dataset's {list(space.names)}")
    width = test.features.shape[1]
    if params.dims[0] != width:
        raise ValueError(f"{args.ckpt}: input width {params.dims[0]} differs from "
                         f"the dataset's feature width {width}")
    try:
        return test, model.predict(params, test, config.loss)
    except FloatingPointError as err:
        raise FloatingPointError(f"{args.ckpt}: {err}") from err


def _cmd_eval(args: argparse.Namespace) -> int:
    test, preds = _test_views(args)
    soft = test.counts / test.counts.sum(axis=1, keepdims=True)
    report = metrics.build_report(test.groups, test.majority, soft, preds)
    dataio.write_report(args.out, report)
    # The report file's number rule: None and non-finite values print as null.
    wa, ua, mean_kl, mean_entropy, aupr_maxp, aupr_ent = map(dataio._six, (
        report.wa, report.ua, report.mean_kl, report.mean_entropy, report.aupr_maxp,
        report.aupr_ent))
    print(f"wa {wa}  ua {ua}  mean_kl {mean_kl}  mean_entropy {mean_entropy}")
    print(f"aupr_maxp {aupr_maxp}  aupr_ent {aupr_ent}")
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    test, preds = _test_views(args)
    maxp_curve, ent_curve, aupr_maxp, aupr_ent = metrics.detect_report(test.groups, preds)
    dataio.write_curve(f"{args.out_prefix}_maxp.csv", maxp_curve)
    dataio.write_curve(f"{args.out_prefix}_ent.csv", ent_curve)
    print(f"aupr_maxp {aupr_maxp:.6f}")
    print(f"aupr_ent {aupr_ent:.6f}")
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    space, corpus = _records(args.data)
    dataio.write_columns(args.out, space, corpus.replace_majorities())
    print(f"wrote {len(corpus)} records to {args.out}")
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
    try:
        args = _build_parser().parse_args(argv)
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
