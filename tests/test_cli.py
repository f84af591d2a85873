"""End-to-end CLI tests: every command, determinism of outputs, exit
codes, and the transform pipeline."""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import labelprior
from labelprior import annotations, cli, dataio, model, synth
from labelprior.annotations import AgreementGroup, AnnotationSet, ClassSpace
from labelprior.dirichlet import CategoricalDist, from_logits, predictive_mean
from labelprior.losses import LossConfig, LossKind
from labelprior.metrics import entropy as dist_entropy
from labelprior.model import LabelledExample, TrainConfig, forward, init

from corpora import corpus_of

# gen's flags for a crowd corpus of 1,000 utterances, more than one block of
# the generator and of the dataset writer.
CROWD_BLOCKS = ["--n", 1000, "--k", 10, "--d", 32, "--annotators", 20, "--multi-tag-prob", 0.2,
                "--precisions", "300,40,15"]


def run(*args):
    return cli.main([str(a) for a in args])


@pytest.fixture()
def small_dataset(tmp_path):
    path = tmp_path / "data.jsonl"
    code = run("gen", "--n", 120, "--k", 4, "--d", 8, "--seed", 42,
               "--test-frac", 0.25, "--out", path)
    assert code == 0
    return path


class TestGen:
    def test_record_count(self, small_dataset):
        _, corpus = dataio.read_dataset(small_dataset)
        assert len(corpus) == 120
        assert np.count_nonzero(~corpus.train) == 30

    def test_rerun_byte_identical(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            assert run("gen", "--n", 60, "--k", 3, "--d", 6, "--seed", 7,
                       "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_k_larger_than_d_is_usage_error(self, tmp_path):
        code = run("gen", "--n", 10, "--k", 5, "--d", 3,
                   "--out", tmp_path / "x.jsonl")
        assert code == 1

    def test_default_precisions_admit_ten_classes(self, tmp_path):
        # The default precision 5 is below k = 10, so it rises to 10.
        assert run("gen", "--n", 100, "--k", 10, "--d", 32, "--annotators", 20,
                   "--multi-tag-prob", 0.2, "--out", tmp_path / "d.jsonl") == 0

    def test_explicit_precisions_below_k_are_usage_error(self, tmp_path, capsys):
        assert run("gen", "--n", 10, "--k", 6, "--d", 8, "--precisions", "120,12,5",
                   "--out", tmp_path / "d.jsonl") == 1
        assert capsys.readouterr().err == (
            "error: regime_precisions must be finite and > k - 1: (120.0, 12.0, 5.0)\n")

    def test_overflowing_features_are_numerical_failure(self, tmp_path, capsys):
        # sigma times any normal draw beyond about 1.8 is past the float64 range.
        out = tmp_path / "d.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("gen", "--n", 50, "--noise-sigma", "1e308", "--out", out) == 2
        assert capsys.readouterr().err == "numerical failure: utterance 1: features overflow\n"
        assert not out.exists()

    def test_prints_stats(self, tmp_path, capsys):
        run("gen", "--n", 30, "--k", 3, "--d", 6, "--seed", 1,
            "--out", tmp_path / "d.jsonl")
        out = capsys.readouterr().out
        assert "Number of total utterances" in out
        assert "30" in out

    # sha256 of the file and of stdout, recorded before gen drew its corpus
    # as columns, so that the bytes stay pinned across versions.
    @pytest.mark.parametrize("args, file_digest, stdout_digest", [
        (["--n", 200],
         "532f298fe4e90aec2d23f1f7efac01940977abc655290e4091c8005ddabdb8e7",
         "18cd5d77abbf203737a7a4722717fef00003a96bd7cccf21a8937e3fcf600467"),
        (["--n", 100, "--k", 10, "--d", 32, "--annotators", 20, "--multi-tag-prob", 0.2,
          "--precisions", "300,40,15"],
         "6380dc66b07d7cb5c822434761510c072a10e938d3760677514f4997e9214345",
         "059306b2e5bc9d83ef978313ae0793aa3c37c24a12476fa5aac734dc76e601d0"),
        (["--n", 100, "--annotators", 1, "--multi-tag-prob", 0],
         "ba6c28f57b0b31c9e245ec42748a3f44829e137a0d020313d75ca607de68cded",
         "e60a629985ebac2a751b1c1c4b0d7e8cc02b590ddcde86c7b3f100d2944f11c2"),
        # Spans several blocks of the generator and of the writer; recorded
        # while both still worked one utterance at a time.
        (CROWD_BLOCKS,
         "e8536dd4dcf8701c14aff287292ab9f786e4d696dc67040db03ac9f15c9007ae",
         "464e29ac2977939fc2e039ac8db7be5c1029085eb7d6ccf1ca59c9728f5fc375"),
    ], ids=["paper", "crowd", "one-annotator", "crowd-blocks"])
    def test_bytes_pinned(self, tmp_path, monkeypatch, capsys, args, file_digest,
                          stdout_digest):
        monkeypatch.chdir(tmp_path)
        assert run("gen", *args, "--seed", 42, "--out", "data.jsonl") == 0
        out = capsys.readouterr().out
        assert hashlib.sha256((tmp_path / "data.jsonl").read_bytes()).hexdigest() == file_digest
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
        # The table is the one stats prints for the file gen wrote.
        assert run("stats", "--data", "data.jsonl") == 0
        assert out.splitlines()[:8] == capsys.readouterr().out.splitlines()


class TestStats:
    def test_matches_gen_output(self, small_dataset, capsys):
        assert run("stats", "--data", small_dataset) == 0
        out = capsys.readouterr().out
        assert "Number of total evaluations" in out

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run("stats", "--data", tmp_path / "nope.jsonl") == 1


def rewrite_record(path, tmp_path, index, edit):
    """Copy of a dataset with ``edit`` applied to record ``index`` (0-based)."""
    lines = path.read_text().splitlines()
    rec = json.loads(lines[index + 1])
    edit(rec)
    lines[index + 1] = json.dumps(rec)
    out = tmp_path / "bad.jsonl"
    out.write_text("\n".join(lines) + "\n")
    return out


class TestTrain:
    @pytest.mark.parametrize("loss", ["hard", "soft", "dpn", "dpn-kl"])
    def test_all_losses_run(self, small_dataset, tmp_path, loss):
        ckpt = tmp_path / f"{loss}.json"
        code = run("train", "--data", small_dataset, "--loss", loss,
                   "--epochs", 3, "--seed", 11, "--out", ckpt)
        assert code == 0
        assert ckpt.exists()
        assert (tmp_path / f"{loss}.json.log").exists()

    def test_rerun_byte_identical(self, small_dataset, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run("train", "--data", small_dataset, "--loss", "dpn-kl",
                       "--epochs", 3, "--seed", 5, "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()
        assert (tmp_path / "a.json.log").read_bytes() == (tmp_path / "b.json.log").read_bytes()

    # sha256 of a paper-shape checkpoint holding model.init's seed-42 weights
    # under each loss's trained header, recorded while write_checkpoint still
    # sent every weight through json.dumps(doc, indent=1).  Trained weights and
    # logs are not pinned: their last bits follow the host's SIMD exp and log
    # and its BLAS kernel, while init's uniform draws round the same everywhere.
    @pytest.mark.parametrize("loss, digest", [
        ("hard", "cf1eccee5db2270109fbce0d1f73730857b2a093c04d101a41a3189b84241ccf"),
        ("soft", "d28d196b42d99bc286739949a79901c3ed281ea537fe0bdab9105b4b69a0940e"),
        ("dpn", "7ffad73b14c8dd82e6f2cfa68cbd69fbab3802a86c252a01ce3abd5c6b01ae6f"),
        ("dpn-kl", "105dd7be0e8b5a4cb995872e8f88ce6a20cb47ddad2d3b1568841078f120b014"),
    ])
    def test_bytes_pinned(self, tmp_path, loss, digest):
        data, ckpt = tmp_path / "data.jsonl", tmp_path / "m.json"
        assert run("gen", "--n", 2000, "--seed", 42, "--out", data) == 0
        assert run("train", "--data", data, "--loss", loss, "--epochs", 3, "--seed", 42,
                   "--out", ckpt) == 0
        trained = ckpt.read_text()
        # The trained checkpoint is the indent=1 dump of its own document.
        assert trained == json.dumps(json.loads(trained), indent=1) + "\n"
        _, space, config = dataio.read_checkpoint(ckpt)
        dataio.write_checkpoint(ckpt, init(16, (64,), 5, seed=42), space, config)
        assert hashlib.sha256(ckpt.read_bytes()).hexdigest() == digest

    # alpha0 of the dpn head is at most K*(e^60 + eps2), which overflows for
    # eps2 >= 3.595e307 at K = 5; below that bound training itself diverges.
    @pytest.mark.parametrize("eps2, code, err", [
        ("3e307", 2, "numerical failure: epoch 0, batch 0, utterance 2: non-finite loss\n"),
        ("4e307", 1, "error: eps2 must keep K*(e^60 + eps2) finite, so lie below 3.595e+307 "
                     "for K = 5, got 4e+307\n"),
        ("1e308", 1, "error: eps2 must keep K*(e^60 + eps2) finite, so lie below 3.595e+307 "
                     "for K = 5, got 1e+308\n"),
    ], ids=["3e307", "4e307", "1e308"])
    def test_eps2_overflowing_alpha0_exits_naming_it(self, tmp_path, capsys, eps2, code, err):
        data, out = tmp_path / "data.jsonl", tmp_path / "m.json"
        assert run("gen", "--n", 200, "--seed", 1, "--out", data) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("train", "--data", data, "--loss", "dpn", "--eps2", eps2,
                       "--out", out) == code
        assert capsys.readouterr().err == err
        assert not out.exists()

    @pytest.mark.parametrize("kind", list(LossKind), ids=lambda kind: kind.value)
    def test_line_without_settings_trains_with_the_config_defaults(self, small_dataset,
                                                                   tmp_path, kind):
        ckpt = tmp_path / "m.json"
        assert run("train", "--data", small_dataset, "--loss", kind.value, "--out", ckpt) == 0
        assert dataio.read_checkpoint(ckpt)[2] == TrainConfig(LossConfig.default_for(kind))

    @pytest.mark.parametrize("loss", ["hard", "soft", "dpn", "dpn-kl"])
    def test_log_has_one_line_per_epoch(self, small_dataset, tmp_path, loss):
        ckpt = tmp_path / "m.json"
        run("train", "--data", small_dataset, "--loss", loss,
            "--epochs", 4, "--out", ckpt)
        lines = (tmp_path / "m.json.log").read_text().splitlines()
        assert len(lines) == 5  # header + 4 epochs
        for line in lines[1:]:
            value = line.split(",", 1)[1]
            assert "np." not in value
            assert math.isfinite(float(value))

    @pytest.mark.parametrize("flag, loss", [("--lambda", "hard"), ("--lambda", "soft"),
                                            ("--lambda", "dpn"), ("--eps1", "dpn-kl"),
                                            ("--eps2", "dpn-kl"), ("--eps2", "soft")])
    def test_constant_the_loss_ignores_is_usage_error(
        self, small_dataset, tmp_path, capsys, flag, loss
    ):
        value = 5 if flag == "--lambda" else 1e-3
        code = run("train", "--data", small_dataset, "--loss", loss, flag, value,
                   "--epochs", 1, "--out", tmp_path / "m.json")
        assert code == 1
        assert "only to the" in capsys.readouterr().err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: rec.pop("features"), "features"),
        (lambda rec: rec.pop("id"), "id"),
        (lambda rec: rec.update(features="0.5"), "feature shape"),
        (lambda rec: rec.update(evaluations=["A", "B"]), "list of class names"),
        # ordered_tags's rule, named before the line's feature checks as its siblings are.
        (lambda rec: rec.update(evaluations=[]),
         "line 5: bad record: ValueError('at least one evaluation is required')"),
        (lambda rec: rec["features"].__setitem__(0, True), "features must be JSON numbers"),
        (lambda rec: rec["features"].__setitem__(1, "0.12"), "features must be JSON numbers"),
    ])
    def test_malformed_record_is_data_error(self, small_dataset, tmp_path, capsys,
                                            edit, message):
        bad = rewrite_record(small_dataset, tmp_path, 3, edit)
        code = run("train", "--data", bad, "--loss", "soft", "--epochs", 1,
                   "--out", tmp_path / "m.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "line 5" in err and message in err

    @pytest.mark.parametrize("nan", [float("nan"), "nan", float("inf")])
    def test_non_finite_features_are_data_error(self, small_dataset, tmp_path, capsys, nan):
        def poison(rec):
            rec["features"][2] = nan

        bad = rewrite_record(small_dataset, tmp_path, 5, poison)
        code = run("train", "--data", bad, "--loss", "soft", "--epochs", 1,
                   "--out", tmp_path / "m.json")
        assert code == 1
        assert "line 7: non-finite feature" in capsys.readouterr().err

    def test_unknown_loss_is_usage_error(self, small_dataset, tmp_path):
        assert run("train", "--data", small_dataset, "--loss", "mse",
                   "--out", tmp_path / "m.json") == 1

    def test_singularity_is_numerical_failure(self, small_dataset, tmp_path, capsys):
        # dpn without label smoothing hits the density singularity as soon
        # as a sub-unit concentration meets a zero label component.
        code = run("train", "--data", small_dataset, "--loss", "dpn",
                   "--eps1", 0, "--epochs", 1, "--out", tmp_path / "m.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "epoch 0" in err and "utterance" in err

    def test_eps1_beyond_its_bound_is_usage_error(self, tmp_path, capsys):
        # dpn smooths a one-hot label to eps1 + (1 - K*eps1)*label, which needs
        # eps1 < 1/(K-1): 0.25 for K = 5.
        data = tmp_path / "k5.jsonl"
        assert run("gen", "--n", 40, "--k", 5, "--d", 8, "--seed", 3, "--out", data) == 0
        capsys.readouterr()
        code = run("train", "--data", data, "--loss", "dpn", "--eps1", 0.3, "--epochs", 1,
                   "--out", tmp_path / "m.json")
        assert code == 1
        assert capsys.readouterr().err == (
            "error: eps1 must lie in [0, 1/(K-1)) = [0, 0.25)\n")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("loss", ["soft", "dpn-kl"])
    def test_divergence_is_numerical_failure(self, small_dataset, tmp_path, capsys, loss):
        code = run("train", "--data", small_dataset, "--loss", loss, "--lr", 1e300,
                   "--epochs", 1, "--out", tmp_path / "m.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "utterance" in err and "non-finite" in err
        assert not (tmp_path / "m.json").exists()

    def test_negative_e_notation_rate_joined_by_equals_is_checked(
        self, small_dataset, tmp_path, capsys
    ):
        # Apart, argparse reads "-1e-3" as an option; joined, the value reaches the check.
        code = run("train", "--data", small_dataset, "--loss", "soft", "--lr=-1e-3",
                   "--epochs", 1, "--out", tmp_path / "m.json")
        assert code == 1
        assert "learning_rate must be finite and >= 0" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [small_dataset]

    @pytest.mark.parametrize("edit, message", [
        (lambda rec: rec.update(split="Train"), "split 'Train'"),
        (lambda rec: rec.update(id=0), "id 0 repeats the id on line 2"),
    ])
    def test_bad_split_or_duplicate_id_is_data_error(self, small_dataset, tmp_path, capsys,
                                                      edit, message):
        bad = rewrite_record(small_dataset, tmp_path, 4, edit)
        code = run("train", "--data", bad, "--loss", "soft", "--epochs", 1,
                   "--out", tmp_path / "m.json")
        assert code == 1
        err = capsys.readouterr().err
        assert "line 6" in err and message in err


def widen_last_layer(doc):
    """One more output unit than the checkpoint has class names."""
    last = doc["layers"][-1]
    for row in last["weights"]:
        row.append(0.0)
    last["bias"].append(0.0)
    doc["dims"]["output"] += 1


class TestEval:
    def test_report_fields_and_ranges(self, small_dataset, tmp_path):
        ckpt = tmp_path / "m.json"
        report_path = tmp_path / "report.json"
        run("train", "--data", small_dataset, "--loss", "dpn-kl",
            "--epochs", 5, "--seed", 2, "--out", ckpt)
        assert run("eval", "--data", small_dataset, "--ckpt", ckpt,
                   "--out", report_path) == 0
        doc = dataio.read_report(report_path)
        k = 4
        assert 0.0 <= doc["wa"] <= 1.0
        assert 0.0 <= doc["ua"] <= 1.0
        assert 0.0 <= doc["mean_entropy"] <= math.log(k) + 1e-9
        assert 0.0 < doc["aupr_maxp"] <= 1.0
        assert 0.0 < doc["aupr_ent"] <= 1.0
        counts = sum(doc["per_group"][g]["count"] for g in ("full", "majority", "none"))
        assert counts == 30

    def test_zero_weight_model_is_uniform(self, small_dataset, tmp_path):
        ckpt = tmp_path / "zero.json"
        space, _ = dataio.read_dataset(small_dataset)
        params = init(8, [4], 4, seed=0)
        for w in params.weights:
            w[:] = 0.0
        config = TrainConfig(loss=LossConfig(LossKind.HARD), hidden=(4,))
        dataio.write_checkpoint(ckpt, params, space, config)
        report_path = tmp_path / "report.json"
        assert run("eval", "--data", small_dataset, "--ckpt", ckpt,
                   "--out", report_path) == 0
        doc = dataio.read_report(report_path)
        # Report values carry six decimals; the underlying mean is ln 4.
        assert doc["mean_entropy"] == pytest.approx(math.log(4), abs=1e-6)
        params, _, config = dataio.read_checkpoint(ckpt)
        corpus = dataio.read_dataset(small_dataset)[1]
        preds = model.predict(params, corpus.select(~corpus.train), config.loss)
        assert preds.shape == (30, 4)
        assert (dist_entropy(preds) == math.log(4)).all()

    def test_group_counts_match_dataset(self, small_dataset, tmp_path):
        # With every record in the test split, the per-group counts of the
        # report equal the corpus statistics.
        full_test = tmp_path / "all_test.jsonl"
        space, corpus = dataio.read_dataset(small_dataset)
        tag_lists = list(annotations.tag_lists(corpus.tags, corpus.tags_per_eval,
                                               corpus.annotators))
        dataio.write_columns(full_test, space,
                             dataclasses.replace(corpus, train=np.zeros(len(corpus), dtype=bool)))
        ckpt = tmp_path / "m.json"
        run("train", "--data", small_dataset, "--loss", "soft", "--epochs", 2,
            "--out", ckpt)
        report_path = tmp_path / "report.json"
        run("eval", "--data", full_test, "--ckpt", ckpt, "--out", report_path)
        doc = dataio.read_report(report_path)
        groups = [AnnotationSet(evs, space).group for evs in tag_lists]
        for name, group in (("full", AgreementGroup.FULL),
                            ("majority", AgreementGroup.MAJORITY),
                            ("none", AgreementGroup.NONE)):
            assert doc["per_group"][name]["count"] == sum(1 for g in groups if g == group)

    def test_class_mismatch_errors(self, small_dataset, tmp_path):
        other = tmp_path / "other.jsonl"
        run("gen", "--n", 20, "--k", 3, "--d", 8, "--seed", 1, "--out", other)
        ckpt = tmp_path / "m.json"
        run("train", "--data", other, "--loss", "soft", "--epochs", 1, "--out", ckpt)
        assert run("eval", "--data", small_dataset, "--ckpt", ckpt,
                   "--out", tmp_path / "r.json") == 1

    def test_feature_width_mismatch_names_checkpoint(self, small_dataset, tmp_path, capsys):
        wide = tmp_path / "wide.jsonl"
        run("gen", "--n", 40, "--k", 4, "--d", 16, "--seed", 1, "--out", wide)
        ckpt = tmp_path / "m.json"
        run("train", "--data", wide, "--loss", "soft", "--epochs", 1, "--out", ckpt)
        capsys.readouterr()
        for command in (["eval", "--out", tmp_path / "r.json"],
                        ["detect", "--out-prefix", tmp_path / "c"]):
            assert run(*command, "--data", small_dataset, "--ckpt", ckpt) == 1
            assert capsys.readouterr().err.startswith(
                f"error: {ckpt}: input width 16 differs from the dataset's feature width 8")

    def test_missing_test_split_errors(self, tmp_path):
        data = tmp_path / "train_only.jsonl"
        run("gen", "--n", 20, "--k", 3, "--d", 4, "--seed", 1,
            "--test-frac", 0.0, "--out", data)
        ckpt = tmp_path / "m.json"
        run("train", "--data", data, "--loss", "soft", "--epochs", 1, "--out", ckpt)
        assert run("eval", "--data", data, "--ckpt", ckpt,
                   "--out", tmp_path / "r.json") == 1

    @pytest.mark.parametrize("test_votes, null_fields, missing", [
        # One single-tag annotator: every utterance has full agreement.
        (None, ("aupr_maxp", "aupr_ent"), "without a majority label"),
        # Three annotators, three classes: no test utterance has a majority.
        (((0,), (1,), (2,)), ("wa", "ua", "aupr_maxp", "aupr_ent"), "with a majority label"),
    ])
    def test_missing_detection_class_writes_null(self, tmp_path, capsys, test_votes,
                                                 null_fields, missing):
        data = tmp_path / "data.jsonl"
        run("gen", "--n", 200, "--seed", 3, "--annotators", 1, "--multi-tag-prob", 0,
            "--out", data)
        if test_votes:
            space, corpus = dataio.read_dataset(data)
            tag_lists = annotations.tag_lists(corpus.tags, corpus.tags_per_eval,
                                              corpus.annotators)
            dataio.write_columns(data, space, corpus_of(
                [evs if train else test_votes for evs, train in zip(tag_lists, corpus.train)],
                k=space.k, features=corpus.features, train=corpus.train, ids=corpus.ids))
        ckpt = tmp_path / "m.json"
        assert run("train", "--data", data, "--loss", "soft", "--epochs", 1, "--out", ckpt) == 0
        report_path = tmp_path / "report.json"
        assert run("eval", "--data", data, "--ckpt", ckpt, "--out", report_path) == 0
        doc = dataio.read_report(report_path)
        for field in ("wa", "ua", "mean_kl", "mean_entropy", "aupr_maxp", "aupr_ent"):
            assert (doc[field] is None) == (field in null_fields), field
        assert sum(g["count"] for g in doc["per_group"].values()) == 40
        capsys.readouterr()
        assert run("detect", "--data", data, "--ckpt", ckpt, "--out-prefix", tmp_path / "c") == 1
        assert f"no utterance {missing}" in capsys.readouterr().err
        assert not (tmp_path / "c_maxp.csv").exists()

    def test_non_finite_mean_prints_null_as_the_report_writes_it(self, tmp_path, capsys):
        # A saturated softmax puts zero mass where the soft labels have some,
        # so the mean KL is infinite; no agreement group is empty.
        data, ckpt, report_path = tmp_path / "data.jsonl", tmp_path / "m.json", tmp_path / "r.json"
        assert run("gen", "--n", 200, "--seed", 42, "--out", data) == 0
        assert run("train", "--data", data, "--loss", "soft", "--epochs", 1, "--out", ckpt) == 0
        doc = json.loads(ckpt.read_text())
        doc["layers"][-1]["bias"] = [1000.0, 0.0, 0.0, 0.0, 0.0]
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("eval", "--data", data, "--ckpt", ckpt, "--out", report_path) == 0
        out = capsys.readouterr().out
        report = dataio.read_report(report_path)
        assert report["mean_kl"] is None
        assert all(group["count"] > 0 for group in report["per_group"].values())
        shown = {key: "null" if report[key] is None else f"{report[key]:.6f}"
                 for key in ("wa", "ua", "mean_kl", "mean_entropy", "aupr_maxp", "aupr_ent")}
        assert out == ("wa {wa}  ua {ua}  mean_kl {mean_kl}  mean_entropy {mean_entropy}\n"
                       "aupr_maxp {aupr_maxp}  aupr_ent {aupr_ent}\n").format(**shown)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.pop("train_config"), "train_config"),
        (lambda doc: doc["layers"][0].pop("bias"), "bias"),
        (lambda doc: doc["train_config"].update({"loss": "hard", "lambda": 5.0}),
         "applies only to"),
        # The dataset's four class names as one string, not a list of them.
        (lambda doc: doc.update(classes="ABCD"), "classes must be a list of strings"),
        (lambda doc: '{"format_version": 1, "kind": "checkpoint",', "not JSON"),
        (widen_last_layer, "last layer has 5 units for 4 classes"),
        (lambda doc: doc["train_config"].update(batch_size=2.7), "expected int, got 2.7"),
        (lambda doc: doc["train_config"].update(epochs=True), "expected int, got True"),
        (lambda doc: doc["train_config"].update(seed=1.9), "expected int, got 1.9"),
        (lambda doc: doc["train_config"].update(learning_rate="0.01"),
         "expected int or float, got '0.01'"),
        (lambda doc: doc["layers"][0]["bias"].__setitem__(0, "0.5"),
         "expected int or float, got '0.5'"),
        # The checkpoint's own layer sizes written as JSON floats.
        (lambda doc: doc.update(dims={"input": 8.0, "hidden": [64.0], "output": 4.0}),
         "expected int, got 8.0"),
        # Last-layer weights of shape (64, 4, 1), and a bias written as a (4, 1) column.
        (lambda doc: doc["layers"][-1].update(
            weights=[[[v] for v in row] for row in doc["layers"][-1]["weights"]]),
         "a layer needs a weight matrix and a matching bias vector"),
        (lambda doc: doc["layers"][-1].update(bias=[[v] for v in doc["layers"][-1]["bias"]]),
         "a layer needs a weight matrix and a matching bias vector"),
        # The messages of the per-element check, recorded before the whole-layer one.
        (lambda doc: doc["layers"][0]["weights"][2].__setitem__(5, True),
         "field: TypeError('expected int or float, got True')"),
        (lambda doc: doc["layers"][0]["weights"][0].__setitem__(0, "0.5"),
         """field: TypeError("expected int or float, got '0.5'")"""),
        (lambda doc: doc["layers"][-1]["weights"][7].__setitem__(1, 10**399),
         "field: OverflowError('int too large to convert to float')"),
        # A ragged matrix is a vector of rows, and its first row is the offender.
        (lambda doc: doc["layers"][-1]["weights"][1].pop(),
         "field: TypeError('expected int or float, got ["),
        (lambda doc: doc["layers"][0]["bias"].__setitem__(3, {"a": 1}),
         """field: TypeError("expected int or float, got {'a': 1}")"""),
    ])
    def test_bad_checkpoint_is_data_error(self, small_dataset, tmp_path, capsys, edit, message):
        ckpt = tmp_path / "m.json"
        run("train", "--data", small_dataset, "--loss", "soft", "--epochs", 1, "--out", ckpt)
        doc = json.loads(ckpt.read_text())
        text = edit(doc)
        ckpt.write_text(text if isinstance(text, str) else json.dumps(doc))
        for command in (["eval", "--out", tmp_path / "r.json"],
                        ["detect", "--out-prefix", tmp_path / "c"]):
            assert run(*command, "--data", small_dataset, "--ckpt", ckpt) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {ckpt}: ") and message in err
        assert not (tmp_path / "c_maxp.csv").exists()

    def test_eps2_overflowing_alpha0_names_checkpoint(self, small_dataset, tmp_path, capsys):
        ckpt = tmp_path / "m.json"
        run("train", "--data", small_dataset, "--loss", "dpn", "--epochs", 1, "--out", ckpt)
        doc = json.loads(ckpt.read_text())
        doc["train_config"]["eps2"] = 1e308
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        for command in (["eval", "--out", tmp_path / "r.json"],
                        ["detect", "--out-prefix", tmp_path / "c"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run(*command, "--data", small_dataset, "--ckpt", ckpt) == 1
            assert capsys.readouterr().err == (
                f"error: {ckpt}: eps2 must keep K*(e^60 + eps2) finite, so lie below "
                "4.494e+307 for K = 4, got 1e+308\n")
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "c_maxp.csv").exists()

    @pytest.mark.parametrize("command, out", [("eval", "--out"), ("detect", "--out-prefix")])
    def test_non_finite_logits_are_numerical_failure(self, small_dataset, tmp_path, capsys,
                                                     command, out):
        # Weights of 1e200 overflow the logits of the test utterances.
        ckpt = tmp_path / "m.json"
        run("train", "--data", small_dataset, "--loss", "soft", "--epochs", 1, "--out", ckpt)
        doc = json.loads(ckpt.read_text())
        for layer in doc["layers"]:
            layer["weights"] = [[1e200] * len(row) for row in layer["weights"]]
        ckpt.write_text(json.dumps(doc))
        corpus = dataio.read_dataset(small_dataset)[1]
        first = corpus.ids[np.flatnonzero(~corpus.train)[0]]
        capsys.readouterr()
        assert run(command, "--data", small_dataset, "--ckpt", ckpt, out, tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"numerical failure: {ckpt}: utterance {first}: non-finite logits")
        assert not (tmp_path / "r").exists() and not (tmp_path / "r_maxp.csv").exists()

    @pytest.mark.parametrize("command, out", [("eval", "--out"), ("detect", "--out-prefix")])
    def test_non_finite_logits_name_the_later_record_that_overflows(
        self, small_dataset, tmp_path, capsys, command, out
    ):
        # With first-layer weights of 1.0, only the test record whose features
        # are 1e308 overflows; the error names it, not the first test record.
        ckpt, data = tmp_path / "m.json", tmp_path / "data.jsonl"
        run("train", "--data", small_dataset, "--loss", "dpn", "--epochs", 1, "--out", ckpt)
        doc = json.loads(ckpt.read_text())
        first = doc["layers"][0]
        first["weights"] = [[1.0] * len(row) for row in first["weights"]]
        ckpt.write_text(json.dumps(doc))
        space, corpus = dataio.read_dataset(small_dataset)
        row = np.flatnonzero(~corpus.train)[5]
        corpus.features[row] = 1e308
        dataio.write_columns(data, space, corpus)
        capsys.readouterr()
        assert run(command, "--data", data, "--ckpt", ckpt, out, tmp_path / "r") == 2
        assert capsys.readouterr().err == (
            f"numerical failure: {ckpt}: utterance {corpus.ids[row]}: non-finite logits\n")
        assert not (tmp_path / "r").exists() and not (tmp_path / "r_maxp.csv").exists()


class TestDetect:
    def test_writes_curves_and_matches_eval(self, small_dataset, tmp_path, capsys):
        ckpt = tmp_path / "m.json"
        run("train", "--data", small_dataset, "--loss", "dpn-kl",
            "--epochs", 5, "--seed", 2, "--out", ckpt)
        report_path = tmp_path / "report.json"
        run("eval", "--data", small_dataset, "--ckpt", ckpt, "--out", report_path)
        capsys.readouterr()
        prefix = tmp_path / "curves"
        assert run("detect", "--data", small_dataset, "--ckpt", ckpt,
                   "--out-prefix", prefix) == 0
        out = capsys.readouterr().out
        doc = dataio.read_report(report_path)
        assert f"aupr_maxp {doc['aupr_maxp']:.6f}" in out
        assert f"aupr_ent {doc['aupr_ent']:.6f}" in out
        maxp_lines = (tmp_path / "curves_maxp.csv").read_text().splitlines()
        assert maxp_lines[0] == "threshold,precision,recall"
        assert len(maxp_lines) > 2

    def test_injected_oracle_scores_give_perfect_aupr(
        self, small_dataset, tmp_path, monkeypatch, capsys
    ):
        # Test hook: replace the prediction path with distributions whose
        # confidence perfectly separates the groups.
        ckpt = tmp_path / "m.json"
        run("train", "--data", small_dataset, "--loss", "soft", "--epochs", 1,
            "--out", ckpt)

        def oracle(params, corpus, loss):
            dists = []
            for g in corpus.groups:
                if g == AgreementGroup.NONE:
                    dists.append(CategoricalDist(np.full(4, 0.25)))
                else:
                    dists.append(CategoricalDist(np.array([0.97, 0.01, 0.01, 0.01])))
            return dists

        monkeypatch.setattr(model, "predict", oracle)
        capsys.readouterr()
        assert run("detect", "--data", small_dataset, "--ckpt", ckpt,
                   "--out-prefix", tmp_path / "c") == 0
        out = capsys.readouterr().out
        assert "aupr_maxp 1.000000" in out
        assert "aupr_ent 1.000000" in out


def shift_output_bias(ckpt, c):
    """Copy of a checkpoint with ``c`` added to every logit."""
    doc = json.loads(ckpt.read_text())
    doc["layers"][-1]["bias"] = [b + c for b in doc["layers"][-1]["bias"]]
    out = ckpt.with_name(f"shift{c:+g}.json")
    out.write_text(json.dumps(doc))
    return out


def scores(data, ckpt):
    """The eval report's values (nan for null) and the two detect curves."""
    report, prefix = ckpt.with_suffix(".report.json"), ckpt.with_suffix("")
    assert run("eval", "--data", data, "--ckpt", ckpt, "--out", report) == 0
    assert run("detect", "--data", data, "--ckpt", ckpt, "--out-prefix", prefix) == 0
    doc = dataio.read_report(report)
    values = [doc[key] for key in ("wa", "ua", "mean_kl", "mean_entropy", "aupr_maxp",
                                   "aupr_ent")]
    values += [v for group in doc["per_group"].values() for v in group.values()]
    curves = [np.loadtxt(f"{prefix}_{name}.csv", delimiter=",", skiprows=1, ndmin=2)
              for name in ("maxp", "ent")]
    return np.array(values, dtype=np.float64), curves


class TestScoringHead:
    # eval and detect score a checkpoint through the head it trained with:
    # a softmax for hard and soft, which no shift of every logit changes,
    # and the clamped exponential head for dpn and dpn-kl, which it does.
    @pytest.mark.parametrize("loss", ["hard", "soft"])
    def test_softmax_objectives_ignore_a_logit_shift(self, small_dataset, tmp_path, loss):
        ckpt = tmp_path / "m.json"
        assert run("train", "--data", small_dataset, "--loss", loss, "--epochs", 3,
                   "--out", ckpt) == 0
        base_values, base_curves = scores(small_dataset, ckpt)
        for c in (-1000.0, -100.0, 100.0):
            values, curves = scores(small_dataset, shift_output_bias(ckpt, c))
            np.testing.assert_allclose(values, base_values, rtol=0, atol=1e-9)
            for got, want in zip(curves, base_curves):
                assert got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("kind, eps2", [(LossKind.DPN_KL, 0.0), (LossKind.DPN, 0.0),
                                            (LossKind.DPN, 1e-8), (LossKind.DPN, 1e-6)])
    def test_dirichlet_head_is_the_predictive_mean_bit_for_bit(self, kind, eps2):
        # Identity weights pass the features through as logits, some at +-701,
        # where the exponential of an unclamped logit overflows.
        k = 4
        z = np.random.default_rng(0).normal(0.0, 30.0, (64, k))
        z[::3, 0], z[1::3, 1], z[::5, 2:] = 701.0, -701.0, -701.0
        params = init(k, [], k, seed=0)
        params.weights[0][:] = np.eye(k)
        corpus = corpus_of([[[0]]] * len(z), k=k, features=z)
        np.testing.assert_array_equal(forward(params, z), z)
        got = model.predict(params, corpus, LossConfig(kind, eps2=eps2))
        assert got.tobytes() == predictive_mean(from_logits(z, eps2)).p.tobytes()

    @pytest.mark.parametrize("kind", [LossKind.HARD, LossKind.SOFT_KL],
                             ids=lambda kind: kind.value)
    def test_logits_farther_apart_than_float64_allows_score_silently(
            self, small_dataset, tmp_path, capsys, kind):
        # The logits 1.7e308 and -1.7e308 differ by more than the float64 maximum, so
        # the softmax's shift overflows to -inf, whose exponential, 0, is exact.
        space, corpus = dataio.read_dataset(small_dataset)
        params = init(8, [4], 4, seed=0)
        for w in params.weights:
            w[:] = 0.0
        params.biases[-1][:] = [1.7e308, -1.7e308, 0.0, 0.0]
        ckpt = tmp_path / "m.json"
        config = TrainConfig(loss=LossConfig(kind), hidden=(4,))
        dataio.write_checkpoint(ckpt, params, space, config)
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("eval", "--data", small_dataset, "--ckpt", ckpt,
                       "--out", tmp_path / "r.json") == 0
            assert run("detect", "--data", small_dataset, "--ckpt", ckpt,
                       "--out-prefix", tmp_path / "c") == 0
            preds = model.predict(params, corpus.select(~corpus.train), config.loss)
        assert capsys.readouterr().err == ""
        assert all((tmp_path / name).exists() for name in ("r.json", "c_maxp.csv", "c_ent.csv"))
        assert preds.tobytes() == np.eye(4)[[0] * 30].tobytes()

    def test_dirichlet_objective_sees_a_logit_shift(self, small_dataset, tmp_path):
        ckpt = tmp_path / "m.json"
        assert run("train", "--data", small_dataset, "--loss", "dpn", "--epochs", 3,
                   "--out", ckpt) == 0
        base_values, _ = scores(small_dataset, ckpt)
        values, _ = scores(small_dataset, shift_output_bias(ckpt, -100.0))
        assert not np.allclose(values, base_values, rtol=0, atol=1e-9, equal_nan=True)


def transformed(tmp_path, evaluations):
    """transform's output, as tag lists, for records of ``evaluations`` over classes A, B, C."""
    data, out = tmp_path / "data.jsonl", tmp_path / "out.jsonl"
    dataio.write_columns(data, ClassSpace(("A", "B", "C")), corpus_of(evaluations))
    assert run("transform", "--data", data, "--out", out) == 0
    corpus = dataio.read_dataset(out)[1]
    return list(annotations.tag_lists(corpus.tags, corpus.tags_per_eval, corpus.annotators))


class TestTransform:
    def test_majority_records_rewritten(self, tmp_path):
        got = transformed(tmp_path, [[[0], [0], [0], [1], [2]], [[0], [1], [2]]])
        # A A A B C -> five copies of A.
        assert got[0] == [[0]] * 5
        # A B C has no majority: unchanged.
        assert got[1] == [[0], [1], [2]]

    def test_multi_tag_majority_expansion(self, tmp_path):
        # Four labels expand to four single-tag majority evaluations.
        assert transformed(tmp_path, [[[0], [0, 1], [2]]]) == [[[0]] * 4]

    def test_no_majority_multi_tags_survive(self, tmp_path):
        # A, AB, BC ties at two votes: no majority, evaluations untouched.
        assert transformed(tmp_path, [[[0], [0, 1], [1, 2]]]) == [[[0], [0, 1], [1, 2]]]

    def test_idempotent_byte_identical(self, small_dataset, tmp_path):
        once = tmp_path / "once.jsonl"
        twice = tmp_path / "twice.jsonl"
        assert run("transform", "--data", small_dataset, "--out", once) == 0
        assert run("transform", "--data", once, "--out", twice) == 0
        assert once.read_bytes() == twice.read_bytes()

    def test_preserves_splits_and_features(self, small_dataset, tmp_path):
        out = tmp_path / "out.jsonl"
        run("transform", "--data", small_dataset, "--out", out)
        _, before = dataio.read_dataset(small_dataset)
        _, after = dataio.read_dataset(out)
        assert before.ids == after.ids
        np.testing.assert_array_equal(before.train, after.train)
        np.testing.assert_array_equal(before.features, after.features)

    # CRLF line ends, blank lines of JSON whitespace, tags in reverse class
    # order, and majority and no-majority rows with multi-tag evaluations.
    HAND_WRITTEN = "\r\n".join([
        '{"format_version":1,"kind":"dataset","classes":["A","B","C","D"],"feature_dim":2}',
        '{"id":5,"split":"train","features":[0.1,-2],"evaluations":[["B","A"],["A"],["C"]]}',
        " \t\r",
        '{"id":3,"split":"train","features":[1e-3,7],"evaluations":[["C","A"],["B","A"],["C","B"]]}',
        '{"id":8,"split":"test","features":[0,0.5],"evaluations":[["D"],["D"],["D"]]}',
        " \t\r",
        '{"id":1,"split":"test","features":[3.25,-0.0],"evaluations":[["D","C","B"],["A"]]}',
        '{"id":0,"split":"train","features":[1,2],"evaluations":[["D","B"],["B","D"],["C","A"]]}',
    ]) + "\r\n"

    # sha256 of the file and of stdout, recorded while transform still
    # rebuilt its records from per-evaluation objects, so that the bytes
    # stay pinned across versions.
    @pytest.mark.parametrize("gen_args, file_digest, stdout_digest", [
        (["--n", 200],
         "0480461c0f249654d1b3d7950991fe05c06c2f19185f25f0b3a29507a7520a1d",
         "49f37b4545516f8b36ee326a2151685834b10c5cea7143f73404e324794d6d79"),
        (["--n", 100, "--k", 10, "--d", 32, "--annotators", 20, "--multi-tag-prob", 0.2,
          "--precisions", "300,40,15"],
         "178b74122edac68140e3dec0af4bf4202c399d4a76a4bc43d29c4728f349161e",
         "4fcea0279b7845a7e74dbdcab015f3f21949d16dace67573b3ac04c771bcb814"),
        (None,
         "e43c66e3ae5cb5d21da40cc82eac47788b510bcc564099fefa6df73062cfc34a",
         "7298ae6974384804c4d77fabc66cfaa21c6bcbe61bf97d82dc5a36689a96eacf"),
        (CROWD_BLOCKS,
         "58aea72dde29c70db67741ace7bdf4d5196ae6971dda7ef7508f419e17b33888",
         "3e5dcdd05bbf56a4312390237928728050077ae4b8fcc3df3a8cbce50942087a"),
    ], ids=["paper", "crowd", "hand-written", "crowd-blocks"])
    def test_bytes_pinned(self, tmp_path, monkeypatch, capsys, gen_args, file_digest,
                          stdout_digest):
        monkeypatch.chdir(tmp_path)
        if gen_args is None:
            (tmp_path / "data.jsonl").write_bytes(self.HAND_WRITTEN.encode())
        else:
            assert run("gen", *gen_args, "--seed", 42, "--out", "data.jsonl") == 0
        capsys.readouterr()
        assert run("transform", "--data", "data.jsonl", "--out", "out.jsonl") == 0
        out = capsys.readouterr().out
        assert hashlib.sha256((tmp_path / "out.jsonl").read_bytes()).hexdigest() == file_digest
        assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest


def command_args(command, data, ckpt, out):
    """Arguments of ``command`` reading ``data`` (and ``ckpt``), writing under ``out``."""
    return {
        "gen": ["--n", 40, "--k", 4, "--d", 8, "--out", out],
        "stats": ["--data", data],
        "train": ["--data", data, "--loss", "hard", "--epochs", 1, "--out", out],
        "eval": ["--data", data, "--ckpt", ckpt, "--out", out],
        "detect": ["--data", data, "--ckpt", ckpt, "--out-prefix", out],
        "transform": ["--data", data, "--out", out],
    }[command]


class TestEmptyDataset:
    """A dataset of a manifest and no records is a data error naming the file."""

    @pytest.mark.parametrize("command, message", [
        ("stats", "no records"),
        ("transform", "no records"),
        ("train", "no 'train' split records"),
        ("eval", "no 'test' split records"),
        ("detect", "no 'test' split records"),
    ])
    def test_exits_1_naming_the_file(self, small_dataset, tmp_path, capsys, command, message):
        empty = tmp_path / "empty.jsonl"
        empty.write_text(small_dataset.read_text().splitlines()[0] + "\n")
        out = tmp_path / "out"
        code = run(command, *command_args(command, empty, tmp_path / "m.json", out))
        assert code == 1
        assert capsys.readouterr().err == f"error: {empty}: {message}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["data.jsonl", "empty.jsonl"]


class TestAgreementCalls:
    @pytest.mark.parametrize("command", ["gen", "stats", "train", "eval", "detect", "transform"])
    def test_one_call_per_command(self, small_dataset, tmp_path, monkeypatch, command):
        # The batch rule classifies the whole corpus once; no command
        # recomputes it from the counts the reader already classified.
        ckpt = tmp_path / "m.json"
        assert run("train", "--data", small_dataset, "--loss", "soft", "--epochs", 1,
                   "--out", ckpt) == 0
        calls = []
        rule = annotations.agreement
        for module in (annotations, dataio):
            monkeypatch.setattr(module, "agreement", lambda *args: calls.append(1) or rule(*args))
        assert run(command, *command_args(command, small_dataset, ckpt, tmp_path / "out")) == 0
        assert len(calls) == 1
        # Every other module reaches the rule through ``annotations``.
        assert not hasattr(cli, "agreement") and not hasattr(synth, "agreement")

    @pytest.mark.parametrize("command", ["gen", "stats", "train", "eval", "detect", "transform"])
    def test_no_per_record_objects(self, small_dataset, tmp_path, monkeypatch, command):
        # Every command works on the flat tag columns from reader to writer.
        ckpt = tmp_path / "m.json"
        assert run("train", "--data", small_dataset, "--loss", "soft", "--epochs", 1,
                   "--out", ckpt) == 0
        built = []
        for cls, method in ((AnnotationSet, "__post_init__"), (LabelledExample, "__init__"),
                            (dataio.DatasetRecord, "__init__")):
            original = getattr(cls, method)
            monkeypatch.setattr(cls, method, lambda self, *args, original=original, cls=cls, **kw:
                                built.append(cls) or original(self, *args, **kw))
        assert run(command, *command_args(command, small_dataset, ckpt, tmp_path / "out")) == 0
        assert built == []
        # The counter sees a construction of each.
        AnnotationSet([(0,)], ClassSpace(("A", "B")))
        corpus_of([[[0]]])[0]
        dataio.DatasetRecord(0, "train", np.zeros(2), ((0,),))
        assert built == [AnnotationSet, LabelledExample, dataio.DatasetRecord]


@pytest.mark.parametrize("args, field", [
    (["gen", "--noise-sigma", "nan"], "noise_sigma"),
    (["gen", "--noise-sigma", "inf"], "noise_sigma"),
    (["gen", "--group-mix", "nan,0.5,0.5"], "group_mix"),
    (["gen", "--precisions", "120,inf,5"], "regime_precisions"),
    (["train", "--loss", "soft", "--lr", "nan"], "learning_rate"),
    (["train", "--loss", "soft", "--lr", "inf"], "learning_rate"),
    (["train", "--loss", "dpn-kl", "--lambda", "nan"], "lambda"),
    (["train", "--loss", "dpn-kl", "--lambda", "inf"], "lambda"),
    (["train", "--loss", "dpn", "--eps2", "nan"], "eps2"),
    (["train", "--loss", "dpn", "--eps2", "inf"], "eps2"),
    (["train", "--loss", "dpn", "--eps1", "nan"], "eps1"),
])
def test_non_finite_setting_is_usage_error(small_dataset, tmp_path, capsys, args, field):
    out = tmp_path / "out"
    extra = ["--n", 20] if args[0] == "gen" else ["--data", small_dataset, "--epochs", 1]
    assert run(*args, *extra, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be") and "finite" in err
    assert not out.exists()


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert run() == 1

    def test_help_exits_cleanly(self):
        assert run("--help") == 0

    def test_unknown_command(self):
        assert run("frobnicate") == 1


def run_module(*args, cwd):
    """``python -m labelprior`` in a fresh interpreter, importing this package."""
    src = str(pathlib.Path(labelprior.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, "-m", "labelprior", *map(str, args)], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=120)


def parsed(parse, argv, capsys):
    """What ``parse(argv)`` gives: its namespace or exit code, and its output."""
    try:
        result = vars(parse(list(argv)))
    except SystemExit as exit_:
        result = exit_.code
    return result, capsys.readouterr()


class TestParse:
    """``cli.main`` parses every line with one parser, built once per process."""

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["frobnicate"], ["-x", "train"],
        *([command, "-h"] for command in ("gen", "stats", "train", "eval", "detect", "transform")),
        ["gen", "--n", "3", "--out", "o"],
        ["gen", "--n", "-3", "--out", "o", "--group-mix", "0.5,0.5"],
        ["gen", "--n", "3", "--out", "o", "--group-mix", "a,b"],
        ["gen", "--n", "3", "--out", "o", "--hel"],
        ["stats", "--data", "d"], ["stats", "--dat", "d"], ["stats", "--data"],
        ["stats", "--data", "d", "extra"],
        ["train", "--data", "d", "--loss", "dpn", "--out", "o", "--hidden", "3,4",
         "--lr", "-1e-3"],
        ["train"], ["train", "--data", "d", "--loss", "x", "--out", "o"],
        ["train", "--data", "d", "--loss", "dpn", "--out", "o", "--bogus"],
        ["train", "--data", "d", "--loss", "dpn", "--out", "o", "--", "x"],
        ["train", "--data", "d", "--loss", "dpn", "--out", "o", "--epochs", "x", "--zz"],
        ["eval", "--data=d", "--ckpt", "c", "--out", "o"],
        ["detect", "--data", "d", "--ckpt", "c", "--out-prefix", "p"],
        ["transform", "--data", "d"], ["transform", "--data", "d", "--out", "o"],
        ["gen", "--n", "3", "--out", "o"],
    ])
    def test_parses_as_the_full_parser(self, capsys, argv):
        # The lines run in order through the one cached parser, so a line that
        # left state behind would make a later line differ from a fresh parser:
        # the last line, for one, must not see the --group-mix set above.
        fresh = parsed(lambda a: cli._build_parser.__wrapped__().parse_args(a), argv, capsys)
        assert parsed(cli._build_parser().parse_args, argv, capsys) == fresh

    @pytest.mark.parametrize("argv, namespace", [
        (["gen", "--n", "5", "--out", "o"], {"n": 5, "out": "o"}),
        (["gen", "--n", "5", "--out", "o", "--precisions", "9,8,7"],
         {"n": 5, "out": "o", "regime_precisions": (9.0, 8.0, 7.0)}),
        *((["train", "--data", "d", "--loss", loss, "--out", "o"],
           {"data": "d", "loss": loss, "out": "o", "log": None})
          for loss in sorted(kind.value for kind in LossKind)),
        (["train", "--data", "d", "--loss", "soft", "--out", "o", "--lr", "0.5", "--batch", "7"],
         {"data": "d", "loss": "soft", "out": "o", "log": None, "learning_rate": 0.5,
          "batch_size": 7}),
    ])
    def test_namespace_holds_only_the_settings_the_line_sets(self, argv, namespace):
        # Every other setting takes its config class's default, not one of the parser's;
        # a flag not named as its field reaches the field's name.
        args = cli._build_parser().parse_args(argv)
        assert vars(args) == {"command": argv[0], **namespace}

    def test_builds_the_parser_once(self, monkeypatch, capsys, small_dataset):
        count = []
        init_ = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            count.append(self)
            init_(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._build_parser.cache_clear()
        codes, built = [], []
        for argv in (["stats", "--data", small_dataset], ["frobnicate"],
                     ["stats", "--data", small_dataset, "--bogus"], ["train", "--help"],
                     ["stats", "--data", small_dataset]):
            before = len(count)
            codes.append(run(*argv))
            built.append(len(count) - before)
        assert codes == [0, 1, 1, 0, 0]
        assert built == [7, 0, 0, 0, 0]  # the full parser and its six commands' parsers


class TestRepeatedCalls:
    """``cli.main`` runs one command per call, any number of times in one process."""

    def test_help_prints_the_same_text_twice(self, capsys):
        texts = []
        for _ in range(2):
            assert run("--help") == 0
            texts.append(capsys.readouterr().out)
        assert texts[0].startswith("usage: labelprior") and texts[0] == texts[1]

    def test_eval_after_failed_calls_matches_a_fresh_process(self, small_dataset, tmp_path,
                                                             capsys):
        ckpt = tmp_path / "m.json"
        assert run("train", "--data", small_dataset, "--loss", "dpn", "--epochs", 1,
                   "--out", ckpt) == 0
        assert run("frobnicate") == 1
        assert run("--help") == 0
        assert run("train", "--data", small_dataset, "--loss", "soft", "--lr", 1e300,
                   "--epochs", 1, "--out", tmp_path / "diverged.json") == 2
        capsys.readouterr()
        assert run("eval", "--data", small_dataset, "--ckpt", ckpt,
                   "--out", tmp_path / "here.json") == 0
        out = capsys.readouterr().out
        fresh = run_module("eval", "--data", small_dataset, "--ckpt", ckpt,
                           "--out", tmp_path / "fresh.json", cwd=tmp_path)
        assert fresh.returncode == 0 and fresh.stdout == out
        assert (tmp_path / "here.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()


class TestModuleEntryPoint:
    def test_help_exits_cleanly(self, tmp_path):
        proc = run_module("--help", cwd=tmp_path)
        assert proc.returncode == 0 and proc.stdout.startswith("usage: labelprior")

    def test_missing_file_is_usage_error(self, tmp_path):
        proc = run_module("stats", "--data", tmp_path / "nope.jsonl", cwd=tmp_path)
        assert proc.returncode == 1 and proc.stderr.startswith("error: ")

    def test_no_command_is_usage_error(self, tmp_path):
        assert run_module(cwd=tmp_path).returncode == 1
