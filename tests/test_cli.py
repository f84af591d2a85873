"""End-to-end CLI tests: every command, determinism of outputs, exit
codes, and the transform pipeline."""

import json
import math

import numpy as np
import pytest

from labelprior import cli, dataio
from labelprior.annotations import AgreementGroup, AnnotationSet, ClassSpace, Evaluation
from labelprior.dirichlet import CategoricalDist
from labelprior.losses import LossConfig, LossKind
from labelprior.metrics import entropy as dist_entropy
from labelprior.model import TrainConfig, init


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
        _, records = dataio.read_dataset(small_dataset)
        assert len(records) == 120
        assert sum(1 for r in records if r.split == "test") == 30

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

    def test_prints_stats(self, tmp_path, capsys):
        run("gen", "--n", 30, "--k", 3, "--d", 6, "--seed", 1,
            "--out", tmp_path / "d.jsonl")
        out = capsys.readouterr().out
        assert "Number of total utterances" in out
        assert "30" in out


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
        (lambda rec: rec.update(evaluations=[]), "at least one evaluation is required"),
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


    @pytest.mark.parametrize("loss", ["soft", "dpn-kl"])
    def test_divergence_is_numerical_failure(self, small_dataset, tmp_path, capsys, loss):
        code = run("train", "--data", small_dataset, "--loss", loss, "--lr", 1e300,
                   "--epochs", 1, "--out", tmp_path / "m.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "numerical failure" in err and "utterance" in err and "non-finite" in err
        assert not (tmp_path / "m.json").exists()

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
        preds = cli._predict_dists(
            dataio.read_checkpoint(ckpt)[0],
            [r.features for r in dataio.read_dataset(small_dataset)[1] if r.split == "test"],
            0.0,
        )
        assert preds.p.shape == (30, 4)
        assert (dist_entropy(preds) == math.log(4)).all()

    def test_group_counts_match_dataset(self, small_dataset, tmp_path):
        # With every record in the test split, the per-group counts of the
        # report equal the corpus statistics.
        full_test = tmp_path / "all_test.jsonl"
        space, records = dataio.read_dataset(small_dataset)
        dataio.write_dataset(
            full_test, space,
            [dataio.DatasetRecord(r.uid, "test", r.features, r.evaluations) for r in records],
        )
        ckpt = tmp_path / "m.json"
        run("train", "--data", small_dataset, "--loss", "soft", "--epochs", 2,
            "--out", ckpt)
        report_path = tmp_path / "report.json"
        run("eval", "--data", full_test, "--ckpt", ckpt, "--out", report_path)
        doc = dataio.read_report(report_path)
        groups = [AnnotationSet(r.evaluations, space).group for r in records]
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
            space, records = dataio.read_dataset(data)
            tie = tuple(Evaluation(tags) for tags in test_votes)
            dataio.write_dataset(data, space, [
                r if r.split == "train" else dataio.DatasetRecord(r.uid, r.split, r.features, tie)
                for r in records])
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
        space, records = dataio.read_dataset(small_dataset)
        test_records = [r for r in records if r.split == "test"]
        groups = [AnnotationSet(r.evaluations, space).group for r in test_records]

        def oracle(params, features, eps2):
            dists = []
            for g in groups:
                if g == AgreementGroup.NONE:
                    dists.append(CategoricalDist(np.full(4, 0.25)))
                else:
                    dists.append(CategoricalDist(np.array([0.97, 0.01, 0.01, 0.01])))
            return dists

        monkeypatch.setattr(cli, "_predict_dists", oracle)
        capsys.readouterr()
        assert run("detect", "--data", small_dataset, "--ckpt", ckpt,
                   "--out-prefix", tmp_path / "c") == 0
        out = capsys.readouterr().out
        assert "aupr_maxp 1.000000" in out
        assert "aupr_ent 1.000000" in out


class TestTransform:
    def test_majority_records_rewritten(self, tmp_path):
        data = tmp_path / "data.jsonl"
        space = ClassSpace(("A", "B", "C"))
        records = [
            dataio.DatasetRecord(
                0, "train", np.zeros(3),
                (Evaluation((0,)), Evaluation((0,)), Evaluation((0,)),
                 Evaluation((1,)), Evaluation((2,))),
            ),
            dataio.DatasetRecord(
                1, "train", np.zeros(3),
                (Evaluation((0,)), Evaluation((1,)), Evaluation((2,))),
            ),
        ]
        dataio.write_dataset(data, space, records)
        out = tmp_path / "out.jsonl"
        assert run("transform", "--data", data, "--out", out) == 0
        _, transformed = dataio.read_dataset(out)
        # A A A B C -> five copies of A.
        assert transformed[0].evaluations == tuple(Evaluation((0,)) for _ in range(5))
        # A B C has no majority: unchanged.
        assert transformed[1].evaluations == records[1].evaluations

    def test_multi_tag_majority_expansion(self, tmp_path):
        space = ClassSpace(("A", "B", "C"))
        data = tmp_path / "data.jsonl"
        records = [
            dataio.DatasetRecord(
                0, "train", np.zeros(3),
                (Evaluation((0,)), Evaluation((0, 1)), Evaluation((2,))),
            ),
        ]
        dataio.write_dataset(data, space, records)
        out = tmp_path / "out.jsonl"
        run("transform", "--data", data, "--out", out)
        _, transformed = dataio.read_dataset(out)
        # Four labels expand to four single-tag majority evaluations.
        assert transformed[0].evaluations == tuple(Evaluation((0,)) for _ in range(4))

    def test_no_majority_multi_tags_survive(self, tmp_path):
        space = ClassSpace(("A", "B", "C"))
        data = tmp_path / "data.jsonl"
        records = [
            dataio.DatasetRecord(
                0, "train", np.zeros(3),
                (Evaluation((0,)), Evaluation((0, 1)), Evaluation((1, 2))),
            ),
        ]
        dataio.write_dataset(data, space, records)
        out = tmp_path / "out.jsonl"
        run("transform", "--data", data, "--out", out)
        _, transformed = dataio.read_dataset(out)
        # A, AB, BC ties at two votes: no majority, evaluations untouched.
        assert transformed[0].evaluations == records[0].evaluations

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
        for a, b in zip(before, after):
            assert a.uid == b.uid
            assert a.split == b.split
            np.testing.assert_array_equal(a.features, b.features)


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
