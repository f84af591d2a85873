"""Round-trip and format tests for datasets, checkpoints, reports, curves
and training logs."""

import json

import numpy as np
import pytest

from labelprior import dataio
from labelprior.annotations import AgreementGroup, ClassSpace, Evaluation
from labelprior.losses import LossConfig, LossKind
from labelprior.metrics import GroupMetrics, MetricsReport, PRCurve
from labelprior.model import TrainConfig, TrainingSet, init
from labelprior.synth import SynthConfig, generate

SPACE = ClassSpace(("A", "B", "C"))


def sample_records():
    return [
        dataio.DatasetRecord(
            uid=0,
            split="train",
            features=np.array([0.25, -1.5, 3.125]),
            evaluations=(Evaluation((0,)), Evaluation((0, 1)), Evaluation((2,))),
        ),
        dataio.DatasetRecord(
            uid=1,
            split="test",
            features=np.array([0.0, 0.5, 1.0]),
            evaluations=(Evaluation((1,)),),
        ),
    ]


def as_records(corpus):
    """The writer's input for every row of a read corpus."""
    return [
        dataio.DatasetRecord(uid, "train" if train else "test", x, evs)
        for uid, train, x, evs in zip(corpus.ids, corpus.train, corpus.features,
                                      corpus.evaluation_sets())
    ]


def read_sample(tmp_path, records):
    path = tmp_path / "sample.jsonl"
    dataio.write_dataset(path, SPACE, records)
    return dataio.read_dataset(path)[1]


class TestDatasetRoundTrip:
    def test_structural_equality(self, tmp_path):
        path = tmp_path / "data.jsonl"
        dataio.write_dataset(path, SPACE, sample_records())
        space, corpus = dataio.read_dataset(path)
        assert space.names == SPACE.names
        assert len(corpus) == 2
        for got, want in zip(as_records(corpus), sample_records(), strict=True):
            assert got.uid == want.uid
            assert got.split == want.split
            assert got.evaluations == want.evaluations
            np.testing.assert_array_equal(got.features, want.features)

    def test_columns(self, tmp_path):
        corpus = read_sample(tmp_path, sample_records())
        assert corpus.ids == [0, 1]
        assert all(type(uid) is int for uid in corpus.ids)
        np.testing.assert_array_equal(corpus.train, [True, False])
        assert corpus.features.dtype == np.float64
        np.testing.assert_array_equal(corpus.features, [[0.25, -1.5, 3.125], [0.0, 0.5, 1.0]])
        np.testing.assert_array_equal(corpus.counts, [[2, 1, 1], [0, 1, 0]])
        np.testing.assert_array_equal(corpus.annotators, [3, 1])
        np.testing.assert_array_equal(corpus.tags, [0, 0, 1, 2, 1])
        np.testing.assert_array_equal(corpus.tags_per_eval, [1, 2, 1, 1])
        assert corpus.evaluation_sets(np.array([False, True])) == [(Evaluation((1,)),)]

    def test_rewrite_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        dataio.write_dataset(first, SPACE, sample_records())
        space, corpus = dataio.read_dataset(first)
        dataio.write_dataset(second, space, as_records(corpus))
        assert first.read_bytes() == second.read_bytes()

    def test_manifest_first_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        dataio.write_dataset(path, SPACE, sample_records())
        first_line = path.read_text().splitlines()[0]
        manifest = json.loads(first_line)
        assert manifest["kind"] == "dataset"
        assert manifest["classes"] == ["A", "B", "C"]

    def test_class_names_not_indices(self, tmp_path):
        path = tmp_path / "data.jsonl"
        dataio.write_dataset(path, SPACE, sample_records())
        record = json.loads(path.read_text().splitlines()[1])
        assert record["evaluations"] == [["A"], ["A", "B"], ["C"]]

    def test_unknown_class_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [
            '{"format_version":1,"kind":"dataset","classes":["A","B"],"feature_dim":1}',
            '{"id":0,"split":"train","features":[0.0],"evaluations":[["Z"]]}',
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            dataio.read_dataset(path)

    def test_wrong_feature_length_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        lines = [
            '{"format_version":1,"kind":"dataset","classes":["A","B"],"feature_dim":2}',
            '{"id":0,"split":"train","features":[0.0],"evaluations":[["A"]]}',
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError):
            dataio.read_dataset(path)


    @pytest.mark.parametrize("manifest", [
        '{"format_version":1,"kind":"dataset","classes":"ABCDE","feature_dim":1}',
        '{"format_version":1,"kind":"dataset","classes":["A",2],"feature_dim":1}',
        '{"format_version":1,"kind":"dataset","classes":["A","A"],"feature_dim":1}',
        '{"format_version":1,"kind":"dataset","classes":["A","B"],"feature_dim":1.9}',
        '{"format_version":1,"kind":"dataset","classes":["A","B"],"feature_dim":"x"}',
        '{"format_version":1,"kind":"dataset","classes":["A","B"],"feature_dim":true}',
        '{"format_version":1,"kind":"dataset","classes":["A","B"]}',
        '{"format_version":1,"kind":"dataset","classes":["A","B"],"feature_dim":1',
        '{"format_version":true,"kind":"dataset","classes":["A","B"],"feature_dim":1}',
        '{"format_version":1.0,"kind":"dataset","classes":["A","B"],"feature_dim":1}',
        "not json",
    ])
    def test_bad_manifest_rejected_naming_the_file(self, tmp_path, manifest):
        path = tmp_path / "bad.jsonl"
        record = '{"id":0,"split":"train","features":[0.0],"evaluations":[["A"]]}'
        path.write_text(manifest + "\n" + record + "\n")
        with pytest.raises(ValueError) as err:
            dataio.read_dataset(path)
        assert str(path) in str(err.value)


def train_only(records):
    return [dataio.DatasetRecord(r.uid, "train", r.features, r.evaluations) for r in records]


class TestRecordToExample:
    def test_derived_views(self, tmp_path):
        corpus = read_sample(tmp_path, train_only(sample_records()))
        example, single = dataio.record_to_example(corpus)
        assert example.uid == 0
        assert example.group == AgreementGroup.MAJORITY
        assert example.majority == 0
        assert len(example.labels) == 4
        np.testing.assert_allclose(example.soft.p, [0.5, 0.25, 0.25], atol=1e-15)
        assert (single.uid, single.group, single.majority) == (1, AgreementGroup.FULL, 1)
        np.testing.assert_array_equal(single.soft.p, [0.0, 1.0, 0.0])

    def test_only_train_rows(self, tmp_path):
        examples = dataio.record_to_example(read_sample(tmp_path, sample_records()))
        assert [e.uid for e in examples] == [0]

    def test_classifies_agreement_once(self, tmp_path, monkeypatch):
        # One call of the batch rule for the whole split, none per record.
        corpus = read_sample(tmp_path, train_only(sample_records()))
        calls = []
        rule = dataio.agreement
        monkeypatch.setattr(dataio, "agreement",
                            lambda *args: calls.append(1) or rule(*args))
        assert len(dataio.record_to_example(corpus)) == 2
        assert len(calls) == 1

    def test_columns_of_the_train_rows(self, tmp_path):
        corpus = read_sample(tmp_path, sample_records())
        examples = dataio.record_to_example(corpus)
        assert isinstance(examples, TrainingSet)
        np.testing.assert_array_equal(examples.features, [[0.25, -1.5, 3.125]])
        np.testing.assert_array_equal(examples.counts, [[2, 1, 1]])
        assert examples.groups.tolist() == [AgreementGroup.MAJORITY]
        assert examples.majority.tolist() == [0]
        assert examples.uids == [0]

    def test_rows_equal_the_per_record_view(self, tmp_path):
        # Each indexed row equals the view built record by record from the
        # evaluations: one one-hot label per tag grouped by class, their
        # mean, and the agreement group and majority of the vote counts.
        utts, space = generate(SynthConfig(n=120, k=4, d=4, annotators=5,
                                           multi_tag_prob=0.3, seed=8))
        path = tmp_path / "synth.jsonl"
        records = [dataio.DatasetRecord(u.uid, "test" if u.uid % 4 == 0 else "train",
                                        u.features, u.evaluations) for u in utts]
        dataio.write_dataset(path, space, records)
        examples = dataio.record_to_example(dataio.read_dataset(path)[1])
        kept = [r for r in records if r.split == "train"]
        assert len(examples) == len(kept) == 90
        eye = np.eye(space.k)
        for example, rec in zip(examples, kept, strict=True):
            counts = np.bincount([t for ev in rec.evaluations for t in ev.tags],
                                 minlength=space.k)
            groups, majority = dataio.agreement(counts[None], [len(rec.evaluations)])
            labels = np.repeat(eye, counts, axis=0)
            assert example.uid == rec.uid
            np.testing.assert_array_equal(example.features, rec.features)
            np.testing.assert_array_equal(np.array(example.labels), labels)
            np.testing.assert_array_equal(example.soft.p, counts / counts.sum())
            assert example.group == groups[0]
            assert example.majority == (None if majority[0] < 0 else majority[0])
        assert {e.group for e in examples} == set(AgreementGroup)


class TestCheckpointRoundTrip:
    def test_structural_equality(self, tmp_path):
        params = init(3, [4], 3, seed=9)
        config = TrainConfig(
            loss=LossConfig.default_for(LossKind.DPN_KL),
            learning_rate=5e-3,
            batch_size=16,
            epochs=7,
            seed=9,
            hidden=(4,),
        )
        path = tmp_path / "model.json"
        dataio.write_checkpoint(path, params, SPACE, config)
        loaded, space, loaded_config = dataio.read_checkpoint(path)
        assert space.names == SPACE.names
        assert loaded_config == config
        for wa, wb in zip(loaded.weights, params.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(loaded.biases, params.biases):
            np.testing.assert_array_equal(ba, bb)

    def test_rewrite_is_byte_identical(self, tmp_path):
        params = init(3, [4], 3, seed=1)
        config = TrainConfig(loss=LossConfig(LossKind.HARD), hidden=(4,))
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        dataio.write_checkpoint(first, params, SPACE, config)
        loaded, space, loaded_config = dataio.read_checkpoint(first)
        dataio.write_checkpoint(second, loaded, space, loaded_config)
        assert first.read_bytes() == second.read_bytes()

    def test_version_field_present(self, tmp_path):
        params = init(3, [4], 3, seed=1)
        config = TrainConfig(loss=LossConfig(LossKind.HARD))
        path = tmp_path / "m.json"
        dataio.write_checkpoint(path, params, SPACE, config)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1


def sample_report():
    per_group = {
        AgreementGroup.FULL: GroupMetrics(10, 0.9, 0.4, 0.2, 0.95, 0.94),
        AgreementGroup.MAJORITY: GroupMetrics(20, 0.7, 0.8, 0.3, 0.8, 0.75),
        AgreementGroup.NONE: GroupMetrics(5, 0.5, 1.2, 0.4, None, None),
    }
    return MetricsReport(
        wa=0.85, ua=0.8, mean_kl=0.31, mean_entropy=0.75,
        aupr_maxp=0.9, aupr_ent=0.88, per_group=per_group,
    )


class TestReport:
    def test_six_decimal_places(self, tmp_path):
        path = tmp_path / "report.json"
        dataio.write_report(path, sample_report())
        text = path.read_text()
        assert '"wa": 0.850000' in text
        assert '"mean_entropy": 0.750000' in text

    def test_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        dataio.write_report(path, sample_report())
        doc = dataio.read_report(path)
        assert doc["wa"] == pytest.approx(0.85)
        assert doc["per_group"]["none"]["wa"] is None
        assert doc["per_group"]["full"]["count"] == 10

    def test_counts_survive_as_integers(self, tmp_path):
        path = tmp_path / "report.json"
        dataio.write_report(path, sample_report())
        doc = dataio.read_report(path)
        assert isinstance(doc["per_group"]["majority"]["count"], int)

    def test_empty_group_serialises_as_null(self, tmp_path):
        # A corpus without majority-agreement utterances still produces a
        # valid report; the empty group's means become null.
        from labelprior.dirichlet import CategoricalDist
        from labelprior.metrics import build_report

        groups = [AgreementGroup.FULL, AgreementGroup.FULL, AgreementGroup.NONE]
        majorities = [0, 1, None]
        softs = [
            CategoricalDist(np.array([1.0, 0.0])),
            CategoricalDist(np.array([0.0, 1.0])),
            CategoricalDist(np.array([0.5, 0.5])),
        ]
        preds = [
            CategoricalDist(np.array([0.9, 0.1])),
            CategoricalDist(np.array([0.2, 0.8])),
            CategoricalDist(np.array([0.5, 0.5])),
        ]
        report = build_report(groups, majorities, softs, preds)
        path = tmp_path / "report.json"
        dataio.write_report(path, report)
        doc = dataio.read_report(path)
        assert doc["per_group"]["majority"]["count"] == 0
        assert doc["per_group"]["majority"]["mean_entropy"] is None


class TestCurveAndLog:
    def test_curve_header_and_rows(self, tmp_path):
        curve = PRCurve(((0.9, 1.0, 0.5), (0.3, 0.75, 1.0)))
        path = tmp_path / "curve.csv"
        dataio.write_curve(path, curve)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold,precision,recall"
        assert lines[1] == "0.900000,1.000000,0.500000"
        assert len(lines) == 3

    def test_train_log(self, tmp_path):
        path = tmp_path / "log.csv"
        dataio.write_train_log(path, [1.5, 0.75])
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert lines[1] == "0,1.5"
        assert lines[2] == "1,0.75"


def test_synthetic_corpus_round_trip(tmp_path):
    cfg = SynthConfig(n=40, k=4, d=8, seed=3)
    utts, space = generate(cfg)
    records = [
        dataio.DatasetRecord(u.uid, "train" if u.uid < 30 else "test", u.features, u.evaluations)
        for u in utts
    ]
    path = tmp_path / "corpus.jsonl"
    dataio.write_dataset(path, space, records)
    space2, loaded = dataio.read_dataset(path)
    assert space2.names == space.names
    for got, want in zip(as_records(loaded), records, strict=True):
        assert got.evaluations == want.evaluations
        np.testing.assert_array_equal(got.features, want.features)
