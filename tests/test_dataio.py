"""Round-trip and format tests for datasets, checkpoints, reports, curves
and training logs."""

import gc
import json
import math
import pathlib
import re
import tempfile
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labelprior import annotations, cli, dataio, synth
from labelprior.annotations import AgreementGroup, ClassSpace, Corpus, tag_lists
from labelprior.losses import LossConfig, LossKind
from labelprior.metrics import GroupMetrics, MetricsReport, PRCurve
from labelprior.model import ModelParams, TrainConfig, init
from labelprior.synth import SynthConfig, generate

from corpora import corpus_of

SPACE = ClassSpace(("A", "B", "C"))


def sample_records():
    return [
        dataio.DatasetRecord(
            uid=0,
            split="train",
            features=np.array([0.25, -1.5, 3.125]),
            evaluations=((0,), (0, 1), (2,)),
        ),
        dataio.DatasetRecord(
            uid=1,
            split="test",
            features=np.array([0.0, 0.5, 1.0]),
            evaluations=((1,),),
        ),
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
        want = sample_records()
        assert corpus.ids == [rec.uid for rec in want]
        assert corpus.train.tolist() == [rec.split == "train" for rec in want]
        assert list(tag_lists(corpus.tags, corpus.tags_per_eval, corpus.annotators)) == [
            [list(ev) for ev in rec.evaluations] for rec in want]
        np.testing.assert_array_equal(corpus.features, [rec.features for rec in want])

    def test_columns(self, tmp_path):
        path = tmp_path / "sample.jsonl"
        # The sample records, but record 0's second evaluation lists B before A.
        dataio.write_columns(path, SPACE, Corpus.from_tags(
            [0, 1], np.array([True, False]), np.array([[0.25, -1.5, 3.125], [0.0, 0.5, 1.0]]),
            np.array([0, 1, 0, 2, 1]), np.array([1, 2, 1, 1]), np.array([3, 1]), 3))
        corpus = dataio.read_dataset(path)[1]
        assert corpus.ids == [0, 1]
        assert all(type(uid) is int for uid in corpus.ids)
        np.testing.assert_array_equal(corpus.train, [True, False])
        assert corpus.features.dtype == np.float64
        np.testing.assert_array_equal(corpus.features, [[0.25, -1.5, 3.125], [0.0, 0.5, 1.0]])
        np.testing.assert_array_equal(corpus.counts, [[2, 1, 1], [0, 1, 0]])
        np.testing.assert_array_equal(corpus.annotators, [3, 1])
        assert corpus.groups.tolist() == [AgreementGroup.MAJORITY, AgreementGroup.FULL]
        np.testing.assert_array_equal(corpus.majority, [0, 1])
        # Each evaluation's tags in class order, not the file's [0, 1, 0, 2, 1].
        np.testing.assert_array_equal(corpus.tags, [0, 0, 1, 2, 1])
        np.testing.assert_array_equal(corpus.tags_per_eval, [1, 2, 1, 1])
        picked = corpus.select(np.array([False, True]))
        assert list(tag_lists(picked.tags, picked.tags_per_eval, picked.annotators)) == [[[1]]]

    @pytest.mark.parametrize("gen_args", [
        None,
        ["--n", 200],
        ["--n", 100, "--k", 10, "--d", 32, "--annotators", 20, "--multi-tag-prob", "0.2",
         "--precisions", "300,40,15"],
    ], ids=["records", "paper", "crowd"])
    def test_rewrite_is_byte_identical(self, tmp_path, gen_args):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        if gen_args is None:
            dataio.write_dataset(first, SPACE, sample_records())
        else:
            assert cli.main(["gen", *map(str, gen_args), "--seed", "42", "--out", str(first)]) == 0
        space, corpus = dataio.read_dataset(first)
        dataio.write_columns(second, space, corpus)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("config, test_frac", [
        (SynthConfig(n=200, seed=42), 0.2),
        (SynthConfig(n=100, k=10, d=32, annotators=20, multi_tag_prob=0.2,
                     regime_precisions=(300, 40, 15), seed=42), 0.5),
    ], ids=["paper", "crowd"])
    def test_from_tags_of_generated_columns_equals_read_back(self, tmp_path, config, test_frac):
        path = tmp_path / "data.jsonl"
        assert cli.main(["gen", "--n", str(config.n), "--k", str(config.k), "--d", str(config.d),
                         "--annotators", str(config.annotators),
                         "--multi-tag-prob", str(config.multi_tag_prob),
                         "--precisions", ",".join(map(str, config.regime_precisions)),
                         "--test-frac", str(test_frac), "--seed", str(config.seed),
                         "--out", str(path)]) == 0
        built = synth.corpus(replace(config, test_frac=test_frac))[1]
        read = dataio.read_dataset(path)[1]
        assert built.ids == read.ids
        for name in ("train", "features", "counts", "annotators", "groups", "majority", "tags",
                     "tags_per_eval"):
            got, want = getattr(built, name), getattr(read, name)
            assert got.dtype == want.dtype, name
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_write_dataset_writes_names_in_class_order(self, tmp_path):
        path = tmp_path / "data.jsonl"
        record = dataio.DatasetRecord(0, "train", np.zeros(3), ((2, 0), (1,)))
        dataio.write_dataset(path, SPACE, [record])
        assert json.loads(path.read_text().splitlines()[1])["evaluations"] == [["A", "C"], ["B"]]

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


# The per-record writer that the block encoder replaced, verbatim: one
# dict and one json.dumps per record.
def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _write_records(path: str, names, d: int, ids, splits, rows, evaluations) -> None:
    """Manifest line followed by one JSON record per id, encoded one record
    at a time: ``rows`` yields feature lists and ``evaluations`` each
    record's evaluations as lists of class names."""
    lines = [_compact({"format_version": dataio.FORMAT_VERSION, "kind": "dataset",
                       "classes": list(names), "feature_dim": d})] + [
        _compact({"id": uid, "split": split, "features": row, "evaluations": evs})
        for uid, split, row, evs in zip(ids, splits, rows, evaluations)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_write_columns(path: str, space: ClassSpace, corpus: Corpus) -> None:
    """Manifest line followed by one JSON record per row of ``corpus``."""
    names = np.array(space.names, dtype=object)[corpus.tags]
    _write_records(path, space.names, corpus.features.shape[1], corpus.ids,
                   ("train" if train else "test" for train in corpus.train.tolist()),
                   map(np.ndarray.tolist, corpus.features),
                   tag_lists(names, corpus.tags_per_eval, corpus.annotators))


def reference_write_dataset(path: str, space: ClassSpace, records) -> None:
    """Manifest line followed by one unchecked JSON record per utterance,
    each evaluation's names in class order."""
    names = space.names
    _write_records(path, names, int(records[0].features.shape[0]) if records else 0,
                   [rec.uid for rec in records], [rec.split for rec in records],
                   (np.asarray(rec.features, dtype=np.float64).tolist() for rec in records),
                   ([[names[t] for t in sorted(ev)] for ev in rec.evaluations] for rec in records))


# Names that JSON escapes, or that hold the separators the encoder places.
AWKWARD_NAMES = ['"', "\\", "é", "日本", "],[", "]]}", "\n", "A", "a b"]
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0, -3.0, 1e16, 0.1]


@st.composite
def written_corpora(draw):
    """A space with awkward names and a corpus over it: record counts that
    straddle blocks of two, d = 0 or more, and multi-tag evaluations."""
    names = draw(st.lists(st.sampled_from(AWKWARD_NAMES) | st.text(min_size=1, max_size=4),
                          min_size=2, max_size=6, unique=True))
    k, n, d = len(names), draw(st.integers(0, 7)), draw(st.integers(0, 3))
    evaluation = st.sets(st.integers(0, k - 1), min_size=1, max_size=3)
    evaluations = draw(st.lists(st.lists(evaluation, min_size=1, max_size=4),
                                min_size=n, max_size=n))
    number = st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    features = draw(st.lists(st.lists(number, min_size=d, max_size=d), min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(-2**70, 2**70), min_size=n, max_size=n, unique=True))
    train = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return ClassSpace(tuple(names)), corpus_of(evaluations, k=k, features=np.reshape(
        np.array(features, dtype=np.float64), (n, d)), train=train, ids=ids)


class TestBlockEncoder:
    """The block encoder writes the bytes of the per-record writer above."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(written=written_corpora())
    def test_columns_write_the_reference_bytes(self, written):
        space, corpus = written
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_BLOCK", 2)
            got, want = pathlib.Path(tmp, "got.jsonl"), pathlib.Path(tmp, "want.jsonl")
            dataio.write_columns(got, space, corpus)
            reference_write_columns(want, space, corpus)
            assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("records", [sample_records(), []], ids=["sample", "none"])
    @pytest.mark.parametrize("block", [1, 128])
    def test_dataset_writes_the_reference_bytes(self, tmp_path, monkeypatch, records, block):
        monkeypatch.setattr(dataio, "_BLOCK", block)
        dataio.write_dataset(tmp_path / "got.jsonl", SPACE, records)
        reference_write_dataset(tmp_path / "want.jsonl", SPACE, records)
        assert (tmp_path / "got.jsonl").read_bytes() == (tmp_path / "want.jsonl").read_bytes()

    @pytest.mark.parametrize("evaluations, match", [
        ((), "at least one evaluation is required"),
        (((0,), ()), "an evaluation must contain at least one tag"),
    ], ids=["no-evaluation", "no-tag"])
    def test_record_without_a_tag_writes_no_file(self, tmp_path, evaluations, match):
        path = tmp_path / "data.jsonl"
        record = dataio.DatasetRecord(0, "train", np.zeros(3), evaluations)
        with pytest.raises(ValueError, match=match):
            dataio.write_dataset(path, SPACE, [record])
        assert not path.exists()

    @pytest.mark.parametrize("split, evaluations, match", [
        ("dev", ((0,),), r"splits \['dev'\] are not 'train' or 'test'"),
        ("train", ((-1,), (0,)), r"class indices \[-1\] are outside \[0, 3\)"),
        ("train", ((0, 3),), r"class indices \[3\] are outside \[0, 3\)"),
        ("train", ((1,), (2, 0, 2)), "duplicate tags in evaluation"),
    ], ids=["split-dev", "class-minus-1", "class-3", "repeat"])
    def test_bad_split_or_class_writes_no_file(self, tmp_path, split, evaluations, match):
        # Without the checks, "dev" would be written as "test", -1 as the last class
        # and a repeated tag twice, each a file the reader refuses or misreads.
        path = tmp_path / "data.jsonl"
        records = [sample_records()[0], dataio.DatasetRecord(1, split, np.zeros(3), evaluations)]
        with pytest.raises(ValueError, match=match):
            dataio.write_dataset(path, SPACE, records)
        assert not path.exists()

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(written=written_corpora())
    def test_dataset_of_the_rows_writes_the_columns_bytes(self, written):
        space, corpus = written
        records = [dataio.DatasetRecord(uid, "train" if train else "test", row,
                                       tuple(map(tuple, evs)))
                   for uid, train, row, evs in zip(
                       corpus.ids, corpus.train.tolist(), corpus.features,
                       tag_lists(corpus.tags, corpus.tags_per_eval, corpus.annotators))]
        if not records:  # no records carry no feature width, so the file says d = 0
            corpus = corpus_of([], k=space.k, features=np.empty((0, 0)))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "_BLOCK", 2)
            got, want = pathlib.Path(tmp, "got.jsonl"), pathlib.Path(tmp, "want.jsonl")
            dataio.write_dataset(got, space, records)
            dataio.write_columns(want, space, corpus)
            assert got.read_bytes() == want.read_bytes()

    def test_gen_writes_the_bytes_of_generated_records(self, tmp_path):
        # The crowd shape: multi-tag evaluations from 20 annotators over 10 classes.
        config = SynthConfig(n=1000, k=10, d=32, annotators=20, multi_tag_prob=0.2,
                             regime_precisions=(300, 40, 15), seed=42)
        got, want = tmp_path / "gen.jsonl", tmp_path / "records.jsonl"
        assert cli.main(["gen", "--n", "1000", "--k", "10", "--d", "32", "--annotators", "20",
                         "--multi-tag-prob", "0.2", "--precisions", "300,40,15",
                         "--seed", "42", "--out", str(got)]) == 0
        utterances, space = generate(config)
        n_train = round(config.n * (1.0 - config.test_frac))
        dataio.write_dataset(want, space, [
            dataio.DatasetRecord(u.uid, "train" if u.uid < n_train else "test", u.features,
                                 u.evaluations) for u in utterances])
        assert got.read_bytes() == want.read_bytes()


class TestFromTags:
    """``Corpus.from_tags``, which ``corpus_of`` calls, checks every tag layout and puts
    each evaluation in class order."""

    @pytest.mark.parametrize("evaluations, match", [
        ([[(0,)], [(-1,)]], r"class indices \[-1\] are outside \[0, 3\)"),
        ([[(3,)], [(0,)]], r"class indices \[3\] are outside \[0, 3\)"),
        ([[(1, 1)], [(0,)]], "duplicate tags in evaluation"),
        ([[(0,), ()], [(0,)]], "an evaluation must contain at least one tag"),
        ([[], [(0,)]], "at least one evaluation is required"),
    ], ids=["tag-minus-1", "tag-k", "repeat", "empty-evaluation", "no-evaluation"])
    def test_bad_layout_raises(self, evaluations, match):
        # Unchecked, -1 counts as the previous record's C, 3 as the next record's A,
        # and a repeat twice; the empty record would have no label.
        with pytest.raises(ValueError, match=match):
            corpus_of(evaluations)

    @pytest.mark.parametrize("tags, tags_per_eval, annotators, match", [
        ([2], [1, 1], [1, 1], "1 tags where tags_per_eval sums to 2"),
        ([0, 1, 2], [1, 1], [1, 1], "3 tags where tags_per_eval sums to 2"),
        ([0, 1], [1, 1], [1, 2], "2 evaluations where annotators sums to 3"),
    ], ids=["short-tags", "long-tags", "short-evaluations"])
    def test_layout_lengths_must_chain(self, tags, tags_per_eval, annotators, match):
        # Unchecked, the one tag [2] broadcast to both evaluations: tags [2, 2].
        with pytest.raises(ValueError, match=match):
            Corpus.from_tags([0, 1], np.ones(2, dtype=bool), np.zeros((2, 3)),
                             np.array(tags), np.array(tags_per_eval),
                             np.array(annotators), 3)

    @pytest.mark.parametrize("ids, train, features, match", [
        ([0, 1, 2], np.ones(2, dtype=bool), np.zeros((2, 3)), "3 ids, 2 splits and 2 feature"),
        ([0, 1], np.ones(1, dtype=bool), np.zeros((2, 3)), "2 ids, 1 splits and 2 feature"),
        ([0, 1], np.ones(2, dtype=bool), np.zeros((3, 3)), "2 ids, 2 splits and 3 feature"),
    ], ids=["ids", "train", "features"])
    def test_one_row_per_record(self, ids, train, features, match):
        with pytest.raises(ValueError, match=match + " rows for 2 records"):
            Corpus.from_tags(ids, train, features, np.array([0, 1]), np.array([1, 1]),
                             np.array([1, 1]), 3)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(written=written_corpora(), data=st.data())
    def test_accepted_layout_round_trips(self, written, data):
        space, corpus = written
        # The same layout with every evaluation's tags in a drawn order, which from_tags sorts.
        evals = np.repeat(np.arange(len(corpus.tags_per_eval)), corpus.tags_per_eval)
        shuffle = data.draw(st.permutations(range(len(corpus.tags))))
        tags = corpus.tags[np.lexsort((shuffle, evals))]
        built = Corpus.from_tags(corpus.ids, corpus.train, corpus.features, tags,
                                 corpus.tags_per_eval, corpus.annotators, space.k)
        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp, "data.jsonl")
            dataio.write_columns(path, space, built)
            read_space, read = dataio.read_dataset(path)
        assert read_space == space
        assert read.ids == built.ids
        for name in ("train", "features", "counts", "annotators", "groups", "majority", "tags",
                     "tags_per_eval"):
            got, want = getattr(read, name), getattr(built, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            np.testing.assert_array_equal(got, want, err_msg=name)

    def test_evaluation_is_put_in_class_order(self, tmp_path):
        given, ordered = corpus_of([[(2, 0)]]), corpus_of([[(0, 2)]])
        np.testing.assert_array_equal(given.tags, [0, 2])
        dataio.write_columns(tmp_path / "given.jsonl", SPACE, given)
        dataio.write_columns(tmp_path / "ordered.jsonl", SPACE, ordered)
        assert (tmp_path / "given.jsonl").read_bytes() == (tmp_path / "ordered.jsonl").read_bytes()


def reference_read_dataset(path):
    """The per-line reader: ``json.loads`` of every line that is not blank,
    then one ``Corpus.from_tags`` of the columns they give."""
    text = pathlib.Path(path).read_bytes().decode("utf-8")
    manifest, *docs = map(json.loads, [line for line in text.split("\n") if line.strip(" \t\r")])
    space = ClassSpace(tuple(manifest["classes"]))
    index = {name: i for i, name in enumerate(space.names)}
    evaluations = [ev for doc in docs for ev in doc["evaluations"]]
    return space, Corpus.from_tags(
        [doc["id"] for doc in docs], np.array([doc["split"] == "train" for doc in docs], bool),
        np.array([doc["features"] for doc in docs], dtype=np.float64).reshape(
            len(docs), manifest["feature_dim"]),
        np.array([index[name] for ev in evaluations for name in ev], dtype=np.int64),
        np.array([len(ev) for ev in evaluations], dtype=np.int64),
        np.array([len(doc["evaluations"]) for doc in docs], dtype=np.int64), space.k)


BLANK_LINES = ["", " ", "\t", "\r", " \t\r "]


class TestReader:
    """``read_dataset`` gives the columns of the per-line reader above."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(written=written_corpora(), data=st.data())
    def test_reads_the_reference_columns(self, written, data):
        space, corpus = written
        # Every evaluation's tags in a drawn order, which write_columns keeps.
        evals = np.repeat(np.arange(len(corpus.tags_per_eval)), corpus.tags_per_eval)
        shuffle = data.draw(st.permutations(range(len(corpus.tags))))
        corpus = replace(corpus, tags=corpus.tags[np.lexsort((shuffle, evals))])
        cr = data.draw(st.sampled_from(["", "\r"]))  # LF or CRLF line ends
        block = data.draw(st.sampled_from([2, 3]))
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            path = pathlib.Path(tmp, "data.jsonl")
            dataio.write_columns(path, space, corpus)
            lines = []
            for line in path.read_bytes().decode("utf-8").split("\n")[:-1]:
                lines += data.draw(st.lists(st.sampled_from(BLANK_LINES), max_size=2))
                lines.append(line + cr)
            lines += data.draw(st.lists(st.sampled_from(BLANK_LINES), max_size=2))
            path.write_bytes("\n".join(lines).encode("utf-8"))
            mp.setattr(dataio, "_BLOCK", block)
            got_space, got = dataio.read_dataset(path)
            want_space, want = reference_read_dataset(path)
        assert got_space == want_space == space
        assert got.ids == want.ids and all(type(uid) is int for uid in got.ids)
        for name in ("train", "features", "counts", "annotators", "groups", "majority", "tags",
                     "tags_per_eval"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        assert got.features.tobytes() == want.features.tobytes()

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("bad", [False, True], ids=["good", "bad-line"])
    def test_collector_state_is_kept(self, tmp_path, monkeypatch, enabled, bad):
        path = tmp_path / "data.jsonl"
        dataio.write_dataset(path, SPACE, sample_records())
        if bad:
            path.write_text(path.read_text().replace('"split":"test"', '"split":"dev"'))
        paused = []
        real = dataio._corpus

        def columns(*args):
            paused.append(not gc.isenabled())
            return real(*args)

        monkeypatch.setattr(dataio, "_corpus", columns)
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            if bad:
                with pytest.raises(ValueError, match="line 3: split 'dev'"):
                    dataio.read_dataset(path)
            else:
                dataio.read_dataset(path)
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert paused == [True]


def train_only(records):
    return [dataio.DatasetRecord(r.uid, "train", r.features, r.evaluations) for r in records]


class TestCorpusRows:
    def test_derived_views(self, tmp_path):
        corpus = read_sample(tmp_path, train_only(sample_records()))
        example, single = corpus
        assert example.uid == 0
        assert example.group == AgreementGroup.MAJORITY
        assert example.majority == 0
        assert len(example.labels) == 4
        np.testing.assert_allclose(example.soft.p, [0.5, 0.25, 0.25], atol=1e-15)
        assert (single.uid, single.group, single.majority) == (1, AgreementGroup.FULL, 1)
        np.testing.assert_array_equal(single.soft.p, [0.0, 1.0, 0.0])

    def test_only_train_rows(self, tmp_path):
        corpus = read_sample(tmp_path, sample_records())
        assert [e.uid for e in corpus.select(corpus.train)] == [0]

    @pytest.mark.parametrize("rows", [
        np.array([0, 2, 1]),
        np.array([1, 0, 1]),
        [True, False, True],
        np.array([True, False]),
        np.array([[True, False, True]]),
    ], ids=["indices", "ints", "list", "short", "2d"])
    def test_select_takes_only_a_boolean_mask(self, rows):
        # An index array once gave 2 ids beside 3 count rows.
        corpus = corpus_of([[[0]], [[1], [1]], [[2]]])
        with pytest.raises(ValueError, match=r"select takes a boolean mask of shape \(3,\)"):
            corpus.select(rows)
        picked = corpus.select(np.array([True, False, True]))
        assert picked.ids == [0, 2]
        np.testing.assert_array_equal(picked.counts, [[1, 0, 0], [0, 0, 1]])
        np.testing.assert_array_equal(picked.tags, [0, 2])

    @pytest.mark.parametrize("index", [slice(0, 2), 1.0, np.array([0, 1]), "0"],
                             ids=["slice", "float", "array", "str"])
    def test_rows_take_only_integer_indices(self, index):
        corpus = corpus_of([[[0]], [[1], [1]], [[2]]])
        with pytest.raises(TypeError, match="Corpus indices must be integers; select takes"):
            corpus[index]
        assert corpus[np.int64(1)].uid == corpus[-2].uid == 1
        assert [row.majority for row in corpus] == [0, 1, 2]

    def test_classifies_agreement_once(self, tmp_path, monkeypatch):
        # One call of the batch rule for the whole file, none per record.
        path = tmp_path / "sample.jsonl"
        dataio.write_dataset(path, SPACE, sample_records())
        calls = []
        rule = annotations.agreement
        monkeypatch.setattr(annotations, "agreement",
                            lambda *args: calls.append(1) or rule(*args))
        assert len(dataio.read_dataset(path)[1]) == 2
        assert len(calls) == 1

    def test_columns_of_the_train_rows(self, tmp_path):
        corpus = read_sample(tmp_path, sample_records())
        examples = corpus.select(corpus.train)
        assert isinstance(examples, Corpus)
        np.testing.assert_array_equal(examples.features, [[0.25, -1.5, 3.125]])
        np.testing.assert_array_equal(examples.counts, [[2, 1, 1]])
        assert examples.groups.tolist() == [AgreementGroup.MAJORITY]
        assert examples.majority.tolist() == [0]
        assert examples.ids == [0]

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
        corpus = dataio.read_dataset(path)[1]
        examples = corpus.select(corpus.train)
        kept = [r for r in records if r.split == "train"]
        assert len(examples) == len(kept) == 90
        eye = np.eye(space.k)
        for example, rec in zip(examples, kept, strict=True):
            counts = np.bincount([t for ev in rec.evaluations for t in ev],
                                 minlength=space.k)
            groups, majority = annotations.agreement(counts[None], [len(rec.evaluations)])
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
        config = TrainConfig(loss=LossConfig(LossKind.HARD), hidden=(4,))
        path = tmp_path / "m.json"
        dataio.write_checkpoint(path, params, SPACE, config)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1

    # Every field as an int, a float or a numpy scalar: the configs store the
    # float and ints that JSON writes and read_checkpoint reads back.
    @pytest.mark.parametrize("config", [
        TrainConfig(loss=LossConfig(LossKind.DPN_KL, lam=20), learning_rate=1, batch_size=16,
                    epochs=2, seed=5, hidden=[4]),
        TrainConfig(loss=LossConfig(LossKind.DPN, eps1=np.float32(0.01), eps2=np.float64(1e-8)),
                    learning_rate=np.float32(0.05), batch_size=np.int64(8), epochs=np.int32(3),
                    seed=np.uint64(2**63), hidden=(np.int64(4),)),
        TrainConfig(loss=LossConfig(LossKind.SOFT_KL, eps1=0, eps2=0, lam=0), learning_rate=0,
                    hidden=(np.int16(4),)),
    ], ids=["python-ints", "numpy-scalars", "zero-ints"])
    def test_every_config_round_trips(self, tmp_path, config):
        for value in (config.loss.eps1, config.loss.eps2, config.loss.lam, config.learning_rate):
            assert type(value) is float
        for value in (config.batch_size, config.epochs, config.seed, *config.hidden):
            assert type(value) is int
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        dataio.write_checkpoint(first, init(3, config.hidden, 3, seed=1), SPACE, config)
        params, space, loaded = dataio.read_checkpoint(first)
        assert loaded == config
        dataio.write_checkpoint(second, params, space, loaded)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("make", [
        lambda: LossConfig(LossKind.DPN_KL, lam=True),
        lambda: LossConfig(LossKind.DPN, eps1=np.True_),
        lambda: LossConfig(LossKind.DPN, eps2=False),
        lambda: TrainConfig(loss=LossConfig(LossKind.HARD), learning_rate=True),
        lambda: TrainConfig(loss=LossConfig(LossKind.HARD), batch_size=True),
        lambda: TrainConfig(loss=LossConfig(LossKind.HARD), epochs=np.True_),
        lambda: TrainConfig(loss=LossConfig(LossKind.HARD), seed=False),
        lambda: TrainConfig(loss=LossConfig(LossKind.HARD), hidden=(4, True)),
    ], ids=["lambda", "eps1", "eps2", "learning_rate", "batch_size", "epochs", "seed", "hidden"])
    def test_configs_refuse_bool(self, make):
        # JSON would write true, which read_checkpoint refuses as mistyped.
        with pytest.raises(ValueError, match="bool|got (True|False)"):
            make()

    @pytest.mark.parametrize("field", ["batch_size", "epochs", "seed"])
    def test_integer_fields_refuse_fractions(self, field):
        with pytest.raises(TypeError):
            TrainConfig(loss=LossConfig(LossKind.HARD), **{field: 2.5})

    # Each setting read_checkpoint refuses for these layers, with its message.
    @pytest.mark.parametrize("k, names, config, message", [
        (3, ("A", "B", "C"), TrainConfig(loss=LossConfig(LossKind.HARD), hidden=(5,)),
         "dims or hidden do not match the layers {'input': 4, 'hidden': [8], 'output': 3}"),
        (3, ("A", "B"), TrainConfig(loss=LossConfig(LossKind.HARD), hidden=(8,)),
         "last layer has 3 units for 2 classes"),
        (5, tuple("ABCDE"), TrainConfig(loss=LossConfig(LossKind.DPN, eps2=4e307), hidden=(8,)),
         "eps2 must keep K*(e^60 + eps2) finite, so lie below 3.595e+307 for K = 5, got 4e+307"),
    ], ids=["hidden", "classes", "eps2"])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, k, names, config, message):
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dataio.write_checkpoint(path, init(4, (8,), k, seed=0), ClassSpace(names), config)
        assert not path.exists()

    @pytest.mark.parametrize("hidden", [(), (4,), (5, 2)])
    def test_layers_read_back_as_c_contiguous_float64(self, tmp_path, hidden):
        params = init(3, list(hidden), 3, seed=4)
        path = tmp_path / "m.json"
        dataio.write_checkpoint(path, params, SPACE, TrainConfig(loss=LossConfig(LossKind.HARD),
                                                                 hidden=hidden))
        loaded = dataio.read_checkpoint(path)[0]
        assert len(loaded.weights) == len(loaded.biases) == len(hidden) + 1
        for got, want in zip(loaded.weights + loaded.biases, params.weights + params.biases):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.shape == want.shape
            np.testing.assert_array_equal(got, want)


# The checkpoint writer that the row encoder replaced, verbatim: one
# json.dumps with indent=1, which sends every number through the pure-Python encoder.
def reference_write_checkpoint(path, params, space, config) -> None:
    doc = {
        "format_version": dataio.FORMAT_VERSION,
        "kind": "checkpoint",
        "classes": list(space.names),
        "dims": dataio._dims(params),
        "train_config": {
            "loss": config.loss.kind.value,
            "eps1": config.loss.eps1,
            "eps2": config.loss.eps2,
            "lambda": config.loss.lam,
            "learning_rate": config.learning_rate,
            "batch_size": config.batch_size,
            "epochs": config.epochs,
            "seed": config.seed,
            "hidden": list(config.hidden),
        },
        "layers": [
            {
                "weights": np.asarray(w, dtype=np.float64).tolist(),
                "bias": np.asarray(b, dtype=np.float64).tolist(),
            }
            for w, b in zip(params.weights, params.biases)
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=1) + "\n")


WEIGHT_EDGES = EDGE_FLOATS + [1e-5, 2.0, -7.0, 1e22, float("nan"), float("inf"), float("-inf")]


@st.composite
def checkpoints(draw):
    """Params of 1 to 3 layers of width 1 to 9 (``hidden=()`` for one), edge and
    drawn weights, over classes with names that JSON escapes or that hold the
    separators the writer places."""
    # A class space needs two classes, so the last layer has two units or more.
    dims = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3)) + [draw(st.integers(2, 9))]
    number = st.sampled_from(WEIGHT_EDGES) | st.floats()
    def array(*shape):
        return np.reshape(np.array(draw(st.lists(number, min_size=int(np.prod(shape)),
                                                 max_size=int(np.prod(shape)))),
                                   dtype=np.float64), shape)
    params = ModelParams([array(a, b) for a, b in zip(dims, dims[1:])],
                         [array(b) for b in dims[1:]])
    names = draw(st.lists(st.sampled_from(AWKWARD_NAMES + [",", "}", "]"]) | st.text(min_size=1),
                          min_size=dims[-1], max_size=dims[-1], unique=True))
    loss = draw(st.sampled_from([LossConfig.default_for(kind) for kind in LossKind]))
    config = TrainConfig(loss=loss, learning_rate=draw(st.sampled_from([1e-2, 1, 0.0])),
                         hidden=tuple(dims[1:-1]))
    return params, ClassSpace(tuple(names)), config


class TestCheckpointWriter:
    """``write_checkpoint`` writes the bytes of the indent=1 writer above."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(checkpoint=checkpoints())
    def test_writes_the_reference_bytes(self, checkpoint):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = pathlib.Path(tmp, "got.json"), pathlib.Path(tmp, "want.json")
            dataio.write_checkpoint(got, *checkpoint)
            reference_write_checkpoint(want, *checkpoint)
            assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("shapes", [[(0, 3)], [(2, 0), (0, 3)]], ids=["no-rows", "no-columns"])
    def test_empty_layers_write_the_reference_bytes(self, tmp_path, shapes):
        params = ModelParams([np.zeros(shape) for shape in shapes],
                             [np.zeros(shape[1]) for shape in shapes])
        config = TrainConfig(loss=LossConfig(LossKind.HARD), hidden=params.dims[1:-1])
        dataio.write_checkpoint(tmp_path / "got.json", params, SPACE, config)
        reference_write_checkpoint(tmp_path / "want.json", params, SPACE, config)
        assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


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


# The report writer that the one JSON layout replaced, verbatim: a second
# hand-written indent=1 writer with every float at 6 decimal places.
def _fmt_json_6dp(obj, indent: int = 0) -> str:
    # Floats at fixed 6 decimal places; non-finite values become null.
    pad = " " * indent
    if isinstance(obj, dict):
        inner = ",\n".join(
            f'{pad} "{key}": {_fmt_json_6dp(value, indent + 1)}'
            for key, value in obj.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, float):
        return f"{obj:.6f}" if math.isfinite(obj) else "null"
    return json.dumps(obj)


def reference_write_report(path, report) -> None:
    doc = {"format_version": dataio.FORMAT_VERSION, "kind": "report", **asdict(report)}
    doc["per_group"] = {group.name.lower(): gm for group, gm in doc["per_group"].items()}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_fmt_json_6dp(doc) + "\n")


# The training-log writer that the one-pass writer replaced, verbatim.
def reference_write_train_log(path, losses) -> None:
    lines = ["epoch,mean_loss"]
    for epoch, value in enumerate(losses):
        lines.append(f"{epoch},{value!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


REPORT_EDGES = [-0.0, 5e-324, 0.9999995, 1e16, float("nan"), float("inf"), float("-inf")]
REALS = st.sampled_from(REPORT_EDGES) | st.floats()


@st.composite
def reports(draw):
    """Edge and drawn values in every float field, None in the optional ones, and
    counts up to 2**40."""
    optional = REALS | st.none()
    def metrics():
        return GroupMetrics(draw(st.integers(0, 2**40)), draw(REALS), draw(REALS), draw(REALS),
                            draw(optional), draw(optional))
    return MetricsReport(draw(optional), draw(optional), draw(REALS), draw(REALS),
                         draw(optional), draw(optional),
                         {group: metrics() for group in AgreementGroup})


class TestReportAndLogWriters:
    """``write_report`` and ``write_train_log`` write the bytes of the writers above."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(report=reports())
    def test_report_writes_the_reference_bytes(self, report):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = pathlib.Path(tmp, "got.json"), pathlib.Path(tmp, "want.json")
            dataio.write_report(got, report)
            reference_write_report(want, report)
            assert got.read_bytes() == want.read_bytes()

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(losses=st.lists(REALS, max_size=50))
    def test_train_log_writes_the_reference_bytes(self, losses):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = pathlib.Path(tmp, "got.csv"), pathlib.Path(tmp, "want.csv")
            dataio.write_train_log(got, losses)
            reference_write_train_log(want, losses)
            assert got.read_bytes() == want.read_bytes()


def reference_write_curve(path, curve):
    """The per-row encoder ``write_curve`` replaced: one f-string per point."""
    lines = ["threshold,precision,recall"]
    for threshold, precision, recall in curve.points.tolist():
        lines.append(f"{threshold:.6f},{precision:.6f},{recall:.6f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


CURVE_EDGES = [-0.0, 0.0, 4.9999995e-7, -4.9999995e-7, 5e-7, -5e-7, 0.9999995, 1.0,
               1.5e6, 123456789.123456789, 1e300, 5e-324]


class TestCurveAndLog:
    @pytest.mark.parametrize("rows", [0, 1, 5000])
    def test_curve_writes_the_reference_bytes(self, tmp_path, rows):
        rng = np.random.default_rng(rows)
        curve = PRCurve(np.column_stack((rng.normal(size=rows), rng.random(rows),
                                         np.sort(rng.random(rows)))))
        assert curve.points.shape == (rows, 3)
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        dataio.write_curve(got, curve)
        reference_write_curve(want, curve)
        assert got.read_bytes() == want.read_bytes()

    def test_curve_edge_values_write_the_reference_bytes(self, tmp_path):
        edges = np.array(CURVE_EDGES)
        curve = PRCurve(np.column_stack((edges, edges[::-1], np.roll(edges, 3))))
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        dataio.write_curve(got, curve)
        reference_write_curve(want, curve)
        assert got.read_bytes() == want.read_bytes()
        assert got.read_text().splitlines()[1].startswith("-0.000000,")

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
    assert list(tag_lists(loaded.tags, loaded.tags_per_eval, loaded.annotators)) == [
        [list(ev) for ev in rec.evaluations] for rec in records]
    np.testing.assert_array_equal(loaded.features, [rec.features for rec in records])
