"""Property test of the columnar reader against a reference built here:
``json.loads`` per line and ``vote_matrix`` over ``Evaluation`` objects.

Corpora come from ``gen`` over the shapes it admits, with the tag order
shuffled inside every evaluation; the reader's columns must equal the
reference's, and ``transform`` must write the shuffled file byte for byte
as it writes the sorted one.  ``Corpus.select`` must slice every column
by a drawn mask."""

import contextlib
import dataclasses
import io
import json
import pathlib
import tempfile
from itertools import compress

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from labelprior import cli, dataio
from labelprior.annotations import ClassSpace, Evaluation, agreement, vote_matrix


def run(*args) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in args])
    return code, err.getvalue()


def reference(path):
    """Columns of a dataset file built record by record."""
    with open(path, encoding="utf-8") as fh:
        manifest, *docs = [json.loads(line) for line in fh]
    space = ClassSpace(tuple(manifest["classes"]))
    evaluation_sets = [tuple(Evaluation(tuple(space.index(name) for name in tags))
                             for tags in doc["evaluations"]) for doc in docs]
    counts, annotators = vote_matrix(evaluation_sets, space)
    groups, majority = agreement(counts, annotators)
    return {
        "ids": [doc["id"] for doc in docs],
        "train": np.array([doc["split"] == "train" for doc in docs]),
        "features": np.array([doc["features"] for doc in docs], dtype=np.float64),
        "counts": counts,
        "annotators": annotators,
        "groups": groups,
        "majority": majority,
        "file_tags": [[[space.index(name) for name in tags] for tags in doc["evaluations"]]
                      for doc in docs],
        "evaluation_sets": evaluation_sets,
    }


def write_lines(path, manifest, docs) -> pathlib.Path:
    path.write_text("\n".join(json.dumps(doc, separators=(",", ":"))
                              for doc in [manifest, *docs]) + "\n", encoding="utf-8")
    return path


corpora = st.integers(2, 8).flatmap(lambda k: st.fixed_dictionaries({
    "k": st.just(k),
    "d": st.integers(k, k + 4),
    "n": st.integers(1, 30),
    "annotators": st.integers(1, 10),
    "multi_tag_prob": st.floats(0.0, 0.9),
    "precisions": st.lists(st.floats(k - 1, k + 150, exclude_min=True), min_size=3, max_size=3),
    "test_frac": st.sampled_from([0.0, 0.3, 1.0]),
    "seed": st.integers(0, 2**16),
}))


def gen_corpus(data, shape):
    assert run("gen", "--n", shape["n"], "--k", shape["k"], "--d", shape["d"],
               "--annotators", shape["annotators"],
               "--multi-tag-prob", shape["multi_tag_prob"],
               "--precisions", ",".join(map(repr, shape["precisions"])),
               "--test-frac", shape["test_frac"], "--seed", shape["seed"],
               "--out", data) == (0, "")


@settings(derandomize=True, max_examples=30, deadline=None)
@given(shape=corpora, shuffle_seed=st.integers(0, 2**16), fault=st.sampled_from(["dup", "empty"]))
def test_reader_matches_reference(shape, shuffle_seed, fault):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        data = root / "data.jsonl"
        gen_corpus(data, shape)
        manifest, *docs = [json.loads(line) for line in data.read_text().splitlines()]
        gen = np.random.default_rng(shuffle_seed)
        for doc in docs:
            for tags in doc["evaluations"]:
                gen.shuffle(tags)
        shuffled = write_lines(root / "shuffled.jsonl", manifest, docs)

        want = reference(shuffled)
        space, corpus = dataio.read_dataset(shuffled)
        assert space.names == tuple(manifest["classes"])
        assert len(corpus) == shape["n"]
        assert corpus.ids == want["ids"]
        assert all(type(uid) is int for uid in corpus.ids)
        np.testing.assert_array_equal(corpus.train, want["train"])
        assert corpus.features.dtype == np.float64
        np.testing.assert_array_equal(corpus.features, want["features"])
        np.testing.assert_array_equal(corpus.counts, want["counts"])
        np.testing.assert_array_equal(corpus.annotators, want["annotators"])
        assert corpus.groups.tolist() == want["groups"].tolist()
        np.testing.assert_array_equal(corpus.majority, want["majority"])
        assert corpus.evaluation_sets() == want["evaluation_sets"]

        sorted_out, shuffled_out = root / "sorted_vr.jsonl", root / "shuffled_vr.jsonl"
        assert run("transform", "--data", data, "--out", sorted_out) == (0, "")
        assert run("transform", "--data", shuffled, "--out", shuffled_out) == (0, "")
        assert shuffled_out.read_bytes() == sorted_out.read_bytes()

        # A duplicate tag or an empty evaluation on one record still exits 1.
        row = int(gen.integers(len(docs)))
        tags = docs[row]["evaluations"][int(gen.integers(len(docs[row]["evaluations"])))]
        if fault == "dup":
            tags.append(tags[0])
            message = "ValueError('duplicate tags in evaluation')"
        else:
            tags.clear()
            message = "ValueError('an evaluation must contain at least one tag')"
        bad = write_lines(root / "bad.jsonl", manifest, docs)
        assert run("stats", "--data", bad) == (
            1, f"error: {bad}: line {row + 2}: bad record: {message}\n")


@settings(derandomize=True, max_examples=30, deadline=None)
@given(shape=corpora, data=st.data())
def test_select_slices_every_column(shape, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "data.jsonl"
        gen_corpus(path, shape)
        want = reference(path)
        corpus = dataio.read_dataset(path)[1]
    mask = np.array(data.draw(st.lists(st.booleans(), min_size=len(corpus),
                                       max_size=len(corpus))), dtype=bool)
    picked = corpus.select(mask)

    kept_evaluations = [ev for evs in compress(want["file_tags"], mask) for ev in evs]
    masked = {
        "ids": list(compress(want["ids"], mask)),
        "tags": [t for ev in kept_evaluations for t in ev],
        "tags_per_eval": [len(ev) for ev in kept_evaluations],
        **{name: want[name][mask]
           for name in ("train", "features", "counts", "annotators", "groups", "majority")},
    }
    assert {field.name for field in dataclasses.fields(picked)} == set(masked)
    assert len(picked) == int(mask.sum())
    for name, column in masked.items():
        got = getattr(picked, name)
        assert np.asarray(got).tolist() == np.asarray(column).tolist(), name
    assert picked.evaluation_sets() == list(compress(corpus.evaluation_sets(), mask))

    for got, i in zip(picked, np.flatnonzero(mask), strict=True):
        row = corpus[int(i)]
        assert (got.uid, got.group, got.majority) == (row.uid, row.group, row.majority)
        np.testing.assert_array_equal(got.features, row.features)
        np.testing.assert_array_equal(np.array(got.labels), np.array(row.labels))
        np.testing.assert_array_equal(got.soft.p, row.soft.p)
