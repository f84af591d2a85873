"""Property test of the columnar reader against a reference built here:
``json.loads`` per line and a ``Counter`` of each record's class indices.

Corpora come from ``gen`` over the shapes it admits, with the tag order
shuffled inside every evaluation; the reader's columns must equal the
reference's, and ``transform`` must write the shuffled file byte for byte
as it writes the sorted one.  ``Corpus.select`` must slice every column
by a drawn mask.  On corpora of several blocks, with one drawn corruption
and layout, the reader's column checks must accept exactly the files its
line-by-line checks find no fault in, and reject the rest with that
line's message; a deeply nested value or a byte that is not UTF-8 in one
record line must be named at that line."""

import contextlib
import dataclasses
import io
import json
import math
import pathlib
import re
import tempfile
from collections import Counter
from itertools import compress
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from test_reader_contract import BAD_VALUES, DATASET_SITES, corrupt

from labelprior import cli, dataio
from labelprior.annotations import ClassSpace, agreement, tag_lists


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
    evaluation_sets = [[sorted(space.index(name) for name in tags) for tags in doc["evaluations"]]
                       for doc in docs]
    votes = [Counter(t for ev in evs for t in ev) for evs in evaluation_sets]
    counts = np.array([[v[c] for c in range(space.k)] for v in votes], dtype=np.int64)
    annotators = np.array(list(map(len, evaluation_sets)), dtype=np.int64)
    groups, majority = agreement(counts, annotators)
    return {
        "ids": [doc["id"] for doc in docs],
        "train": np.array([doc["split"] == "train" for doc in docs]),
        "features": np.array([doc["features"] for doc in docs], dtype=np.float64),
        "counts": counts,
        "annotators": annotators,
        "groups": groups,
        "majority": majority,
        # Each evaluation's class indices, in class order.
        "tag_lists": evaluation_sets,
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
        assert list(tag_lists(corpus.tags, corpus.tags_per_eval, corpus.annotators)) == (
            want["tag_lists"])

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

    kept_evaluations = [ev for evs in compress(want["tag_lists"], mask) for ev in evs]
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
    assert list(tag_lists(picked.tags, picked.tags_per_eval, picked.annotators)) == list(
        compress(tag_lists(corpus.tags, corpus.tags_per_eval, corpus.annotators), mask))

    for got, i in zip(picked, np.flatnonzero(mask), strict=True):
        row = corpus[int(i)]
        assert (got.uid, got.group, got.majority) == (row.uid, row.group, row.majority)
        np.testing.assert_array_equal(got.features, row.features)
        np.testing.assert_array_equal(np.array(got.labels), np.array(row.labels))
        np.testing.assert_array_equal(got.soft.p, row.soft.p)


# Corpora of two or three blocks of record lines, with a third feature for
# the ("features", 2) site.
several_blocks = st.builds(lambda shape, n: {**shape, "d": max(shape["d"], 3), "n": n}, corpora,
                           st.integers(dataio._BLOCK + 1, 3 * dataio._BLOCK))


# The first and last record; a manifest fault is found before either check.
RECORD_SITES = [(0 if line == 1 else -1, site) for line, site in DATASET_SITES if line]


def field_corruption(draw, docs):
    row, site = draw(st.sampled_from(RECORD_SITES))
    corrupt(docs[row], site, draw(BAD_VALUES))


def repeat_tag(draw, docs):
    doc = docs[draw(st.integers(0, len(docs) - 1))]
    tags = doc["evaluations"][draw(st.integers(0, len(doc["evaluations"]) - 1))]
    tags.append(tags[0])


def repeat_id_in_another_block(draw, docs):
    first = draw(st.integers(0, len(docs) - 1 - dataio._BLOCK))
    later = draw(st.integers(first + dataio._BLOCK, len(docs) - 1))
    docs[later]["id"] = docs[first]["id"]


def feature(values):
    def edit(draw, docs):
        doc = docs[draw(st.integers(0, len(docs) - 1))]
        doc["features"][draw(st.integers(0, len(doc["features"]) - 1))] = draw(values)
    return edit


def names_not_in_a_list(draw, docs):
    # Iterating a string or an object yields class names, as a list would.
    doc = docs[draw(st.integers(0, len(docs) - 1))]
    evaluations = doc["evaluations"]
    wrap = draw(st.sampled_from(["".join, dict.fromkeys]))
    if draw(st.booleans()):
        doc["evaluations"] = wrap(evaluations[0])
    else:
        evaluations[draw(st.integers(0, len(evaluations) - 1))] = wrap(evaluations[0])


def not_an_object(draw, docs):
    docs[draw(st.integers(0, len(docs) - 1))] = draw(st.sampled_from([[], ["id"], "id", 0, None]))


# A line-level corruption puts this string in place of one value of one
# record, and the laid-out file's bytes have its JSON replaced by the bytes
# in LINE_BYTES.
PLACEHOLDER = "\x00corrupt\x00"
LINE_BYTES = {"deep-nesting": b"[" * 100_000 + b"]" * 100_000, "not-utf8": b'"\xff"'}


def placeholder_value(draw, docs):
    doc = docs[draw(st.integers(0, len(docs) - 1))]
    doc[draw(st.sampled_from(["id", "split", "features", "evaluations"]))] = PLACEHOLDER


CORRUPTIONS = {"field": field_corruption, "repeat-tag": repeat_tag,
               "repeat-id": repeat_id_in_another_block,
               "names-not-in-a-list": names_not_in_a_list, "not-an-object": not_an_object,
               "huge-feature": feature(st.just(10**400)),
               "non-finite-feature": feature(st.sampled_from([math.nan, math.inf, -math.inf])),
               **dict.fromkeys(LINE_BYTES, placeholder_value)}


def crlf_and_indent(draw, lines):
    return [lines[0]] + [draw(st.sampled_from(["", " ", "\t ", "  "])) + line + "\r"
                         for line in lines[1:]]


def blank_lines(draw, lines):
    lines = list(lines)
    for _ in range(draw(st.integers(1, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(" \t\r", min_size=1, max_size=3)))
    return lines


def non_json_whitespace(draw, lines):
    # None of these characters is JSON whitespace: a line of one is not
    # blank, and one before or after a record is not JSON.
    lines = list(lines)
    char = draw(st.sampled_from("\x0b\x1c\u0085\u3000"))
    at = draw(st.integers(1, len(lines) - 2))
    where = draw(st.sampled_from(["own line", "before", "after"]))
    if where == "own line":
        lines.insert(at, char)
    else:
        lines[at] = char + lines[at] if where == "before" else lines[at] + char
    return lines


def extra_data(draw, lines):
    lines = list(lines)
    lines[draw(st.integers(1, len(lines) - 2))] += draw(st.sampled_from([" 0", "{}", ",", "\t]"]))
    return lines


LAYOUTS = {"lf": lambda draw, lines: lines, "crlf-indent": crlf_and_indent,
           "blank-lines": blank_lines, "non-json-whitespace": non_json_whitespace,
           "extra-data": extra_data}
BAD_LAYOUTS = {"non-json-whitespace", "extra-data"}


def read(path):
    """The reader's corpus or its error message."""
    try:
        return dataio.read_dataset(path)[1]
    except ValueError as err:
        return str(err)


def first_line_fault(path):
    """The message of the line-by-line checks alone, or None for no fault."""
    with mock.patch.object(dataio, "_corpus", lambda *args: None):
        try:
            dataio.read_dataset(path)
        except ValueError as err:
            return str(err)
        except RuntimeError:
            return None


def accepted(path, clean) -> bool:
    """Whether the reader takes ``path``, after checking that its column and
    line checks agree: the same message, or the columns of ``clean``."""
    got, fault = read(path), first_line_fault(path)
    if fault is not None:
        assert got == fault
        return False
    want = reference(clean)
    assert got.ids == want["ids"]
    for name in ("train", "features", "counts", "annotators", "majority"):
        np.testing.assert_array_equal(getattr(got, name), want[name])
    assert got.groups.tolist() == want["groups"].tolist()
    assert list(tag_lists(got.tags, got.tags_per_eval, got.annotators)) == want["tag_lists"]
    return True


@settings(derandomize=True, max_examples=80, deadline=None)
@given(shape=several_blocks, corruption=st.sampled_from(sorted(CORRUPTIONS)),
       layout=st.sampled_from(sorted(LAYOUTS)), draw=st.data())
def test_column_checks_agree_with_line_checks(shape, corruption, layout, draw):
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        data = root / "data.jsonl"
        gen_corpus(data, shape)
        manifest, *docs = [json.loads(line) for line in data.read_text().splitlines()]

        def laid_out(clean):
            lines = LAYOUTS[layout](draw.draw, clean.read_text(encoding="utf-8").split("\n"))
            path = clean.with_suffix(".laid-out")
            path.write_text("\n".join(lines), encoding="utf-8", newline="")
            return path

        clean = write_lines(root / "clean.jsonl", manifest, docs)
        assert accepted(laid_out(clean), clean) == (layout not in BAD_LAYOUTS)
        CORRUPTIONS[corruption](draw.draw, docs)
        bad = write_lines(root / "bad.jsonl", manifest, docs)
        path = laid_out(bad)
        if corruption in LINE_BYTES:
            text, placeholder = path.read_bytes(), json.dumps(PLACEHOLDER).encode()
            line = text.count(b"\n", 0, text.index(placeholder)) + 1
            path.write_bytes(text.replace(placeholder, LINE_BYTES[corruption]))
        assert not accepted(path, bad)
        if corruption in LINE_BYTES:
            # A layout fault on an earlier line is named first; the whole
            # file is decoded before any line is read.
            named = int(re.search(r": line (\d+): ", read(path)).group(1))
            if layout in BAD_LAYOUTS and corruption == "deep-nesting":
                assert named <= line
            else:
                assert named == line
