"""Property test of the file contract: any single-field corruption of a
dataset or checkpoint exits 1 with an error that names the file, and the
line for a dataset record.  Huge integers, deep nesting, bytes that are
not UTF-8 and very long lines do the same, and of two bad lines the
earlier one is named.  Lines end at a line feed only, and a line is blank
only if it holds nothing but JSON whitespace."""

import contextlib
import io
import json
import math
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from labelprior import cli

MISSING = "<missing>"

# Values no field of either file admits: the letters x, y, z spell no
# class, split, kind or loss name and no number, and a boolean or a numeric
# string is not a JSON number.
BAD_VALUES = st.one_of(
    st.just(MISSING),
    st.none(),
    st.booleans(),
    st.sampled_from(["0", "1", "0.5"]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text("xyz", min_size=1, max_size=3),
    st.lists(st.text("xyz", min_size=1, max_size=2), max_size=3),
    st.dictionaries(st.text("xyz", min_size=1, max_size=2), st.integers(), max_size=2),
)

DATASET_SITES = (
    [(0, (key,)) for key in ("format_version", "kind", "classes", "feature_dim")]
    + [(line, (key,)) for line in (1, -1) for key in ("id", "split", "features", "evaluations")]
    + [(1, ("features", 2)), (-1, ("evaluations", 0)), (-1, ("evaluations", 0, 0))]
)

CHECKPOINT_SITES = (
    [(key,) for key in ("format_version", "kind", "classes", "dims", "train_config", "layers")]
    + [("dims", "hidden"), ("dims", "output")]
    + [("train_config", key) for key in ("loss", "eps1", "eps2", "lambda", "learning_rate",
                                         "batch_size", "epochs", "seed", "hidden")]
    + [("layers", i, key) for i in (0, 1) for key in ("weights", "bias")]
    + [("layers", 0, "weights", 1, 2), ("layers", 1, "bias", 0)]
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    data, ckpt = str(root / "data.jsonl"), str(root / "m.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", "--n", "40", "--k", "3", "--d", "4", "--seed", "1",
                         "--test-frac", "0.25", "--out", data]) == 0
        assert cli.main(["train", "--data", data, "--loss", "soft", "--epochs", "1",
                         "--hidden", "4", "--out", ckpt]) == 0
    return root, data, ckpt


def corrupt(doc, site, value):
    *parents, key = site
    for step in parents:
        doc = doc[step]
    if value == MISSING:
        # Dropping a list element can leave a valid list; drop only keys.
        assume(isinstance(doc, dict))
        del doc[key]
    else:
        doc[key] = value


def run_eval(root, data, ckpt) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["eval", "--data", data, "--ckpt", ckpt,
                         "--out", str(root / "report.json")])
    return code, err.getvalue()


def run_stats(data) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["stats", "--data", data])
    return code, out.getvalue(), err.getvalue()


def read_docs(data):
    with open(data, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def write_docs(path, docs, ensure_ascii=True) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(json.dumps(doc, ensure_ascii=ensure_ascii) for doc in docs) + "\n")
    return str(path)


def assert_rejected(code, err, path):
    assert code == 1, err
    assert err.startswith(f"error: {path}"), err
    assert "Traceback" not in err


@settings(derandomize=True, max_examples=150, deadline=None)
@given(site=st.sampled_from(DATASET_SITES), value=BAD_VALUES)
def test_corrupt_dataset_field_is_data_error(files, site, value):
    root, data, ckpt = files
    docs = read_docs(data)
    line, path = site
    corrupt(docs[line], path, value)
    bad = write_docs(root / "bad.jsonl", docs)
    code, err = run_eval(root, bad, ckpt)
    assert_rejected(code, err, bad)
    if line != 0:  # a record names its line; the manifest is line 1 of the file
        assert err.startswith(f"error: {bad}: line {line % len(docs) + 1}: "), err


@settings(derandomize=True, max_examples=150, deadline=None)
@given(site=st.sampled_from(CHECKPOINT_SITES), value=BAD_VALUES)
def test_corrupt_checkpoint_field_is_data_error(files, site, value):
    root, data, ckpt = files
    with open(ckpt, encoding="utf-8") as fh:
        doc = json.load(fh)
    corrupt(doc, site, value)
    bad = str(root / "bad.json")
    with open(bad, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert_rejected(*run_eval(root, data, bad), bad)


HUGE = b"1" + b"0" * 400  # a 401-digit JSON integer, beyond any float
NESTED = b"[" * 100_000


def huge_feature(lines):
    lines[1] = re.sub(rb'"features":\[[^,]*', b'"features":[' + HUGE, lines[1], count=1)


def nested_line(index):
    def edit(lines):
        lines[index] = NESTED
    return edit


def bad_byte(index, key):
    def edit(lines):
        lines[index] = lines[index].replace(key, key[:3] + b"\xff" + key[3:], 1)
    return edit


# (file, edit of its lines of bytes, the line an error names or None)
BYTE_CASES = {
    "record-huge-integer": ("data", huge_feature, 2),
    "record-nested": ("data", nested_line(1), 2),
    "record-not-utf8": ("data", bad_byte(1, b'"split"'), 2),
    "manifest-nested": ("data", nested_line(0), None),
    "manifest-not-utf8": ("data", bad_byte(0, b'"kind"'), 1),
    "checkpoint-nested": ("ckpt", nested_line(0), None),
    "checkpoint-not-utf8": ("ckpt", bad_byte(2, b'"kind"'), 3),
}


@pytest.mark.parametrize("case", sorted(BYTE_CASES))
def test_unreadable_bytes_are_data_errors(files, case):
    root, data, ckpt = files
    which, edit, line = BYTE_CASES[case]
    source = data if which == "data" else ckpt
    with open(source, "rb") as fh:
        lines = fh.read().split(b"\n")
    edit(lines)
    bad = str(root / f"bad-{case}")
    with open(bad, "wb") as fh:
        fh.write(b"\n".join(lines))
    code, err = run_eval(root, bad, ckpt) if which == "data" else run_eval(root, data, bad)
    assert_rejected(code, err, bad)
    prefix = f"error: {bad}: " + ("" if line is None else f"line {line}: ")
    assert err.startswith(prefix), err


def test_huge_integer_id_is_valid(files):
    # An id is any JSON integer, however many digits it has.
    root, data, ckpt = files
    docs = read_docs(data)
    docs[1]["id"] = int(HUGE)
    big = write_docs(root / "big-id.jsonl", docs)
    assert run_eval(root, big, ckpt) == (0, "")


def non_finite_feature(doc):
    doc["features"][0] = math.nan


def bad_split(doc):
    doc["split"] = "dev"


@pytest.mark.parametrize("first, second", [(non_finite_feature, bad_split),
                                           (bad_split, non_finite_feature)])
def test_earlier_of_two_bad_lines_is_named(files, first, second):
    # Lines 3 and 6 of the file: whichever fault comes first is reported.
    root, data, ckpt = files
    docs = read_docs(data)
    first(docs[2])
    second(docs[5])
    bad = write_docs(root / "two-faults.jsonl", docs)
    code, err = run_eval(root, bad, ckpt)
    assert_rejected(code, err, bad)
    message = ("non-finite feature" if first is non_finite_feature
               else "split 'dev' is not 'train' or 'test'")
    assert err.startswith(f"error: {bad}: line 3: {message}"), err


def test_very_long_line_names_it(files):
    root, data, ckpt = files
    docs = read_docs(data)
    docs[7]["features"] = [0.5] * 1_000_000
    bad = write_docs(root / "long.jsonl", docs)
    code, err = run_eval(root, bad, ckpt)
    assert_rejected(code, err, bad)
    assert err.startswith(f"error: {bad}: line 8: feature shape (1000000,) != (4,)"), err


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\u0085"])
def test_unicode_line_separator_inside_a_string_is_valid(files, separator):
    # JSON admits these raw inside a string; only a line feed ends a line.
    root, data, ckpt = files
    docs = read_docs(data)
    docs[1]["note"] = f"x{separator}y"
    noted = write_docs(root / "noted.jsonl", docs, ensure_ascii=False)
    assert separator in open(noted, encoding="utf-8").read()
    code, out, err = run_stats(noted)
    assert (code, err) == (0, ""), err
    assert "Number of total utterances" in out
    assert run_eval(root, noted, ckpt) == (0, "")
    # Every later line keeps its number.
    docs[4]["split"] = "dev"
    later = write_docs(root / "noted-bad.jsonl", docs, ensure_ascii=False)
    code, _, err = run_stats(later)
    assert code == 1
    assert err.startswith(f"error: {later}: line 5: split 'dev'"), err


def test_crlf_file_reads_like_lf(files):
    root, data, ckpt = files
    with open(data, "rb") as fh:
        text = fh.read()
    crlf = str(root / "crlf.jsonl")
    with open(crlf, "wb") as fh:
        fh.write(text.replace(b"\n", b"\r\n"))
    assert run_stats(crlf) == run_stats(data)
    assert run_eval(root, crlf, ckpt) == (0, "")
    # Leading spaces and tabs on the record lines too.
    manifest, *records = text.rstrip(b"\n").split(b"\n")
    with open(crlf, "wb") as fh:
        fh.write(b"\r\n".join([manifest] + [b"  \t" + line for line in records]) + b"\r\n")
    assert run_stats(crlf) == run_stats(data)
    assert run_eval(root, crlf, ckpt) == (0, "")


@pytest.mark.parametrize("control", ["\x1c", "\x0b", "\u0085", "\u2028", "\u3000"])
def test_raw_control_character_is_data_error(files, control):
    # None is JSON whitespace, so none may stand between tokens or make a
    # line blank; the C0 controls may not stand raw inside a JSON string
    # either (the others may, see the line separator test above).
    root, data, ckpt = files
    with open(data, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    edits = {"between tokens": lambda line: line.replace(",", "," + control, 1),
             "alone on a line": lambda line: control + "\n" + line}
    if control < " ":
        edits["string"] = (lambda line: line.replace('"test"', f'"te{control}st"', 1)
                           .replace('"train"', f'"tr{control}ain"', 1))
    for where, edit in edits.items():
        edited = lines.copy()
        edited[2] = edit(edited[2])
        assert edited[2] != lines[2]
        bad = str(root / "control.jsonl")
        with open(bad, "w", encoding="utf-8") as fh:
            fh.write("\n".join(edited))
        code, _, err = run_stats(bad)
        assert code == 1, where
        assert err.startswith(f"error: {bad}: line 3: bad record: JSONDecodeError("), (where, err)


def test_json_whitespace_line_is_blank(files):
    # A line of nothing but spaces, tabs and carriage returns is skipped,
    # before the manifest, between records and at the end.
    root, data, ckpt = files
    with open(data, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for at, blank in ((0, " "), (2, "\t"), (5, "\r"), (9, " \t\r \r"), (len(lines), "\t ")):
        lines.insert(at, blank)
    padded = str(root / "padded.jsonl")
    with open(padded, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    assert run_stats(padded) == run_stats(data)
    assert run_eval(root, padded, ckpt) == (0, "")
    # The records keep their numbers: the second one is now on line 5.
    docs = read_docs(data)
    docs[2]["split"] = "dev"
    lines[4] = json.dumps(docs[2])
    with open(padded, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    code, _, err = run_stats(padded)
    assert code == 1
    assert err.startswith(f"error: {padded}: line 5: split 'dev' is not 'train' or 'test'"), err


def one_wide(docs):
    docs[0]["feature_dim"] = 1
    for doc in docs[1:]:
        doc["features"] = doc["features"][:1]


# Values that equal a valid one under Python's == and hash, so a check by set
# membership alone would take them: (edit of the documents, the line named,
# the message after it).
SET_EQUALITY_TRAPS = {
    "feature-dim-true": (lambda docs: docs[0].update(feature_dim=True), None,
                         "manifest feature_dim must be an integer >= 0, got True"),
    "ids-1-and-true": (lambda docs: (docs[2].update(id=1), docs[4].update(id=True)), 5,
                       "bad record: TypeError('id must be an integer, got True')"),
    "id-1.0": (lambda docs: docs[2].update(id=1.0), 3,
               "bad record: TypeError('id must be an integer, got 1.0')"),
    "split-in-a-list": (lambda docs: docs[5].update(split=["train"]), 6,
                        "split \"['train']\" is not 'train' or 'test'"),
}


@pytest.mark.parametrize("case", sorted(SET_EQUALITY_TRAPS))
def test_set_equality_trap_is_data_error(files, case):
    root, data, ckpt = files
    edit, line, message = SET_EQUALITY_TRAPS[case]
    docs = read_docs(data)
    one_wide(docs)
    valid = write_docs(root / "one-wide.jsonl", docs)
    assert run_stats(valid)[0] == 0
    edit(docs)
    bad = write_docs(root / f"trap-{case}.jsonl", docs)
    code, _, err = run_stats(bad)
    assert code == 1
    where = "" if line is None else f"line {line}: "
    assert err == f"error: {bad}: {where}{message}\n"
