"""Property test of the file contract: any single-field corruption of a
dataset or checkpoint exits 1 with an error that names the file."""

import contextlib
import io
import json
import math

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


def assert_rejected(code, err, path):
    assert code == 1, err
    assert err.startswith(f"error: {path}"), err
    assert "Traceback" not in err


@settings(derandomize=True, max_examples=150, deadline=None)
@given(site=st.sampled_from(DATASET_SITES), value=BAD_VALUES)
def test_corrupt_dataset_field_is_data_error(files, site, value):
    root, data, ckpt = files
    with open(data, encoding="utf-8") as fh:
        docs = [json.loads(line) for line in fh]
    line, path = site
    corrupt(docs[line], path, value)
    bad = str(root / "bad.jsonl")
    with open(bad, "w", encoding="utf-8") as fh:
        fh.write("\n".join(json.dumps(doc) for doc in docs) + "\n")
    assert_rejected(*run_eval(root, bad, ckpt), bad)


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
