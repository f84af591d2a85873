"""Self-tests of the benchmark harness at tiny sizes.

    python3 -m pytest bench/test_harness.py -q

They check that every metric named in BENCHMARK.json is printed with its
unit, that a tampered report and a non-zero exit each count as a failed
operation, that traced counts repeat exactly, and that the benchmark
refuses to run without the package's sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
import run  # noqa: E402

sys.path.insert(0, run.SRC)
import harness as h  # noqa: E402
import tracer  # noqa: E402
from labelprior import dataio  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    SPEC = json.load(fh)

TINY = {
    "paper-pipeline": dict(corpus=h.GenSpec(200), epochs=1, orderings=False),
    "corpus-large": dict(corpus=h.GenSpec(400, test_frac=1.0), epochs=1,
                         setup_corpus=h.GenSpec(200)),
    "crowd-train": dict(corpus=dataclasses.replace(h.WORKLOADS["crowd-train"].corpus, n=300),
                        epochs=1),
}


@pytest.fixture()
def tiny(monkeypatch, tmp_path):
    for name, sizes in TINY.items():
        monkeypatch.setitem(h.WORKLOADS, name, dataclasses.replace(h.WORKLOADS[name], **sizes))
    monkeypatch.setattr(run, "WORK", str(tmp_path))
    monkeypatch.setattr(h, "REFERENCE_FILE", str(tmp_path / "none.json"))
    return tmp_path


def _run_main(argv: list[str]) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_printed_with_unit(tiny, workload):
    code, result = _run_main(["--workload", workload, "--seconds", "0", "--trace", "0"])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_printed_with_unit(tiny):
    code, result = _run_main(["--workload", "crowd-train", "--trace", "1"])
    assert code == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def _session(tmp_path, workload: str) -> tuple[h.Session, h.Workload]:
    w = dataclasses.replace(h.WORKLOADS[workload], **TINY[workload])
    return h.Session(str(tmp_path / "work"), h.DEFAULT_SEED), w


def test_tampered_report_is_a_failed_operation(tmp_path, monkeypatch):
    real = dataio.write_report

    def tampered(path, report):
        real(path, dataclasses.replace(report, wa=report.wa + 0.01))

    monkeypatch.setattr(dataio, "write_report", tampered)
    s, w = _session(tmp_path, "paper-pipeline")
    h.run_cycle(s, w, None)
    assert s.failed == len(h.LOSSES)
    assert all(p["argv"][0] == "eval" for p in s.problems)


def test_report_off_its_reference_is_a_failed_operation(tmp_path):
    s, w = _session(tmp_path / "one", "corpus-large")
    h.run_cycle(s, w, h.setup(s, w, record=False))
    with open(os.path.join(s.workdir, "cycle", "report_dpn-kl.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["mean_kl"] += 0.01
    s, w = _session(tmp_path / "two", "corpus-large")
    s.reference = {"cycle/report_dpn-kl.json": doc}
    h.run_cycle(s, w, h.setup(s, w, record=False))
    assert s.failed == 1 and "mean_kl" in s.problems[0]["problems"][0]


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    s, _ = _session(tmp_path, "paper-pipeline")
    missing = str(tmp_path / "missing.jsonl")
    s.run([s.transform(missing, str(tmp_path / "out.jsonl"))], "cycle")
    assert (s.attempted, s.failed) == (1, 1)
    assert s.problems[0]["problems"][0].startswith("exit 1")


def test_changed_bytes_on_rerun_are_a_failed_operation(tmp_path, monkeypatch):
    s, w = _session(tmp_path, "corpus-large")
    ckpts = h.setup(s, w, record=False)
    h.run_cycle(s, w, ckpts)
    assert s.failed == 0
    real = dataio.write_curve

    def shifted(path, curve):
        real(path, dataclasses.replace(curve, points=curve.points[:-1]))

    monkeypatch.setattr(dataio, "write_curve", shifted)
    h.run_cycle(s, w, ckpts)
    assert s.failed == 1 and s.problems[0]["problems"] == ["output bytes differ from the first run"]


def _traced_counts(tmp_path, workload: str, tag: str) -> dict:
    s, w = _session(tmp_path / tag, workload)
    ckpts = h.setup(s, w, record=False)
    tr = tracer.Tracer()
    with tracer.traced(tr):
        h.run_cycle(s, w, ckpts, record=False)
    assert s.failed == 0
    return {k: v for k, (v, unit) in tr.layer_metrics().items() if unit != "s"}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_counts_repeat_exactly(tmp_path, workload):
    first = _traced_counts(tmp_path, workload, "one")
    assert first == _traced_counts(tmp_path, workload, "two")
    if workload == "corpus-large":
        assert first["specfun.calls"] == 0 and first["losses.calls"] == 0
    else:
        assert first["model.passes_per_example"] == 2.0
        assert first["losses.calls"] > 0 and first["specfun.calls"] > 0


def test_tracing_restores_the_package(tmp_path):
    from labelprior import cli, losses, model

    before = (cli.main, model.example_loss, losses.log_gamma, dataio.read_dataset)
    with tracer.traced(tracer.Tracer()):
        assert model.example_loss is not before[1]
    assert (cli.main, model.example_loss, losses.log_gamma, dataio.read_dataset) == before


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "paper-pipeline", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
