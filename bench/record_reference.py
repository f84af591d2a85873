"""Record the reference eval reports of every workload for the default and
the held-out seed into bench/reference.json.

    python3 bench/record_reference.py

Later runs with either seed compare their reports against these values
(within oracle.REFERENCE_TOL).  Re-record only when a change is meant to
alter what training or evaluation computes, and say so with the change.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import run

sys.path.insert(0, run.SRC)
run._cap_threads(run._thread_cap())
import harness as h  # noqa: E402


def record(workload: h.Workload, seed: int, workdir: str) -> dict:
    s = h.Session(workdir, seed)
    h.run_cycle(s, workload, h.setup(s, workload, record=False), record=False)
    if s.failed:
        raise SystemExit(f"{workload.name} seed {seed}: {s.problems}")
    reports = {}
    for name in sorted(os.listdir(os.path.join(workdir, "cycle"))):
        if name.startswith("report_"):
            with open(os.path.join(workdir, "cycle", name), "r", encoding="utf-8") as fh:
                reports[f"cycle/{name}"] = json.load(fh)
    return reports


def main() -> int:
    table = {}
    os.makedirs(run.WORK, exist_ok=True)
    for workload in h.WORKLOADS.values():
        table[workload.name] = {}
        for seed in (h.DEFAULT_SEED, h.HELDOUT_SEED):
            with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
                table[workload.name][str(seed)] = record(workload, seed, tmp)
    with open(h.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {h.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
