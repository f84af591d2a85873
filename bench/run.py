"""labelprior benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload paper-pipeline --seed 42 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``.  With ``--trace 0`` the last line of standard output is a JSON
object carrying every end-to-end metric; with ``--trace 1`` it carries the
per-layer metrics of a traced pass plus the fixed-size layer probes.
Earlier lines summarise provenance and any failed operation, and a full
record goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")


def _thread_cap() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _cap_threads(cap: int) -> None:
    # Must happen before numpy loads its BLAS.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="length of the timed cycles (untraced runs only)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int, cap: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_thread_cap": cap,
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(h, s, w, seconds: float) -> tuple[dict, dict]:
    """Untraced run: set-up several times, then cycles for ``seconds``.
    Returns the host-adjusted metrics and the same figures by wall clock."""
    ckpts = None
    for i in range(w.setup_repeats):
        ckpts = h.setup(s, w, f"setup-{i}")
    cycles = 0
    start = perf_counter()
    while True:
        h.run_cycle(s, w, ckpts, f"cycle-{cycles}")
        cycles += 1
        elapsed = perf_counter() - start
        # At least two cycles, so every command also runs a second time
        # and its outputs are compared byte for byte.
        if cycles >= 2 and elapsed * (cycles + 1) / cycles > seconds:
            break
    results = []
    for adjusted in (True, False):
        samples = s.samples(adjusted)
        out = {
            "setup_s": (h.median([s.group_seconds(f"setup-{i}", adjusted)
                                  for i in range(w.setup_repeats)]), "s"),
            "run_s": (h.median([s.group_seconds(f"cycle-{i}", adjusted)
                                for i in range(cycles)]), "s"),
        }
        for loss in h.LOSSES:
            key = f"train_ex_per_s.{loss}"
            out[key] = (h.median(samples[key]), "ex/s")
        for cmd in ("gen", "transform", "eval", "detect"):
            key = f"{cmd}_utt_per_s"
            out[key] = (h.median(samples[key]), "utt/s")
        results.append(out)
    results[0]["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return results[0], results[1]


def trace(h, s, w, spans_path: str) -> dict[str, tuple[float, str]]:
    """Traced run: one untraced and one traced cycle, then the probes.
    Self times and probe rates are wall clock."""
    import probes
    import tracer

    ckpts = h.setup(s, w, record=False)
    h.run_cycle(s, w, ckpts, "untraced", record=False)
    tr = tracer.Tracer()
    with tracer.traced(tr):
        h.run_cycle(s, w, ckpts, "traced", record=False)
    tr.save(spans_path)
    out = tr.layer_metrics()
    out["trace.overhead_s"] = (s.group_seconds("traced", True)
                               - s.group_seconds("untraced", True), "s")
    out.update(probes.run_probes(s.workdir))
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "labelprior")):
        print(f"error: no labelprior package under {SRC}", file=sys.stderr)
        return 2
    cap = _thread_cap()
    _cap_threads(cap)
    sys.path.insert(0, SRC)
    import harness as h
    import labelprior

    if not os.path.abspath(labelprior.__file__).startswith(SRC + os.sep):
        print(f"error: labelprior imported from {labelprior.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in h.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(h.WORKLOADS)}", file=sys.stderr)
        return 2
    w = h.WORKLOADS[args.workload]
    seed = h.DEFAULT_SEED if args.seed is None else args.seed
    workdir = os.path.join(WORK, w.name)
    shutil.rmtree(workdir, ignore_errors=True)
    s = h.Session(workdir, seed, h.load_reference(w.name, seed))
    info = provenance(seed, cap)

    raw = {}
    if args.trace:
        metrics = trace(h, s, w, os.path.join(WORK, f"spans_{w.name}_seed{seed}.npz"))
    else:
        metrics, raw = measure(h, s, w, args.seconds)

    ops_failed_frac = s.failed / s.attempted
    slowdowns = [v for _, v in s.speed]
    record = {"workload": w.name, "trace": args.trace,
              "seconds": args.seconds, "provenance": info,
              "attempted": s.attempted, "failed": s.failed,
              "ops_failed_frac": ops_failed_frac, "problems": s.problems,
              "notes": sorted(s.notes),
              "digests": s.digests,
              "host_slowdown": slowdowns,
              "samples": s.samples(True), "raw_samples": s.samples(False),
              "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{w.name}_seed{seed}_trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shutil.rmtree(workdir, ignore_errors=True)

    print("provenance " + json.dumps(info))
    for item in s.problems:
        print("FAILED " + " ".join(item["argv"][:1]) + ": " + "; ".join(item["problems"]))
    for note in sorted(s.notes):
        print("NOTE " + note)
    print(f"ops_failed_frac {ops_failed_frac:.6f} ({s.failed}/{s.attempted} operations)")
    print(f"host slowdown median {h.median(slowdowns):.3f} "
          f"(min {min(slowdowns):.3f}, max {max(slowdowns):.3f})")
    for name, (value, unit) in metrics.items():
        wall = f"  (wall clock {raw[name][0]:.6g})" if name in raw else ""
        print(f"{name} {value:.6g} {unit}{wall}")
    print(json.dumps({"correct": s.failed == 0, "attempted": s.attempted, "failed": s.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
