"""recurq benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload {build,serve,eval} --seed N --seconds S --trace {0,1}

Generates the workload's inputs with recurq.synth from the seed, runs it in
this process with one client thread and one BLAS thread, checks every output
against the oracles in oracle.py, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, their
times scaled to a reference host speed (hostspeed.py); with --trace 1 the run
is made twice, untraced and then traced with the same number of operations, and
the metrics are the per-layer metrics of the traced pass (wall times), the
tracing overhead and the traced pass's median calibration time. The line
before it is a detail record (environment, wall-time medians, calibration,
tail percentiles, sample counts, failures), also written with the spans under
.bench_out/ at the checkout root.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy is imported

import argparse
import hashlib
import json
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

import layers
import workloads
from spans import NullTracer, Tracer

OUT = ROOT / ".bench_out"


def environment(args) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        ref_file = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_file.read_text().strip() if ref_file and ref_file.is_file() else ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "recurq").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
    }


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def report(values: dict, units: dict) -> dict:
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    return {name: {"value": float(values[name]), "unit": units[name]} for name in units}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.PROFILES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    units = declared("per_layer" if args.trace else "end_to_end")

    profile = workloads.PROFILES[args.workload]
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        inputs = workloads.prepare(profile, args.seed, str(work))
        untraced = workloads.Run(profile, inputs, args.seed, args.seconds, NullTracer()).execute()
        values, detail = untraced.metrics()
        runs = [untraced]
        if args.trace:
            tracer = Tracer()
            layers.install(tracer)
            try:
                traced = workloads.Run(profile, inputs, args.seed, args.seconds, tracer,
                                       replay=untraced.plan).execute()
            finally:
                tracer.uninstall()
            runs.append(traced)
            # host-speed-scaled, so that a swing of the host between the passes cancels
            before, after = untraced.op_seconds(), traced.op_seconds()
            detail["end_to_end_untraced"] = values
            values = {**layers.metrics(tracer.spans), "trace.overhead_pct": 100.0 * (after - before) / before,
                      "host.calibration_ms": traced.clock.median_ms()}
            spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in runs)
    failures = [f for r in runs for f in r.failures]
    metrics = report(values, units)
    record = {
        "environment": environment(args),
        "detail": detail,
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "metrics": metrics,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
