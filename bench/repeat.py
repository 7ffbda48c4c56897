"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 bench/repeat.py --workloads build serve eval --seeds 1-10 --out summary.json
    python3 bench/repeat.py --workloads serve --seeds 1009 --against bench/baseline/BENCH_baseline.json

For every workload and metric it reports the median, the quartiles of
statistics.quantiles(values, n=4) and their distance as a share of the
median (the spread), next to the metric's bound in BENCHMARK.json. With
--against it also reports how much worse each median is than the given
summary's, as a share of that median. Runs are made one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "wall_s": wall, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "values": {k: v["value"] for k, v in result["metrics"].items()}}


def worse_by(value: float, reference: float, better: str) -> float:
    """How much worse ``value`` is than ``reference``, as a share of it."""
    change = (value - reference) / reference
    return change if better == "lower" else -change


def summarise(runs: list[dict], spec: dict, against: dict | None) -> dict:
    out = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["values"][name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        entry = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
                 "bound": metric["bound"], "values": values}
        if against is not None:
            entry["worse_by"] = worse_by(median, against[name]["median"], metric["better"])
        out[name] = entry
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10 or 1,3,1009")
    parser.add_argument("--out", help="write the summary JSON here")
    parser.add_argument("--against", help="summary JSON whose medians to compare with")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    against = json.loads(Path(args.against).read_text())["workloads"] if args.against else None

    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, s, spec["run_seconds"]) for s in args.seeds]
        metrics = summarise(runs, spec, against[workload] if against else None)
        summary["workloads"][workload] = {
            **metrics,
            "runs": [{k: r[k] for k in ("seed", "wall_s", "correct", "attempted", "failed")} for r in runs],
        }
        print(f"{workload}: walls {[round(r['wall_s'], 1) for r in runs]}, "
              f"failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        for name, m in metrics.items():
            flag = "" if name == "setup_s" or m["spread"] < m["bound"] / 3 else "  <-- spread >= bound/3"
            extra = f"  worse_by {m['worse_by']:+.4f}" if "worse_by" in m else ""
            print(f"  {name:24s} median {m['median']:<14.6g} spread {m['spread']:.4f} "
                  f"bound {m['bound']}{extra}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
