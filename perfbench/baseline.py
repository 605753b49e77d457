"""Runs the benchmark over several seeds and summarises each metric.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline-seed.json

For every workload (or those given with --workloads) it makes one untraced
run per seed and reports, per end-to-end metric and for the op latencies of
the ``info`` line, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
next to the bound in BENCHMARK.json.  With --traced-seed it also makes one
traced run per workload and keeps its per-layer metrics.  Runs are made one
at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["notes"] = lines[:-1]
    info = next(json.loads(line[5:]) for line in lines if line.startswith("info "))
    for name in ("op_p50_ms", "op_tail_ms"):
        result["metrics"][name] = {"value": info[name], "unit": "ms"}
    result["run_wall_s"] = time.monotonic() - start
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    # The op latencies are printed by every untraced run but carry no bound.
    bounds.update(op_p50_ms=None, op_tail_ms=None)
    summary: dict = {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        runs = [bench(workload, s, spec["run_seconds"], 0) for s in args.seeds]
        entry: dict = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "run_wall_s": [round(r["run_wall_s"], 1) for r in runs],
            "notes": runs[0]["notes"],
            "metrics": {},
        }
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            if len(values) > 1:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / median
            entry["metrics"][name] = {
                "unit": runs[0]["metrics"][name]["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": bound,
                "values": values,
            }
            print(f"{workload:18s} {name:12s} median {median:12.4f}  spread {spread:6.3f}"
                  f"  bound {bound}", flush=True)
        if args.traced_seed is not None:
            traced = bench(workload, args.traced_seed, spec["run_seconds"], 1)
            entry["traced"] = {
                "seed": args.traced_seed,
                "correct": traced["correct"],
                "attempted": traced["attempted"],
                "failed": traced["failed"],
                "notes": traced["notes"],
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            }
            print(f"{workload:18s} traced run correct={traced['correct']}", flush=True)
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
