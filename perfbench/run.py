"""Benchmark entry point.

    python3 perfbench/run.py --workload crit3-projection --seed 1 --seconds 36 --trace 0

Runs one workload in a fresh interpreter (``worker.py``), checks every op's
output, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run is traced and the
metrics are the per-layer ones.  The line before it starts with ``info`` and
holds, as JSON, the op latencies (``op_p50_ms``, ``op_tail_ms`` with its
percentile and sample count) and ``failed_frac``; failed ops follow it by id.

Workloads: crit3-projection, dense-monoid, lag-scan, finite-window.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# setup_s is the median of this many fresh interpreters' set-up times, the
# timed run's own among them.
SETUP_SAMPLES = 5
# A run must end within 180 s; the worker is stopped before that.
RUN_LIMIT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def run_worker(args, extra: list[str], timeout: float) -> dict:
    """Start worker.py in a fresh interpreter and return its JSON result."""
    env = dict(os.environ)
    # String hashing is fixed, so that set iteration order, and with it the
    # engine's search order, its work and every per-layer count, is the same
    # in every run (see workloads.py).
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    cmd += ["--trace", str(args.trace), "--reference", str(args.reference)]
    cmd += ["--tiny"] if args.tiny else []
    cmd += extra
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        timeout=timeout,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    args = parser.parse_args()

    if not (ROOT / "src" / "tsproject" / "__init__.py").is_file():
        print(f"error: no tsproject sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    began = time.monotonic()
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, ["--setup-only"], RUN_LIMIT_S)["setup_s"])
        result = run_worker(args, [], RUN_LIMIT_S - (time.monotonic() - began))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{args.workload} seed {args.seed}: {result['samples']} timed ops in "
        f"{result['passes']:g} pass(es) of {result['ops_per_pass']}"
    )
    info = {
        "op_p50_ms": result["op_p50_ms"],
        "op_tail_ms": result["op_tail_ms"],
        "op_tail_percentile": result["tail_pct"],
        "samples": result["samples"],
        "failed_frac": failed / attempted if attempted else 0.0,
        "timed_out": result["timeouts"],
        "oracle_checked": result["oracle_checked"],
    }
    print("info " + json.dumps(info))
    for case, reason in result["failures"]:
        print(f"FAILED {case}: {reason}")

    if args.trace:
        from tracer import PER_LAYER_UNITS

        values = result["per_layer"]
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = dict(result, setup_s=statistics.median(setups))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
