"""The benchmark's own self-test.

    python3 perfbench/selftest.py

Checks, on the tiny size of every workload (dense-monoid included), that:
- an untraced run prints exactly the end-to-end metrics of BENCHMARK.json,
  each with its unit, and a traced run exactly the per-layer ones;
- the per-layer counts of two traced runs with the same seed are equal;
- a corrupted reference digest is counted as a failed op, and a missing one
  is checked against the oracle instead;
- an op that passes its deadline is reported by id and counted as failed.
Exits with 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, seed: int = 7, reference: Path | None = None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0.1", "--trace", str(trace), "--tiny"]
    if reference:
        cmd += ["--reference", str(reference)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1]) if proc.returncode == 0 else None


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import worker
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for workload in workloads.WORKLOADS:
        code, _, out = bench(workload, 0)
        check(code == 0 and out["correct"] and out["failed"] == 0, f"{workload}: untraced run is correct")
        units = {k: v["unit"] for k, v in (out or {}).get("metrics", {}).items()}
        check(units == e2e, f"{workload}: prints every end-to-end metric with its unit")
        runs = [bench(workload, 1) for _ in range(2)]
        check(all(c == 0 and o["correct"] for c, _, o in runs), f"{workload}: traced runs are correct")
        units = {k: v["unit"] for k, v in (runs[0][2] or {}).get("metrics", {}).items()}
        check(units == layers, f"{workload}: prints every per-layer metric with its unit")
        counts = [
            {k: v["value"] for k, v in (o or {}).get("metrics", {}).items() if v["unit"] == "count"}
            for _, _, o in runs
        ]
        check(counts[0] == counts[1] and bool(counts[0]), f"{workload}: per-layer counts repeat exactly")

    scratch = ROOT / ".perfbench-work" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        reference = json.loads((HERE / "reference.json").read_text())
        cases = sorted(c for c in reference["crit3-projection"] if c.startswith("crit3/0/"))
        corrupted = json.loads(json.dumps(reference))
        corrupted["crit3-projection"][cases[0]] = "0" * 16
        path = scratch / "corrupted.json"
        path.write_text(json.dumps(corrupted))
        code, lines, out = bench("crit3-projection", 0, reference=path)
        failed_cases = {line.split()[1].rstrip(":") for line in lines if line.startswith("FAILED")}
        check(
            code == 0 and out["failed"] >= 1 and not out["correct"]
            and failed_cases == {cases[0]},
            "a corrupted digest counts as a failed op",
        )
        missing = json.loads(json.dumps(reference))
        del missing["crit3-projection"][cases[0]]
        path = scratch / "missing.json"
        path.write_text(json.dumps(missing))
        code, lines, out = bench("crit3-projection", 0, reference=path)
        check(
            code == 0 and out["failed"] == 0
            and json.loads(lines[-2].removeprefix("info "))["oracle_checked"] >= 1,
            "an op without a digest is checked against the oracle",
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    worker.DEADLINE_S = 0.05
    signal.signal(signal.SIGALRM, worker._alarm)
    slow = workloads.Op("slow-case", lambda _: time.sleep(1), str, lambda steps: None)
    group = workloads.Group(prepare=lambda: None, ops=[slow])
    stats = worker.Stats()
    worker.run_pass([group], worker.Checker({}), stats, None, time.monotonic() + 60)
    check(
        stats.timeouts == ["slow-case"] and stats.failures[0][0] == "slow-case",
        "an op past its deadline is reported by id and counted as failed",
    )

    print("self-test", "FAILED: " + "; ".join(failures) if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
