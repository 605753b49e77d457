"""Runs one workload in a fresh interpreter and prints its figures as JSON.

``run.py`` starts this file; it is not meant to be started by hand.  The load
model is a closed loop with one client: one process, one thread, and the next
op starts when the previous one has completed.

The timed phase repeats passes over the workload's ops.  It starts another
pass only while the last pass would still end within ``--seconds``, so a run
always measures whole passes (at least one) and every pass does the same work.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# Per-op deadline.  Every op of every workload takes under 16 s on the
# reference commit, so a deadline this far away keeps failed_frac exactly
# repeatable.
DEADLINE_S = 45.0
# A pass that is still running after this long is cut short, so that a run
# ends within its time limit even when an op regresses badly.
HARD_STOP_S = 100.0
# The oracle fallback for ops with no recorded digest may unroll this many steps.
FALLBACK_ORACLE_STEPS = 3000
TAIL_BEYOND = 10


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def tail_fraction(ops_per_pass: int) -> float:
    """Highest percentile, as a fraction, that leaves TAIL_BEYOND samples of
    one pass beyond it; the median when a pass is too small for that."""
    if ops_per_pass < 2 * TAIL_BEYOND:
        return 0.5
    return (ops_per_pass - TAIL_BEYOND) / ops_per_pass


def nearest_rank(sorted_values: list[float], fraction: float) -> float:
    rank = max(1, math.ceil(round(fraction * len(sorted_values), 9)))
    return sorted_values[rank - 1]


class Checker:
    """Compares each op's canonical output with the reference digest, or with
    an oracle where the reference has none."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.oracle_checked = 0

    def verdict(self, op, output) -> str | None:
        """None when the output is right, else the reason it is not."""
        got = op.canon(output)
        want = self.reference.get(op.case)
        if want is None:
            want = op.oracle(FALLBACK_ORACLE_STEPS)
            self.oracle_checked += 1
            if want is None:
                return "no reference digest and no affordable oracle"
        return None if got == want else f"output {got} != expected {want}"


class Stats:
    def __init__(self):
        self.latencies: list[float] = []
        self.busy_s = 0.0  # time inside library calls: ops plus group set-up
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []
        self.timeouts: list[str] = []


def run_pass(groups, checker, stats, tracer, hard_stop: float) -> bool:
    """One pass over every op; False if it was cut short at ``hard_stop``."""
    for group in groups:
        if time.monotonic() > hard_stop:
            return False
        start = time.perf_counter()
        if tracer:
            with tracer.op("prepare"):
                ctx = group.prepare()
        else:
            ctx = group.prepare()
        stats.busy_s += time.perf_counter() - start
        for op in group.ops:
            if time.monotonic() > hard_stop:
                return False
            stats.attempted += 1
            error = None
            output = None
            start = time.perf_counter()
            try:
                signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
                try:
                    if tracer:
                        with tracer.op():
                            output = op.call(ctx)
                    else:
                        output = op.call(ctx)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                error = f"deadline of {DEADLINE_S} s passed"
                stats.timeouts.append(op.case)
            except Exception as exc:  # an op that raises counts as failed
                error = f"raised {exc!r}"
            latency = time.perf_counter() - start
            stats.busy_s += latency
            if error is None:
                error = checker.verdict(op, output)
            if error is None:
                stats.latencies.append(latency)
            else:
                stats.failures.append((op.case, error))
    return True


def run_passes(groups, checker, stats, tracer, seconds: float) -> float:
    """Whole passes while the next one is expected to end within ``seconds``.
    Returns the number of passes, fractional if the last one was cut short."""
    ops_per_pass = sum(len(g.ops) for g in groups)
    begin = time.monotonic()
    hard_stop = begin + HARD_STOP_S
    passes = 0.0
    while True:
        pass_start = time.monotonic()
        done_before = stats.attempted
        if not run_pass(groups, checker, stats, tracer, hard_stop):
            return passes + (stats.attempted - done_before) / ops_per_pass
        passes += 1
        now = time.monotonic()
        if now - begin + (now - pass_start) > seconds:
            return passes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads  # noqa: E402  (imports tsproject)

    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        groups = workloads.build(args.workload, args.seed, args.tiny, workdir)
        reference = json.loads(args.reference.read_text())[args.workload]
        checker = Checker(reference)
        signal.signal(signal.SIGALRM, _alarm)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        stats = Stats()
        result: dict = {"setup_s": setup_s}
        tracer = None
        if args.trace:
            import tracer as tracing

            # One untraced pass first, as the base of the tracing overhead.
            # Its ops count in attempted and failed; its timings are dropped.
            start = time.monotonic()
            run_passes(groups, checker, stats, None, 0)
            untraced_pass_s = time.monotonic() - start
            stats.latencies, stats.busy_s = [], 0.0
            tracer = tracing.Tracer()
            tracer.install()
        start = time.monotonic()
        passes = run_passes(groups, checker, stats, tracer, args.seconds)
        wall_s = time.monotonic() - start

        ops_per_pass = sum(len(g.ops) for g in groups)
        lat = sorted(stats.latencies)
        fraction = tail_fraction(ops_per_pass)
        result.update(
            attempted=stats.attempted,
            failed=len(stats.failures),
            failures=stats.failures[:20],
            timeouts=stats.timeouts,
            oracle_checked=checker.oracle_checked,
            passes=passes,
            ops_per_pass=ops_per_pass,
            ops_per_s=len(lat) / stats.busy_s if stats.busy_s else 0.0,
            op_p50_ms=1000 * statistics.median(lat) if lat else 0.0,
            op_tail_ms=1000 * nearest_rank(lat, fraction) if lat else 0.0,
            tail_pct=100 * fraction,
            samples=len(lat),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        )
        if tracer:
            result["per_layer"] = tracer.metrics(passes)
            result["per_layer"]["trace.overhead_s"] = wall_s / passes - untraced_pass_s
            tracer.write(ROOT / ".perfbench-out" / f"spans-{args.workload}-seed{args.seed}.bin")
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it


if __name__ == "__main__":
    sys.exit(main())
