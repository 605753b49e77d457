"""Records the reference digest of every op's output.

    python3 perfbench/record.py

Runs every op of every workload once on the corpus itself (corpus names and
order) and writes ``reference.json``: per workload, case id -> digest of the
canonical output (a graph digest, or "true"/"false" for a query).  Each
digest is cross-checked once against an oracle where the oracle is
affordable; the counts, and any disagreement, go into the same file.  Run it
on the commit whose outputs are the reference, never to paper over a
mismatch.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# The oracles may unroll this many steps here (criterion 3 goes to 9,607).
ORACLE_STEPS = 10_000


def main() -> int:
    reference: dict = {"oracle_crosscheck": {}}
    workdir = ROOT / ".perfbench-work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    disagreements = 0
    try:
        for name in workloads.WORKLOADS:
            start = time.monotonic()
            digests = {}
            checked, unaffordable, mismatched = 0, 0, []
            for group in workloads.build(name, None, False, workdir):
                ctx = group.prepare()
                for op in group.ops:
                    got = op.canon(op.call(ctx))
                    digests[op.case] = got
                    want = op.oracle(ORACLE_STEPS)
                    if want is None:
                        unaffordable += 1
                        continue
                    checked += 1
                    if want != got:
                        mismatched.append(op.case)
            reference[name] = digests
            reference["oracle_crosscheck"][name] = {
                "ops": len(digests),
                "oracle_checked": checked,
                "oracle_unaffordable": unaffordable,
                "mismatched": mismatched,
            }
            disagreements += len(mismatched)
            print(f"{name}: {len(digests)} ops, {checked} oracle-checked, "
                  f"{unaffordable} unaffordable, {len(mismatched)} mismatched, "
                  f"{time.monotonic() - start:.1f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
