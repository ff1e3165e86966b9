#!/usr/bin/env python3
"""Checks that the benchmark's exact counts repeat for a fixed seed.

    python3 perfbench/test_repro.py

Runs the traced embed-write and restart workloads twice with one seed
(through run.py, from the root of a checkout) and requires the counts
that depend on the seed alone to be equal to the last digit:
pmem.*_per_op and amac.*_per_op on embed-write, recovery.replayed
(which must also equal restart's tail of 16384 records) and
recovery.checkpoint_shards on restart. Every run must also pass its own
output checks. Exits 0 when all of this holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = 2
# restart's tail past each checkpoint (kTail in src/restart.cc): every
# reopen must replay exactly this many records.
RESTART_TAIL = 16384

EXACT = {
    "embed-write": ["pmem.read_probes_per_op", "pmem.clwb_per_op",
                    "pmem.fence_per_op", "pmem.nt_stores_per_op",
                    "amac.steps_per_op", "amac.suspends_per_op",
                    "amac.retry_per_op"],
    "restart": ["recovery.replayed", "recovery.checkpoint_shards"],
}


def traced_run(workload):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    diagnostics = json.loads(lines[-2])["diagnostics"]
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"{workload}: output checks failed: {result}")
    return result["metrics"], diagnostics


def main():
    failures = []
    for workload, names in EXACT.items():
        (first, diag), (second, _) = traced_run(workload), traced_run(workload)
        for name in names:
            a, b = first[name]["value"], second[name]["value"]
            status = "ok" if a == b else "DIFFERS"
            print(f"{workload:12s} {name:28s} {a!r:>22} {b!r:>22} {status}")
            if a != b:
                failures.append(f"{workload} {name}")
        if (workload == "embed-write"
                and diag["embed.counts_repeat"]["value"] != 1):
            failures.append("embed-write rounds within one run")
        if (workload == "restart"
                and first["recovery.replayed"]["value"] != RESTART_TAIL):
            failures.append("restart replayed "
                            f"{first['recovery.replayed']['value']} records, "
                            f"not {RESTART_TAIL}")
    if failures:
        print("not repeatable: " + ", ".join(failures))
        return 1
    print("exact counts repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
