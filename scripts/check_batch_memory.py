#!/usr/bin/env python3
"""Memory gate for the batch Definition 6 check: checking a recorded
trace must take memory linear in the trace's length.

    check_batch_memory.py --bin-dir build

Runs `eventnetc run examples/programs/firewall.snk --backend engine
--seed 7 --shards 2 --workload churn --churn-rate 2 --phases 10
--per-phase P --json` at P = 500 and at P = 2000. The second run
records about 4x the first's trace entries (about 19k and 77k), and
each run ends with the batch check over its whole trace. Each run must
exit 0 with a consistent verdict. Its peak resident set is the
ru_maxrss the kernel reports when the script reaps it (os.wait4). The
gate fails if the second peak exceeds 4x the first: memory linear in
the trace grows at most 4x (less, with the process's fixed footprint),
while an N x N reachability closure grows 16x.

Linux only (ru_maxrss in KiB). Exits non-zero on failure.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAM = os.path.join(ROOT, "examples", "programs", "firewall.snk")
TOPO = os.path.join(ROOT, "examples", "programs", "firewall.topo")
SMALL, LARGE = 500, 2000
# The largest allowed peak ratio, large run over small run.
MAX_RATIO = 4.0


def fail(msg: str) -> None:
    print(f"check_batch_memory: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run_once(eventnetc: str, per_phase: int, workdir: str):
    """Runs the churn workload at \\p per_phase; returns (trace entries,
    peak resident set in KiB) after checking the exit code and verdict."""
    report = os.path.join(workdir, f"churn_{per_phase}.json")
    with open(report, "w") as out:
        proc = subprocess.Popen(
            [eventnetc, "run", PROGRAM, "--topo", TOPO, "--backend",
             "engine", "--seed", "7", "--shards", "2", "--workload",
             "churn", "--churn-rate", "2", "--phases", "10",
             "--per-phase", str(per_phase), "--json"],
            stdout=out)
    _, status, usage = os.wait4(proc.pid, 0)
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        fail(f"per-phase {per_phase}: eventnetc exited {code}")
    with open(report) as f:
        r = json.load(f)
    c = r["consistency"]
    if not (c.get("checked") and c.get("correct")):
        fail(f"per-phase {per_phase}: batch verdict not consistent: {c}")
    return r["trace_entries"], usage.ru_maxrss


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin-dir", required=True,
                    help="build directory holding eventnetc")
    args = ap.parse_args()
    eventnetc = os.path.join(args.bin_dir, "eventnetc")
    if not os.path.exists(eventnetc):
        fail(f"binary not found: {eventnetc} (build it first?)")

    with tempfile.TemporaryDirectory() as workdir:
        small = run_once(eventnetc, SMALL, workdir)
        large = run_once(eventnetc, LARGE, workdir)
    for per_phase, (entries, kib) in ((SMALL, small), (LARGE, large)):
        print(f"check_batch_memory: per-phase {per_phase}: {entries} "
              f"trace entries, peak {kib / 1024:.0f} MiB")
    entries_ratio = large[0] / max(1, small[0])
    peak_ratio = large[1] / max(1, small[1])
    print(f"check_batch_memory: {entries_ratio:.2f}x the entries, "
          f"{peak_ratio:.2f}x the peak (at most {MAX_RATIO:.0f}x)")
    if peak_ratio > MAX_RATIO:
        fail(f"peak grew {peak_ratio:.2f}x for {entries_ratio:.2f}x the "
             f"entries: the batch check is not linear in the trace")
    print("check_batch_memory: OK")


if __name__ == "__main__":
    main()
