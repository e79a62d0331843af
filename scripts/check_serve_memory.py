#!/usr/bin/env python3
"""Memory gate for `eventnetc serve --stream-check`: a streaming-checked
serve keeps O(window) verification state, so its peak memory must not
grow with how long it has been serving.

    check_serve_memory.py --bin-dir build [--port 19431]

Serves examples/programs/firewall.snk twice with --stream-check, once
for 10 and once for 30 seconds. During each serve, eventnet_loadgen runs
back-to-back rounds of 16 connections x 2000 frames against it. The
serve's peak resident set is the ru_maxrss the kernel reports when the
script reaps it. Each serve must exit 0 and its report must pass
check_report.py --streaming. Under this flood the streaming verdict is
inconclusive (stream_backlog, window_exceeded), which that check allows.
The gate fails if the 30 s serve's peak exceeds the 10 s one's by more
than 25%.

Linux only (ru_maxrss in KiB). Exits non-zero on failure.
"""

import argparse
import os
import subprocess
import sys
import signal
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROGRAM = os.path.join(ROOT, "examples", "programs", "firewall.snk")
TOPO = os.path.join(ROOT, "examples", "programs", "firewall.topo")
SHORT_S = 10
LONG_S = 30
# Allowed peak growth from the short serve to the long one (a fraction).
TOLERANCE = 0.25


def fail(msg: str) -> None:
    print(f"check_serve_memory: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def running(pid: int) -> bool:
    """Whether the child is still running, without reaping it."""
    return os.waitid(os.P_PID, pid,
                     os.WEXITED | os.WNOHANG | os.WNOWAIT) is None


def serve_once(args, seconds: int, port: int, workdir: str) -> int:
    """Serves for \\p seconds under back-to-back load; returns the peak
    resident set in KiB after checking the serve's exit code and report."""
    eventnetc = os.path.join(args.bin_dir, "eventnetc")
    loadgen = os.path.join(args.bin_dir, "eventnet_loadgen")
    for binary in (eventnetc, loadgen):
        if not os.path.exists(binary):
            fail(f"binary not found: {binary} (build it first?)")
    report = os.path.join(workdir, f"serve_{seconds}s.json")
    errlog = os.path.join(workdir, f"serve_{seconds}s.err")
    with open(report, "w") as out, open(errlog, "w") as err:
        serve = subprocess.Popen(
            [eventnetc, "serve", PROGRAM, "--topo", TOPO,
             "--port", str(port), "--udp", "off",
             "--duration", str(seconds), "--stream-check", "--json"],
            stdout=out, stderr=err)

    # A serve that hangs is killed; wait4 below then reaps it.
    watchdog = threading.Timer(seconds + 300, os.kill,
                               (serve.pid, signal.SIGKILL))
    watchdog.daemon = True
    watchdog.start()
    start = time.monotonic()
    rounds = ok_rounds = 0
    # Stop starting rounds a second before the deadline; a round still
    # running when the serve drains is cut short, and its outcome is not
    # part of the gate (only the server's memory is).
    while running(serve.pid) and time.monotonic() - start < seconds - 1:
        rounds += 1
        lg = subprocess.run(
            [loadgen, "--port", str(port), "--connections", "16",
             "--frames", "2000", "--seed", str(rounds),
             "--connect-timeout-ms", "15000", "--json"],
            capture_output=True, text=True)
        ok_rounds += lg.returncode == 0
    _, status, usage = os.wait4(serve.pid, 0)
    watchdog.cancel()
    rc = serve.returncode = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss

    if rc != 0:
        with open(errlog) as f:
            tail = f.read()[-2000:]
        fail(f"{seconds}s serve exited {rc}:\n{tail}")
    if ok_rounds == 0:
        fail(f"{seconds}s serve: none of {rounds} load-generator rounds "
             f"completed, so the serve was never loaded")
    checker = os.path.join(ROOT, "scripts", "check_report.py")
    chk = subprocess.run([sys.executable, checker, report, "--streaming"],
                         capture_output=True, text=True)
    if chk.returncode != 0:
        fail(f"{seconds}s serve report: {chk.stderr.strip()}")
    print(f"check_serve_memory: {seconds}s serve: {rounds} load rounds "
          f"({ok_rounds} completed), peak RSS {peak / 1024:.0f} MiB")
    return peak


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--bin-dir", default="build")
    ap.add_argument("--port", type=int, default=19431,
                    help="TCP port of the shorter serve; the longer one "
                         "uses the next port (default 19431)")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as workdir:
        short = serve_once(args, SHORT_S, args.port, workdir)
        long_ = serve_once(args, LONG_S, args.port + 1, workdir)
    growth = long_ / short - 1
    print(f"check_serve_memory: peak {short / 1024:.0f} MiB after "
          f"{SHORT_S}s, {long_ / 1024:.0f} MiB after {LONG_S}s "
          f"({growth:+.0%}; bound +{TOLERANCE:.0%})")
    if growth > TOLERANCE:
        fail(f"serve --stream-check memory grew {growth:+.0%} from "
             f"{SHORT_S}s to {LONG_S}s (bound +{TOLERANCE:.0%})")
    print("check_serve_memory: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
