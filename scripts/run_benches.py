#!/usr/bin/env python3
"""Runs the perf benches with fixed seeds and merges their JSON into one
baseline file, so future PRs optimize against numbers instead of vibes.

    run_benches.py [--bin-dir build] [--out BENCH_baseline.json]
    run_benches.py --compare [BASELINE] [--threshold 0.15]
    run_benches.py --smoke [--bin-dir build] [--out FILE] [--scaling-gate]

Modes
-----
default   run `bench/engine_throughput --json --seed 1 --partition
          refined`, `bench/micro_compiler --benchmark_format=json`,
          `bench/net_throughput --json`, `bench/update_churn --json`,
          and `bench/soak --json`, validate their schemas, and write
          the merged baseline JSON to --out. The soak rows carry their
          own absolute attestations (streaming verdict never a
          violation, live window bounded by its cap, retirement active
          over multi-window horizons, checker overhead <15% when the
          machine has a spare hardware thread for the collector).
--compare re-run the benches and fail (exit 1) if any engine-throughput
          row lost more than --threshold (default 15%) hops/sec OR
          scaling efficiency against the committed baseline, any
          micro benchmark's cpu_time grew by more than the threshold,
          or an update_churn storm row's p50/p99 update latency
          regressed past double the threshold and 250us of absolute
          movement (hw-thread-gated, like the engine update-lat
          columns).
          The fresh run must attest `"faults": "off"` — the gate is
          specifically the promise that the disarmed fault-injection
          hooks cost nothing on the hot path.
--smoke   tiny iteration counts (CI): engine_throughput --smoke, a small
          micro_compiler subset, schema validation only — plus an
          `eventnetc run --json` smoke on every registered backend,
          each validated through scripts/check_report.py.

--scaling-gate (any mode) additionally fails if a multi-shard
          configuration is slower than the 1-shard row of the same
          topology × path beyond --scaling-tolerance (default 10%).
          Only shard counts the machine can actually run in parallel
          (shards <= hw_threads) are enforced; the rest, and 1-thread
          machines, produce warnings — a scaling gate on a machine with
          no cores to scale onto would only measure scheduler noise.
"""

import argparse
import json
import os
import subprocess
import sys

ENGINE_ROW_KEYS = [
    "topology", "shards", "path", "partition", "delivered", "elapsed_ms",
    "hops_per_sec_M", "delivered_per_sec_M", "speedup_vs_sim",
    "scaling_efficiency", "edge_cut", "edge_total",
    "queue_hwm", "freelist_growth", "update_lat_p50_us",
    "update_lat_p99_us", "definition6",
]

NET_ROW_KEYS = [
    "transport", "connections", "frames_per_conn", "injects", "replies",
    "elapsed_ms", "injects_per_sec_M", "hops_per_sec_M", "rtt_p50_us",
    "rtt_p99_us", "silent_loss", "definition6",
]

CHURN_ROW_KEYS = [
    "pipeline", "shards", "reps", "storm_packets", "learns", "fast_learns",
    "ctrl_deltas", "hops_per_sec_M", "update_storm_lat_p50_us",
    "update_storm_lat_p99_us", "definition6",
]

SOAK_ROW_KEYS = [
    "shards", "duration_s", "batches", "window", "hops_per_sec_M",
    "base_hops_per_sec_M", "checker_overhead_pct", "entries_checked",
    "chains_retired", "retired_per_sec", "events_observed", "peak_window",
    "peak_checker_kb", "definition6",
]

SMOKE_MICRO_FILTER = "BM_ParseBandwidthCap/5|BM_TableExtraction|BM_NesEnabledEvents"


def fail(msg: str) -> None:
    print(f"run_benches: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, **kw):
    print(f"run_benches: $ {' '.join(cmd)}", file=sys.stderr)
    try:
        return subprocess.run(cmd, check=True, capture_output=True,
                              text=True, **kw)
    except FileNotFoundError:
        fail(f"binary not found: {cmd[0]} (build it first?)")
    except subprocess.CalledProcessError as e:
        fail(f"{cmd[0]} exited {e.returncode}:\n{e.stderr[-2000:]}")


def engine_throughput_once(bin_dir: str, smoke: bool,
                           partition: str) -> dict:
    cmd = [os.path.join(bin_dir, "bench", "engine_throughput"), "--json",
           "--seed", "1", "--partition", partition]
    if smoke:
        cmd.append("--smoke")
    out = run(cmd).stdout
    try:
        d = json.loads(out)
    except json.JSONDecodeError as e:
        fail(f"engine_throughput --json is not valid JSON: {e}")
    if d.get("bench") != "engine_throughput" or "rows" not in d:
        fail("engine_throughput JSON missing bench/rows")
    if "hw_threads" not in d:
        fail("engine_throughput JSON missing hw_threads")
    # The throughput numbers gate the fault-free hot path; a bench that
    # somehow ran with injection armed would compare apples to chaos.
    if d.get("faults") != "off":
        fail("engine_throughput JSON does not attest 'faults': 'off' — "
             "the regression gate only judges the fault-free path")
    if not d["rows"]:
        fail("engine_throughput produced no rows")
    for row in d["rows"]:
        for key in ENGINE_ROW_KEYS:
            if key not in row:
                fail(f"engine_throughput row missing key '{key}': {row}")
        if row["definition6"] != "ok":
            fail(f"engine_throughput row violates Definition 6: {row}")
        if row["freelist_growth"] != 0:
            fail(f"steady-state freelist growth (expected 0): {row}")
    return d


def engine_throughput(bin_dir: str, smoke: bool, partition: str = "refined",
                      repeat: int = 1) -> dict:
    """Runs the bench `repeat` times and keeps, per row key, the run
    whose hops/sec is the median — each kept row stays an actually
    observed, internally consistent measurement, but a single noisy
    scheduler burst no longer decides the committed baseline."""
    runs = [engine_throughput_once(bin_dir, smoke, partition)
            for _ in range(max(1, repeat))]
    if len(runs) == 1:
        return runs[0]
    by_key = {}
    for d in runs:
        for row in d["rows"]:
            by_key.setdefault(engine_key(row), []).append(row)
    merged = runs[0]
    merged["repeat"] = len(runs)
    merged["rows"] = [
        sorted(rows, key=lambda r: r["hops_per_sec_M"])[len(rows) // 2]
        for rows in by_key.values()
    ]
    # Each kept row's scaling_efficiency was computed against its own
    # run's 1-shard rate; recompute it against the *merged* 1-shard row
    # so the committed columns are mutually consistent (the gates judge
    # efficiency and hops from the same numbers).
    one = {(r["topology"], r["path"]): r["hops_per_sec_M"]
           for r in merged["rows"] if r["shards"] == 1}
    for r in merged["rows"]:
        base = one.get((r["topology"], r["path"]), 0)
        r["scaling_efficiency"] = (
            round(r["hops_per_sec_M"] / (base * r["shards"]), 3)
            if base > 0 else 0.0)
    return merged


def micro_compiler(bin_dir: str, smoke: bool) -> dict:
    cmd = [os.path.join(bin_dir, "bench", "micro_compiler"),
           "--benchmark_format=json"]
    if smoke:
        cmd.append(f"--benchmark_filter={SMOKE_MICRO_FILTER}")
    out = run(cmd).stdout
    try:
        d = json.loads(out)
    except json.JSONDecodeError as e:
        fail(f"micro_compiler JSON output is invalid: {e}")
    if "benchmarks" not in d or not d["benchmarks"]:
        fail("micro_compiler JSON has no benchmarks")
    for b in d["benchmarks"]:
        for key in ("name", "cpu_time", "time_unit"):
            if key not in b:
                fail(f"micro_compiler benchmark missing '{key}': {b}")
    return d


def net_throughput(bin_dir: str, smoke: bool) -> dict:
    cmd = [os.path.join(bin_dir, "bench", "net_throughput"), "--json",
           "--seed", "1"]
    if smoke:
        cmd.append("--smoke")
    out = run(cmd).stdout
    try:
        d = json.loads(out)
    except json.JSONDecodeError as e:
        fail(f"net_throughput --json is not valid JSON: {e}")
    if d.get("bench") != "net_throughput" or not d.get("rows"):
        fail("net_throughput JSON missing bench/rows")
    if d.get("faults") != "off":
        fail("net_throughput JSON does not attest 'faults': 'off'")
    for row in d["rows"]:
        for key in NET_ROW_KEYS:
            if key not in row:
                fail(f"net_throughput row missing key '{key}': {row}")
        if row["definition6"] != "ok":
            fail(f"net_throughput row failed its correctness sidecar "
                 f"(Definition 6 / conservation / loadgen validation): "
                 f"{row}")
        if row["silent_loss"] != 0:
            fail(f"net_throughput row lost packets silently: {row}")
    return d


def net_key(row: dict) -> tuple:
    return (row["transport"], row["connections"], row["frames_per_conn"])


def update_churn(bin_dir: str, smoke: bool, partition: str) -> dict:
    cmd = [os.path.join(bin_dir, "bench", "update_churn"), "--json",
           "--seed", "1", "--partition", partition]
    if smoke:
        cmd.append("--smoke")
    out = run(cmd).stdout
    try:
        d = json.loads(out)
    except json.JSONDecodeError as e:
        fail(f"update_churn --json is not valid JSON: {e}")
    if d.get("bench") != "update_churn" or not d.get("rows"):
        fail("update_churn JSON missing bench/rows")
    if "hw_threads" not in d:
        fail("update_churn JSON missing hw_threads")
    if d.get("faults") != "off":
        fail("update_churn JSON does not attest 'faults': 'off'")
    for row in d["rows"]:
        for key in CHURN_ROW_KEYS:
            if key not in row:
                fail(f"update_churn row missing key '{key}': {row}")
        if row["definition6"] != "ok":
            fail(f"update_churn row violates Definition 6: {row}")
        # Zero learns means the storm never fired the app's event — the
        # latency columns would silently gate nothing.
        if row["learns"] == 0:
            fail(f"update_churn row recorded no register learns: {row}")
    return d


def churn_key(row: dict) -> tuple:
    return (row["pipeline"], row["shards"])


def soak(bin_dir: str, smoke: bool) -> dict:
    cmd = [os.path.join(bin_dir, "bench", "soak"), "--json", "--seed", "1"]
    if smoke:
        cmd.append("--smoke")
    out = run(cmd).stdout
    try:
        d = json.loads(out)
    except json.JSONDecodeError as e:
        fail(f"soak --json is not valid JSON: {e}")
    if d.get("bench") != "soak" or not d.get("rows"):
        fail("soak JSON missing bench/rows")
    if "hw_threads" not in d:
        fail("soak JSON missing hw_threads")
    if d.get("faults") != "off":
        fail("soak JSON does not attest 'faults': 'off'")
    hw = d["hw_threads"]
    for row in d["rows"]:
        for key in SOAK_ROW_KEYS:
            if key not in row:
                fail(f"soak row missing key '{key}': {row}")
        verdict = str(row["definition6"])
        # Inconclusive-with-cause is an honest answer on a lossy run;
        # a violation, or an inconclusive with no recorded cause, is not.
        if verdict.startswith("VIOLATION"):
            fail(f"soak row violates Definition 6: {row}")
        if verdict.startswith("inconclusive") and ":" not in verdict:
            fail(f"soak row is inconclusive without a cause: {row}")
        if row["entries_checked"] == 0:
            fail(f"soak row streamed nothing through the checker: {row}")
        # The boundedness attestations: the live window never exceeded
        # its configured cap, and on any horizon longer than one window
        # retirement actually pruned state (a full-horizon window would
        # mean memory grows with soak length).
        if row["peak_window"] > row["window"]:
            fail(f"soak row's live window exceeded its cap: {row}")
        if (row["entries_checked"] > row["window"]
                and row["chains_retired"] == 0):
            fail(f"soak row retired nothing over a multi-window horizon "
                 f"(checker state grew with the trace): {row}")
        # The overhead gate. The collector + checker ride a dedicated
        # thread; on a machine with a spare hardware thread for it the
        # streaming check must cost <15% of hops/s. With fewer cores
        # than engine shards + collector + the bench's driver thread the
        # "overhead" is really core contention (a 1-thread container
        # time-slices the checker against the engine), so it only warns.
        overhead = row["checker_overhead_pct"]
        if overhead > 15.0:
            where = (f"soak @ {row['shards']} shard(s): streaming checker "
                     f"costs {overhead:.1f}% hops/s (gate: 15%)")
            if hw >= row["shards"] + 2:
                fail(where)
            print(f"run_benches: WARNING: {where} — not gated, only {hw} "
                  f"hardware thread(s) for {row['shards']} shard(s) + "
                  "collector", file=sys.stderr)
    return d


def soak_key(row: dict) -> tuple:
    return (row["shards"],)


def backend_smoke(bin_dir: str) -> None:
    """`eventnetc run --json` on every backend, checked by check_report."""
    eventnetc = os.path.join(bin_dir, "eventnetc")
    checker = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_report.py")
    prog = os.path.join("examples", "programs", "firewall.snk")
    topo = os.path.join("examples", "programs", "firewall.topo")
    backends = run([eventnetc, "backends"]).stdout.split()
    if not backends:
        fail("eventnetc lists no backends")
    for backend in backends:
        report = run([eventnetc, "run", prog, "--topo", topo, "--backend",
                      backend, "--seed", "7", "--json"]).stdout
        check = subprocess.run(
            [sys.executable, checker, "--backend", backend],
            input=report, capture_output=True, text=True)
        if check.returncode != 0:
            fail(f"check_report rejected backend '{backend}':\n"
                 f"{check.stderr}")
        print(f"run_benches: backend '{backend}' report ok",
              file=sys.stderr)


def collect(bin_dir: str, smoke: bool, partition: str = "refined",
            repeat: int = 1) -> dict:
    return {
        "schema": 1,
        "seed": 1,
        "smoke": smoke,
        "benches": {
            "engine_throughput": engine_throughput(bin_dir, smoke,
                                                   partition, repeat),
            "micro_compiler": micro_compiler(bin_dir, smoke),
            "net_throughput": net_throughput(bin_dir, smoke),
            "update_churn": update_churn(bin_dir, smoke, partition),
            "soak": soak(bin_dir, smoke),
        },
    }


def engine_key(row: dict) -> tuple:
    # Partition strategy is part of the row identity: comparing a modulo
    # run against a refined baseline would report the inherent strategy
    # gap as a code regression.
    return (row["topology"], row["shards"], row["path"],
            row.get("partition", ""))


def scaling_gate(engine: dict, tolerance: float) -> int:
    """Fails when a multi-shard row is slower than its 1-shard sibling.

    Enforced only for shard counts the machine can genuinely run in
    parallel (shards <= hw_threads); everything else is a warning, since
    oversubscribed threads measure the scheduler, not the partition.
    """
    hw = engine.get("hw_threads", 0)
    rows = engine["rows"]
    one = {(r["topology"], r["path"]): r["hops_per_sec_M"]
           for r in rows if r["shards"] == 1}
    failures = []
    enforced = 0
    for r in rows:
        if r["shards"] <= 1:
            continue
        base = one.get((r["topology"], r["path"]), 0)
        if base <= 0:
            continue
        ratio = r["hops_per_sec_M"] / base
        where = (f"{r['topology']} x {r['path']} @ {r['shards']} shards "
                 f"({r['partition']}): {ratio:.2f}x the 1-shard rate")
        if hw < 2 or r["shards"] > hw:
            if ratio < 1 - tolerance:
                print(f"run_benches: WARNING: {where} — not gated, only "
                      f"{hw} hardware thread(s) for {r['shards']} shards",
                      file=sys.stderr)
            continue
        enforced += 1
        if ratio < 1 - tolerance:
            failures.append(where)
    if failures:
        print("run_benches: SCALING REGRESSIONS (multi-shard slower than "
              f"1 shard beyond {tolerance * 100:.0f}%):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"run_benches: scaling gate ok ({enforced} multi-shard "
          f"configurations enforced, hw_threads={hw})")
    return 0


def compare(baseline: dict, fresh: dict, threshold: float) -> int:
    failures = []
    compared = 0
    hw = fresh["benches"]["engine_throughput"].get("hw_threads", 0)

    base_rows = {engine_key(r): r
                 for r in baseline["benches"]["engine_throughput"]["rows"]}
    fresh_rows = {engine_key(r): r
                  for r in fresh["benches"]["engine_throughput"]["rows"]}
    for key in sorted(set(base_rows) - set(fresh_rows)):
        print(f"run_benches: WARNING: baseline engine row {key} no longer "
              "produced — its regression coverage is gone", file=sys.stderr)
    for key, row in fresh_rows.items():
        old = base_rows.get(key)
        if old is None:
            print(f"run_benches: WARNING: engine row {key} has no baseline "
                  "entry (new configuration, not compared)", file=sys.stderr)
            continue
        compared += 1
        old_v, new_v = old["hops_per_sec_M"], row["hops_per_sec_M"]
        if old_v > 0 and new_v < old_v * (1 - threshold):
            failures.append(
                f"engine_throughput {key}: "
                f"{new_v:.3f} M hops/s vs baseline {old_v:.3f} "
                f"(-{(1 - new_v / old_v) * 100:.1f}%)")
        # Parallel scaling is a first-class number: losing efficiency at
        # the same raw throughput (e.g. the 1-shard row got faster but
        # multi-shard did not follow) is a regression too. Efficiency is
        # a ratio of two independently-noisy throughputs, so its
        # run-to-run variance is roughly double a single row's — gate it
        # at twice the raw threshold.
        eff_threshold = min(0.5, 2 * threshold)
        old_e = old.get("scaling_efficiency", 0)
        new_e = row.get("scaling_efficiency", 0)
        if old_e > 0 and new_e < old_e * (1 - eff_threshold):
            failures.append(
                f"engine_throughput {key}: scaling efficiency "
                f"{new_e:.3f} vs baseline {old_e:.3f} "
                f"(-{(1 - new_e / old_e) * 100:.1f}%)")
        # Update latency (event detection -> register learn). Tail
        # percentiles of a microsecond-scale quantity are far noisier
        # than throughput means — and on an oversubscribed machine
        # (shards > hw_threads) they measure when the scheduler ran the
        # receiving worker, not the update path. So: gate only rows the
        # machine can genuinely parallelize, whose baseline has samples
        # (p50 > 0), at double the raw threshold, and never below 250us
        # of absolute movement (the gate exists to catch the update path
        # regressing to milliseconds, not scheduler jitter).
        for lat_key in ("update_lat_p50_us", "update_lat_p99_us"):
            old_l = old.get(lat_key, 0)
            new_l = row.get(lat_key, 0)
            if not (old_l > 0
                    and new_l > old_l * (1 + 2 * threshold)
                    and new_l - old_l > 250.0):
                continue
            where = (f"engine_throughput {key}: {lat_key} {new_l:.1f}us "
                     f"vs baseline {old_l:.1f}us "
                     f"(+{(new_l / old_l - 1) * 100:.1f}%)")
            if hw < 2 or row["shards"] > hw:
                print(f"run_benches: WARNING: {where} — not gated, only "
                      f"{hw} hardware thread(s) for {row['shards']} "
                      "shard(s)", file=sys.stderr)
            else:
                failures.append(where)

    # The socket rows: client-visible throughput through the real wire.
    # Loopback rates ride the scheduler (client thread vs server loop vs
    # shard workers time-slicing the same cores): measured run-to-run
    # spread on a 1-hw-thread container is ~2x on the TCP shapes (UDP
    # rows are stable). The gate exists to catch collapses — a broken
    # event loop, an accidental busy-wait — not scheduler jitter, so it
    # fires only past half the baseline rate (or looser if the raw
    # threshold is itself loose).
    base_net = baseline["benches"].get("net_throughput")
    if base_net is None:
        print("run_benches: WARNING: baseline has no net_throughput block "
              "(pre-net-backend baseline; socket rows not compared)",
              file=sys.stderr)
    else:
        net_threshold = max(0.5, 2 * threshold)
        base_rows = {net_key(r): r for r in base_net["rows"]}
        fresh_rows = {net_key(r): r
                      for r in fresh["benches"]["net_throughput"]["rows"]}
        for key in sorted(set(base_rows) - set(fresh_rows)):
            print(f"run_benches: WARNING: baseline net row {key} no longer "
                  "produced — its regression coverage is gone",
                  file=sys.stderr)
        for key, row in fresh_rows.items():
            old = base_rows.get(key)
            if old is None:
                print(f"run_benches: WARNING: net row {key} has no "
                      "baseline entry (new configuration, not compared)",
                      file=sys.stderr)
                continue
            compared += 1
            old_v = old["injects_per_sec_M"]
            new_v = row["injects_per_sec_M"]
            if old_v > 0 and new_v < old_v * (1 - net_threshold):
                failures.append(
                    f"net_throughput {key}: "
                    f"{new_v:.3f} M injects/s vs baseline {old_v:.3f} "
                    f"(-{(1 - new_v / old_v) * 100:.1f}%)")

    # The event-storm update-latency rows. Same reasoning as the
    # engine-throughput update-lat columns: microsecond-scale tail
    # percentiles are noisy and, on an oversubscribed machine, measure
    # the scheduler — so the latency gate applies only to rows the
    # machine can genuinely parallelize, at double the raw threshold,
    # and never below 250us of absolute movement. Throughput under the
    # storm gets the loose collapse-only gate (the bench measures
    # latency; hops/s is a sanity sidecar).
    base_churn = baseline["benches"].get("update_churn")
    if base_churn is None:
        print("run_benches: WARNING: baseline has no update_churn block "
              "(pre-update-pipeline baseline; storm rows not compared)",
              file=sys.stderr)
    else:
        churn_hw = fresh["benches"]["update_churn"].get("hw_threads", 0)
        base_rows = {churn_key(r): r for r in base_churn["rows"]}
        fresh_rows = {churn_key(r): r
                      for r in fresh["benches"]["update_churn"]["rows"]}
        for key in sorted(set(base_rows) - set(fresh_rows)):
            print(f"run_benches: WARNING: baseline churn row {key} no "
                  "longer produced — its regression coverage is gone",
                  file=sys.stderr)
        for key, row in fresh_rows.items():
            old = base_rows.get(key)
            if old is None:
                print(f"run_benches: WARNING: churn row {key} has no "
                      "baseline entry (new configuration, not compared)",
                      file=sys.stderr)
                continue
            compared += 1
            for lat_key in ("update_storm_lat_p50_us",
                            "update_storm_lat_p99_us"):
                old_l = old.get(lat_key, 0)
                new_l = row.get(lat_key, 0)
                if not (old_l > 0
                        and new_l > old_l * (1 + 2 * threshold)
                        and new_l - old_l > 250.0):
                    continue
                where = (f"update_churn {key}: {lat_key} {new_l:.1f}us "
                         f"vs baseline {old_l:.1f}us "
                         f"(+{(new_l / old_l - 1) * 100:.1f}%)")
                if churn_hw < 2 or row["shards"] > churn_hw:
                    print(f"run_benches: WARNING: {where} — not gated, "
                          f"only {churn_hw} hardware thread(s) for "
                          f"{row['shards']} shard(s)", file=sys.stderr)
                else:
                    failures.append(where)
            old_v = old["hops_per_sec_M"]
            new_v = row["hops_per_sec_M"]
            storm_threshold = max(0.5, 2 * threshold)
            if old_v > 0 and new_v < old_v * (1 - storm_threshold):
                failures.append(
                    f"update_churn {key}: {new_v:.3f} M hops/s vs "
                    f"baseline {old_v:.3f} "
                    f"(-{(1 - new_v / old_v) * 100:.1f}%)")

    # The soak rows: long-horizon throughput with the streaming checker
    # attached, plus the checker's peak memory. Throughput gets the
    # collapse-only gate (duration-bounded loopback runs are scheduler-
    # noisy); peak memory gets a growth gate — the streaming checker's
    # whole point is O(window) state, so its peak doubling at the same
    # window size means retirement regressed, regardless of hw threads.
    # (The absolute overhead/boundedness attestations live in soak()
    # itself and run in every mode.)
    base_soak = baseline["benches"].get("soak")
    if base_soak is None:
        print("run_benches: WARNING: baseline has no soak block "
              "(pre-streaming-checker baseline; soak rows not compared)",
              file=sys.stderr)
    else:
        soak_threshold = max(0.5, 2 * threshold)
        base_rows = {soak_key(r): r for r in base_soak["rows"]}
        fresh_rows = {soak_key(r): r
                      for r in fresh["benches"]["soak"]["rows"]}
        for key in sorted(set(base_rows) - set(fresh_rows)):
            print(f"run_benches: WARNING: baseline soak row {key} no "
                  "longer produced — its regression coverage is gone",
                  file=sys.stderr)
        for key, row in fresh_rows.items():
            old = base_rows.get(key)
            if old is None:
                print(f"run_benches: WARNING: soak row {key} has no "
                      "baseline entry (new configuration, not compared)",
                      file=sys.stderr)
                continue
            compared += 1
            old_v = old["hops_per_sec_M"]
            new_v = row["hops_per_sec_M"]
            if old_v > 0 and new_v < old_v * (1 - soak_threshold):
                failures.append(
                    f"soak {key}: {new_v:.3f} M hops/s with checker vs "
                    f"baseline {old_v:.3f} "
                    f"(-{(1 - new_v / old_v) * 100:.1f}%)")
            old_kb = old["peak_checker_kb"]
            new_kb = row["peak_checker_kb"]
            if (old["window"] == row["window"] and old_kb > 0
                    and new_kb > old_kb * 2 and new_kb - old_kb > 1024):
                failures.append(
                    f"soak {key}: peak checker memory {new_kb} KiB vs "
                    f"baseline {old_kb} KiB at the same window "
                    "(retirement regressed?)")

    base_micro = {b["name"]: b
                  for b in baseline["benches"]["micro_compiler"]["benchmarks"]}
    fresh_micro = {b["name"]: b
                   for b in fresh["benches"]["micro_compiler"]["benchmarks"]}
    for name in sorted(set(base_micro) - set(fresh_micro)):
        print(f"run_benches: WARNING: baseline micro benchmark '{name}' no "
              "longer produced — its regression coverage is gone",
              file=sys.stderr)
    for name, b in fresh_micro.items():
        old = base_micro.get(name)
        if old is None:
            print(f"run_benches: WARNING: micro benchmark '{name}' has no "
                  "baseline entry (not compared)", file=sys.stderr)
            continue
        compared += 1
        old_t, new_t = old["cpu_time"], b["cpu_time"]
        if old_t > 0 and new_t > old_t * (1 + threshold):
            failures.append(
                f"micro_compiler {name}: {new_t:.0f} {b['time_unit']} "
                f"vs baseline {old_t:.0f} "
                f"(+{(new_t / old_t - 1) * 100:.1f}%)")

    if compared == 0:
        fail("nothing matched the baseline — the regression gate compared "
             "zero data points (did bench names/configurations change?)")
    if failures:
        print("run_benches: REGRESSIONS (> "
              f"{threshold * 100:.0f}% vs baseline):", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print("run_benches: no regression beyond "
          f"{threshold * 100:.0f}% vs baseline")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bin-dir", default="build")
    ap.add_argument("--out", default="BENCH_baseline.json")
    ap.add_argument("--compare", nargs="?", const="BENCH_baseline.json",
                    default=None, metavar="BASELINE")
    ap.add_argument("--threshold", type=float, default=0.15)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--partition", default="refined",
                    choices=["modulo", "contiguous", "refined"])
    ap.add_argument("--scaling-gate", action="store_true")
    ap.add_argument("--scaling-tolerance", type=float, default=0.10)
    ap.add_argument("--repeat", type=int, default=1,
                    help="engine_throughput runs to take row-wise "
                         "medians over (noise robustness)")
    args = ap.parse_args()

    if args.compare is not None:
        try:
            with open(args.compare) as f:
                baseline = json.load(f)
        except OSError as e:
            fail(f"cannot read baseline {args.compare}: {e}")
        fresh = collect(args.bin_dir, smoke=False, partition=args.partition,
                        repeat=args.repeat)
        rc = compare(baseline, fresh, args.threshold)
        if args.scaling_gate:
            rc |= scaling_gate(fresh["benches"]["engine_throughput"],
                               args.scaling_tolerance)
        return rc

    merged = collect(args.bin_dir, args.smoke, partition=args.partition,
                     repeat=args.repeat)
    if args.smoke:
        backend_smoke(args.bin_dir)
    rc = 0
    if args.scaling_gate:
        rc = scaling_gate(merged["benches"]["engine_throughput"],
                          args.scaling_tolerance)
    with open(args.out, "w") as f:
        json.dump(merged, f, indent=1)
        f.write("\n")
    print(f"run_benches: wrote {args.out} "
          f"({len(merged['benches']['engine_throughput']['rows'])} engine "
          f"rows, "
          f"{len(merged['benches']['micro_compiler']['benchmarks'])} micro "
          f"benchmarks, "
          f"{len(merged['benches']['update_churn']['rows'])} storm rows, "
          f"{len(merged['benches']['soak']['rows'])} soak rows)")
    return rc


if __name__ == "__main__":
    sys.exit(main())
