#!/usr/bin/env python3
"""Alternating parent/change comparison of the end-to-end benchmark.

Runs `e2ebench/run.py` of two checkouts in alternating order (pair i runs
the parent first when i is even, the change first when i is odd), one run
at a time, and judges every end-to-end metric BENCHMARK.json declares:

    python3 scripts/ab_e2ebench.py PARENT_DIR CHANGE_DIR \\
        --workload update_storm --pairs 10 --seconds 40 [--seed N] \\
        [--trace 1]
    python3 scripts/ab_e2ebench.py --self-test

For each metric it prints both sides' median and quartiles (linear
interpolation between order statistics), how many pairs the change won
(ties count for neither side), the parent's quartile spread (Q3 - Q1),
the metric's BENCHMARK.json bound, and two verdicts:

  gain           the change won at least nine tenths of the pairs and its
                 median beats the parent's by more than the parent's
                 quartile spread;
  no-regression  the change's median is no worse than the parent's by
                 more than the bound. When either side's quartile spread
                 relative to its median is wider than the bound, the
                 verdict is "unresolved" unless every change run beats
                 every parent run.

With --trace 1 the runs are traced (`run.py --trace 1`) and the table
covers every per-layer metric instead: both sides' median and quartiles
and the change's wins, counted in the metric's `better` direction. It
prints no verdict, because per-layer metrics carry no bound.

It also prints each side's failed/attempted operations and how many of
its runs reported a correct result. Exits 1 when a run fails or reports
an incorrect result, 0 otherwise; the verdicts are reported, not
enforced.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quantile(xs, q):
    """The q-quantile of xs by linear interpolation between order
    statistics (numpy's default, Python's statistics 'inclusive')."""
    s = sorted(xs)
    if not s:
        raise ValueError("quantile of no samples")
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def summary(xs):
    return {"q1": quantile(xs, 0.25), "median": quantile(xs, 0.5),
            "q3": quantile(xs, 0.75)}


def better(a, b, direction):
    """True when value a is strictly better than b."""
    return a > b if direction == "higher" else a < b


def count_wins(parent, change, direction):
    """Pairs in which the change is strictly better than the parent (ties
    count for neither side)."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many parent and change samples")
    return sum(1 for a, b in zip(change, parent) if better(a, b, direction))


def judge(parent, change, direction, bound):
    """Verdicts for one metric from paired samples (parent[i] and
    change[i] ran as pair i)."""
    p, c = summary(parent), summary(change)
    pairs = len(parent)
    wins = count_wins(parent, change, direction)
    losses = count_wins(change, parent, direction)
    spread = p["q3"] - p["q1"]
    gain_by = (c["median"] - p["median"] if direction == "higher"
               else p["median"] - c["median"])
    gain = 10 * wins >= 9 * pairs and gain_by > spread

    # Worse by more than the bound, relative to the parent's median.
    if direction == "higher":
        within = c["median"] >= p["median"] * (1 - bound)
    else:
        within = c["median"] <= p["median"] * (1 + bound)
    rel = [(s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
           for s in (p, c)]
    all_better = all(better(a, b, direction)
                     for a in change for b in parent)
    if max(rel) > bound and not all_better:
        regress = "unresolved"
    else:
        regress = "holds" if within else "REGRESSED"
    return {"parent": p, "change": c, "pairs": pairs, "wins": wins,
            "losses": losses, "parent_spread": spread,
            "rel_spread": max(rel), "bound": bound,
            "gain": gain, "no_regression": regress}


def load_spec(root, trace):
    """BENCHMARK.json's per-layer metrics when trace, else its end-to-end
    ones."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)["per_layer" if trace else "end_to_end"]


def run_once(checkout, args):
    cmd = [sys.executable, os.path.join(checkout, "e2ebench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d" % (" ".join(cmd), proc.returncode))
    return json.loads(lines[-1])


def values(runs, side, name):
    return [r["metrics"][name]["value"] for r in runs[side]]


def fmt(s):
    return "%.4g [%.4g, %.4g]" % (s["median"], s["q1"], s["q3"])


def print_outcomes(runs):
    for side in ("parent", "change"):
        att = sum(r["attempted"] for r in runs[side])
        fail = sum(r["failed"] for r in runs[side])
        good = sum(1 for r in runs[side] if r["correct"])
        print("%s: %d/%d operations failed over %d runs, %d correct" %
              (side, fail, att, len(runs[side]), good))


def report(spec, runs):
    """Prints the per-metric table for runs = {"parent": [...],
    "change": [...]} (result objects, pair-aligned) and returns the
    verdicts by metric name."""
    verdicts = {}
    print("%-17s %-33s %-33s %5s %10s %5s %5s %s" %
          ("metric", "parent median [q1, q3]", "change median [q1, q3]",
           "wins", "parent IQR", "bound", "gain", "no-regression"))
    for m in spec:
        name = m["name"]
        v = judge(values(runs, "parent", name), values(runs, "change", name),
                  m["better"], m["bound"])
        verdicts[name] = v
        print("%-17s %-33s %-33s %2d/%-2d %10.4g %5.2f %5s %s" %
              (name, fmt(v["parent"]), fmt(v["change"]), v["wins"],
               v["pairs"], v["parent_spread"], v["bound"],
               "yes" if v["gain"] else "no", v["no_regression"]))
    print_outcomes(runs)
    return verdicts


def report_per_layer(spec, runs):
    """Prints the per-layer table (both sides' median [q1, q3] and the
    change's wins; no verdict, since per-layer metrics carry no bound)
    and returns those figures by metric name."""
    rows = {}
    width = max(len(m["name"]) for m in spec)
    print("%-*s %-33s %-33s %5s %s" %
          (width, "metric", "parent median [q1, q3]",
           "change median [q1, q3]", "wins", "better"))
    for m in spec:
        name = m["name"]
        pv, cv = values(runs, "parent", name), values(runs, "change", name)
        row = {"parent": summary(pv), "change": summary(cv),
               "pairs": len(pv), "wins": count_wins(pv, cv, m["better"])}
        rows[name] = row
        print("%-*s %-33s %-33s %2d/%-2d %s" %
              (width, name, fmt(row["parent"]), fmt(row["change"]),
               row["wins"], row["pairs"], m["better"]))
    print_outcomes(runs)
    return rows


def self_test():
    spec = [{"name": "throughput_per_s", "better": "higher", "bound": 0.25},
            {"name": "latency_p50_us", "better": "lower", "bound": 0.25}]

    def close(a, b):
        return abs(a - b) < 1e-9

    # Quartiles by linear interpolation.
    s = summary(list(range(1, 11)))
    assert close(s["q1"], 3.25) and close(s["median"], 5.5), s
    assert close(s["q3"], 7.75), s
    assert close(quantile([4.0], 0.75), 4.0)

    # A uniform +1 shift wins every pair but is inside the parent's
    # spread (4.5): no claimable gain, and well within the bound.
    v = judge(list(range(1, 11)), list(range(2, 12)), "higher", 0.25)
    assert v["wins"] == 10 and not v["gain"], v
    assert close(v["parent_spread"], 4.5), v

    # A clear gain on a tight parent: 10/10 wins, median +20 > IQR.
    parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
    change = [x + 20 for x in parent]
    v = judge(parent, change, "higher", 0.25)
    assert v["gain"] and v["no_regression"] == "holds", v
    assert close(v["change"]["median"] - v["parent"]["median"], 20), v

    # Eight wins, one tie and one loss: below nine tenths, no gain.
    change = [x + 20 for x in parent]
    change[0] = parent[0]
    change[1] = parent[1] - 1
    v = judge(parent, change, "higher", 0.25)
    assert v["wins"] == 8 and v["losses"] == 1 and not v["gain"], v

    # Lower is better: a 40% latency rise is a regression, a 10% rise
    # is not, and a 40% fall is a gain.
    parent = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    v = judge(parent, [x * 1.4 for x in parent], "lower", 0.25)
    assert v["no_regression"] == "REGRESSED" and v["wins"] == 0, v
    v = judge(parent, [x * 1.1 for x in parent], "lower", 0.25)
    assert v["no_regression"] == "holds" and not v["gain"], v
    v = judge(parent, [x * 0.6 for x in parent], "lower", 0.25)
    assert v["gain"] and v["no_regression"] == "holds", v

    # Spread wider than the bound: unresolved, unless every change run
    # beats every parent run.
    wide = [5, 10, 15, 20, 5, 10, 15, 20, 5, 10]
    v = judge(wide, [x * 1.01 for x in wide], "higher", 0.25)
    assert v["no_regression"] == "unresolved", v
    v = judge(wide, [x + 100 for x in wide], "higher", 0.25)
    assert v["no_regression"] == "holds" and v["gain"], v

    # The table reads pair-aligned result objects.
    mk = lambda t, l: {"correct": True, "attempted": 10, "failed": 0,
                       "metrics": {"throughput_per_s": {"value": t},
                                   "latency_p50_us": {"value": l}}}
    runs = {"parent": [mk(100 + i, 10) for i in range(4)],
            "change": [mk(200 + i, 9) for i in range(4)]}
    out = report(spec, runs)
    assert out["throughput_per_s"]["wins"] == 4, out
    assert out["latency_p50_us"]["gain"], out

    # The per-layer table counts wins in each metric's own direction,
    # ties (a counter that reads 0 on both sides) for neither side, and
    # carries no verdict.
    layer_spec = [{"name": "engine.inject_ms", "better": "lower"},
                  {"name": "engine.batch_occupancy_p50", "better": "higher"},
                  {"name": "engine.freelist_growth", "better": "lower"}]
    mk = lambda inj, occ: {"correct": True, "attempted": 5, "failed": 0,
                           "metrics": {"engine.inject_ms": {"value": inj},
                                       "engine.batch_occupancy_p50":
                                           {"value": occ},
                                       "engine.freelist_growth":
                                           {"value": 0}}}
    runs = {"parent": [mk(0.85, 32), mk(0.87, 32), mk(0.84, 31),
                       mk(0.86, 32)],
            "change": [mk(0.48, 32), mk(0.50, 31), mk(0.46, 32),
                       mk(0.90, 32)]}
    out = report_per_layer(layer_spec, runs)
    inj = out["engine.inject_ms"]
    assert inj["wins"] == 3 and inj["pairs"] == 4, inj
    assert close(inj["parent"]["median"], 0.855), inj
    assert close(inj["change"]["median"], 0.49), inj
    assert out["engine.batch_occupancy_p50"]["wins"] == 1, out
    assert out["engine.freelist_growth"]["wins"] == 0, out
    assert "gain" not in inj and "no_regression" not in inj, inj
    print("ab_e2ebench self-test: ok")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", nargs="?", metavar="PARENT_DIR")
    ap.add_argument("change", nargs="?", metavar="CHANGE_DIR")
    ap.add_argument("--workload", choices=("update_storm", "serve"))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced runs, compared on the per-layer metrics")
    ap.add_argument("--save", metavar="FILE",
                    help="also write every run's result object as JSON")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return 0
    if not (args.parent and args.change and args.workload):
        ap.error("PARENT_DIR, CHANGE_DIR and --workload are required")

    dirs = {"parent": os.path.abspath(args.parent),
            "change": os.path.abspath(args.change)}
    runs = {"parent": [], "change": []}
    ok = True
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            res = run_once(dirs[side], args)
            ok = ok and res["correct"] and res["failed"] == 0
            runs[side].append(res)
            print("pair %d %s: %s" % (i, side, json.dumps(
                {k: v["value"] for k, v in res["metrics"].items()})),
                flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)
    print("workload %s, seed %d, %g s per run, %d pairs%s" %
          (args.workload, args.seed, args.seconds, args.pairs,
           ", traced" if args.trace else ""))
    spec = load_spec(ROOT, args.trace)
    if args.trace:
        report_per_layer(spec, runs)
    else:
        report(spec, runs)
    if not ok:
        print("a run reported an incorrect result or failed operations")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
