#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload serve_shared --seeds 1-10 \
        [--seconds 20] [--save a.json] [--compare b.json]

Runs perfbench/run.py once per seed (--trace 0), then prints for every
end-to-end metric its median, quartiles and spread (Q3 - Q1 as a share of
the median, statistics.quantiles(n=4)) next to the metric's bound from
BENCHMARK.json. A spread at or above a third of the bound is flagged
("wide"), one at or above the bound fails. With --compare, the medians are
also checked against an earlier --save file: no metric may be worse by more
than its bound. Exit status 1 when any check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--save")
    ap.add_argument("--compare")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    ok = True
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", "%g" % seconds,
             "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print("seed %d: run failed (exit %d)" % (seed, proc.returncode))
            ok = False
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4g" % (n, v[-1]) for n, v in values.items())), flush=True)

    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}
    print("\n%-14s %12s %12s %12s %8s %6s  %s" % (
        "metric", "median", "Q1", "Q3", "spread", "bound", "verdict"))
    for m in spec["end_to_end"]:
        xs = values[m["name"]]
        if len(xs) < 2:
            continue
        q1, med, q3 = stats.quartiles(xs)
        sp = stats.spread(xs)
        verdict = "ok"
        if m["name"] != "setup_s" and sp >= m["bound"]:
            verdict, ok = "FAIL spread", False
        elif m["name"] != "setup_s" and sp >= m["bound"] / 3:
            verdict = "wide"
        if m["name"] in earlier:
            before = earlier[m["name"]]["median"]
            worse = (med - before) / before if m["better"] == "lower" \
                else (before - med) / before
            verdict += ", vs earlier %+.1f%%" % (100 * (med - before) / before)
            if worse > m["bound"]:
                verdict, ok = verdict + " FAIL", False
        print("%-14s %12.5g %12.5g %12.5g %8.4f %6.3f  %s" % (
            m["name"], med, q1, q3, sp, m["bound"], verdict))
    if args.save:
        Path(args.save).write_text(json.dumps(
            {n: {"median": stats.quartiles(xs)[1], "values": xs}
             for n, xs in values.items() if len(xs) >= 2}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
