#!/usr/bin/env python3
"""The repository benchmark: one command per run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It builds perfbench_runner from source (the
canopus library in src/ plus perfbench/runner/, Release, into
$CARGO_TARGET_DIR/perfbench or .bench_build/perfbench), runs one workload
against the canopus::Pipeline facade, checks every output, and prints a
report followed, as the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end ones of BENCHMARK.json, with
--trace 1 the per_layer ones (the traced run also writes a Chrome trace
next to the raw results). perfbench/metric_map.json says what each metric
measures on each workload and which end-to-end metric a per-layer one should
move. Exit status 0 when every check passed, 1 when an output check failed,
2 when the run could not be made.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("write_campaign", "analyze_progressive", "serve_shared")
# The gated tail percentile, on every workload: the runners measure at least
# 40 operations, so at least 10 lie beyond it. Higher percentiles are printed
# in the report (with their sample counts) but not gated: on a shared host
# they move with the neighbours' load by more than any bound.
TAIL_PERCENTILE = 75.0
RUN_TIMEOUT_S = 170.0


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_root():
    root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return root if root.is_absolute() else ROOT / root


def build():
    """Configures (once) and builds the runner; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("canopus sources (src/) not found next to perfbench/")
    out = build_root() / "perfbench"
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "perfbench_runner"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return out / "perfbench_runner"


def source_hash():
    """Hash of every source the runner is built from: output digests are
    compared across runs only for the same sources."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR / "runner"):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest(workload, seed, digest):
    """Same sources + seed must give the same output digest on every run.
    Returns an error string on a mismatch."""
    ledger_path = build_root() / "digests.json"
    try:
        ledger = json.loads(ledger_path.read_text())
    except (OSError, ValueError):
        ledger = {}
    key = "%s/%s/%d" % (source_hash(), workload, seed)
    seen = ledger.get(key)
    if seen is not None and seen != digest:
        return "output digest %s differs from an earlier run's %s" % (digest, seen)
    ledger[key] = digest
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    return None


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    return statistics.fmean(xs) if xs else 0.0


def tail(xs):
    return stats.percentile(xs, TAIL_PERCENTILE) if xs else 0.0


def end_to_end(raw):
    s, sc = raw["samples"], raw["scalars"]
    op = s.get("op_ms", [])
    loop_s = sc.get("loop_s") or math.nan
    stored = mean(s["stored_ratio"]) if "stored_ratio" in s else sc.get("stored_ratio", 0.0)
    return {
        "op_p50_ms": median(op),
        "op_tail_ms": tail(op),
        "ops_per_s": len(op) / loop_s,
        "sim_io_ms": mean(s.get("sim_io_ms", [])),
        "stored_ratio": stored,
        "peak_rss_mib": sc["peak_rss_mib"],
        "setup_s": median(s["setup_s"]),
    }


def per_layer(workload, raw, events):
    s, sc = raw["samples"], raw["scalars"]
    rollup = stats.self_time_rollup(events)
    t = lambda name: s.get("traced." + name, [])  # noqa: E731
    decode_s = sum(t("compress.decode_ms")) / 1e3
    queue = t("queue_ms")
    m = {
        "mesh.collapses_per_write": mean(s.get("mesh.collapses_per_write", [])),
        "compress.decode_ms": median(t("compress.decode_ms")),
        "core.restore_level_ms": median(t("core.restore_level_ms")),
        "compress.decode_mib_per_s":
            sum(t("decode_mib")) / decode_s if decode_s > 0 else 0.0,
        "analytics.blobs_found": mean(t("analytics.blobs_found")),
        "serve.queue_wait_p50_ms": median(queue),
        "serve.queue_wait_p99_ms": stats.percentile(queue, 99.0) if queue else 0.0,
        "serve.exec_p50_ms": median(t("exec_ms")),
        "serve.plan_match_ratio": mean(t("plan_match")),
        "obs.overhead_ratio":
            median(t("op_ms")) / median(s["op_ms"]) if s.get("op_ms") else 0.0,
    }
    for name in ("mesh.build_cascade", "core.build_mapping", "core.compute_delta",
                 "core.write_from_cascade", "core.open_base", "core.refine",
                 "core.refine_region", "compress.encode", "analytics.rasterize",
                 "analytics.detect_blobs"):
        m[name + "_ms"] = stats.median_per_op(rollup, name)
    for name, value in sc.items():
        if "." in name and not name.startswith("traced."):
            m.setdefault(name, value)
    return m


def consistency(workload, raw, layers):
    """The traced layer sums against the untraced end-to-end medians."""
    s = raw["samples"]
    checks = {
        "write_campaign": ("mesh.build_cascade_ms + core.write_from_cascade_ms",
                           ("mesh.build_cascade_ms", "core.write_from_cascade_ms"),
                           "op_ms"),
        "analyze_progressive": (
            "core.open_base_ms + analytics.rasterize_ms + analytics.detect_blobs_ms",
            ("core.open_base_ms", "analytics.rasterize_ms",
             "analytics.detect_blobs_ms"),
            "base_answer_ms"),
    }
    if workload not in checks:
        return []
    label, parts, series = checks[workload]
    total = sum(layers[p] for p in parts)
    ref = median(s.get(series, []))
    ok = ref > 0 and abs(total - ref) <= 0.10 * ref
    return [(label, total, ref, ok)]


def report_lines(workload, args, raw, e2e, spec):
    """The human-readable report: the workload's own metric names, with
    the sample count behind each."""
    s = raw["samples"]
    n_att, n_fail = raw["attempted"], raw["failed"]
    rows = [("seed", args.seed, "", ""), ("digest", raw["digest"], "", ""),
            ("fail_ratio", n_fail / max(n_att, 1), "ratio", n_att)]
    named = {
        "write_campaign": [("write", "op_ms")],
        "analyze_progressive": [("sweep", "op_ms"),
                                ("episode", "episode_ms"),
                                ("base_answer", "base_answer_ms"),
                                ("zoom", "zoom_ms"),
                                ("full_read", "full_read_ms")],
        "serve_shared": [("query", "op_ms")],
    }[workload]
    for label, series in named:
        xs = s.get(series, [])
        if not xs:
            continue
        rows.append((label + "_p50_ms", median(xs), "ms", len(xs)))
        q = stats.highest_percentile(len(xs))
        if q and q > 50:
            rows.append(("%s_p%g_ms" % (label, q), stats.percentile(xs, q),
                         "ms", len(xs)))
    for m in spec["end_to_end"]:
        n = len(s["setup_s" if m["name"] == "setup_s" else "op_ms"])
        rows.append((m["name"], e2e[m["name"]], m["unit"], n))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # A terminated run stops its runner too: SystemExit unwinds through
    # subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    try:
        runner = build()
    except (RuntimeError, OSError) as e:
        log("perfbench: " + str(e))
        return 2
    runs = build_root() / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    raw_path, chrome_path = runs / (stem + ".json"), runs / (stem + ".chrome.json")
    cmd = [str(runner), "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--out=" + str(raw_path), "--chrome-out=" + str(chrome_path)]
    budget = RUN_TIMEOUT_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, timeout=max(budget, 1.0))
    except subprocess.TimeoutExpired:
        log("perfbench: runner did not finish within %.0f s" % budget)
        return 2
    if proc.returncode != 0:
        log("perfbench: runner exited with %d" % proc.returncode)
        return 2
    raw = json.loads(raw_path.read_text())

    failures = list(raw["failures"])
    failed = raw["failed"]
    mismatch = check_digest(args.workload, args.seed, raw["digest"])
    if mismatch:
        failures.append(mismatch)
        failed += 1
    e2e = end_to_end(raw)
    for label, value, unit, n in report_lines(args.workload, args, raw, e2e, spec):
        shown = "%.6g" % value if isinstance(value, float) else str(value)
        print("%-28s %-18s %-6s %s" % (label, shown, unit,
                                        "n=%s" % n if n != "" else ""))
    if args.trace:
        events = stats.load_chrome_events(json.loads(chrome_path.read_text()))
        metrics = per_layer(args.workload, raw, events)
        for label, total, ref, ok in consistency(args.workload, raw, metrics):
            print("consistency: %s = %.3f ms vs %.3f ms untraced: %s"
                  % (label, total, ref, "ok (within 10%)" if ok else "OFF by >10%"))
        print("chrome trace: %s (%d spans)" % (chrome_path, len(events)))
        names = spec["per_layer"]
    else:
        metrics = e2e
        names = spec["end_to_end"]
    for why in failures:
        print("FAILED: " + why)

    result = {
        "correct": failed == 0,
        "attempted": int(raw["attempted"]),
        "failed": int(failed),
        "metrics": {m["name"]: {"value": float(metrics.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in names},
    }
    problems = stats.validate_result(result, spec, bool(args.trace))
    for p in problems:
        log("perfbench: result schema: " + p)
    if problems:
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
