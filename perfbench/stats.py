"""Statistics of the benchmark: percentiles, quartiles, span self time and
the result schema. Standard library only; perfbench/test_stats.py checks it.
"""

import math
import statistics

# Percentiles the benchmark may report, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 99.0, 99.9)
# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered) - 1e-9)
    return ordered[min(len(ordered), max(rank, 1)) - 1]


def samples_beyond(n, q):
    """How many of n samples lie beyond the q-th percentile."""
    return n - math.ceil(q / 100.0 * n - 1e-9)


def highest_percentile(n, ladder=PERCENTILE_LADDER):
    """The highest percentile of `ladder` with MIN_BEYOND samples beyond it,
    or None when even the lowest has too few."""
    best = None
    for q in ladder:
        if samples_beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def self_times(events):
    """Self time (microseconds) of every span: its duration minus the part
    of its interval covered by its child spans. `events` are dicts with
    id, parent, ts, dur (Chrome trace_event "X" events flattened)."""
    children = {}
    for e in events:
        children.setdefault(e["parent"], []).append(e)
    out = {}
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        covered = 0.0
        cursor = start
        kids = sorted(children.get(e["id"], []), key=lambda c: c["ts"])
        for c in kids:
            lo = max(c["ts"], cursor)
            hi = min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[e["id"]] = max(e["dur"] - covered, 0.0)
    return out


def load_chrome_events(trace):
    """Flattens a Chrome trace_event document written by the runner."""
    events = []
    for ev in trace["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        args = ev.get("args", {})
        events.append({"name": ev["name"], "ts": float(ev["ts"]),
                       "dur": float(ev["dur"]), "id": args["id"],
                       "parent": args["parent"], "op": args["op"]})
    return events


def self_time_rollup(events):
    """{span name: {op id: self milliseconds summed over the op's spans}}."""
    selfs = self_times(events)
    rollup = {}
    for e in events:
        per_op = rollup.setdefault(e["name"], {})
        per_op[e["op"]] = per_op.get(e["op"], 0.0) + selfs[e["id"]] / 1e3
    return rollup


def median_per_op(rollup, name):
    """Median over operations of a span's per-op self time; 0 when the
    workload never entered the span."""
    per_op = rollup.get(name)
    return statistics.median(per_op.values()) if per_op else 0.0


RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def validate_result(result, spec, trace):
    """Problems with a result line against BENCHMARK.json `spec`; empty when
    it is well-formed. With trace the metrics must be exactly the per_layer
    ones, otherwise exactly the end_to_end ones, each with its unit."""
    problems = []
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys must be exactly %s" % sorted(RESULT_KEYS)]
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        v = result[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            problems.append("%s must be a non-negative integer" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics or {}))
        extra = sorted(set(metrics or {}) - set(expected))
        problems.append("metric names differ: missing %s, extra %s"
                        % (missing, extra))
        return problems
    for name, unit in expected.items():
        m = metrics[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            problems.append("%s must be {value, unit}" % name)
            continue
        v = m["value"]
        if isinstance(v, bool) or not isinstance(v, (int, float)) \
                or not math.isfinite(v):
            problems.append("%s value must be a finite number" % name)
        if m["unit"] != unit:
            problems.append("%s unit %r, expected %r" % (name, m["unit"], unit))
    return problems
