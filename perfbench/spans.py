"""Self times and per-layer metrics from the traced replay.

The driver (`driver.cpp trace`) writes its spans as Chrome trace-event
JSON: one complete ("X") event per timed call, with `args.id`,
`args.parent` (-1 for a root), `args.request` (shared by the spans of
one request) and `args.pass` (which part of the run recorded it).
Open the file in any trace-event viewer; this module turns it into
the per-layer metrics of BENCHMARK.json.
"""

import json

from stats import percentile


def load(path):
    with open(path) as f:
        return json.load(f)


def self_times(events):
    """{event index: self time in µs}: the span's duration minus the
    part of its interval that its child spans cover."""
    children = {}
    by_id = {}
    for i, e in enumerate(events):
        by_id[e["args"]["id"]] = i
    for i, e in enumerate(events):
        parent = e["args"]["parent"]
        if parent >= 0:
            children.setdefault(by_id[parent], []).append(i)
    result = {}
    for i, e in enumerate(events):
        start, end = e["ts"], e["ts"] + e["dur"]
        covered = 0.0
        cursor = start
        intervals = sorted((max(start, events[c]["ts"]),
                            min(end, events[c]["ts"] + events[c]["dur"]))
                           for c in children.get(i, []))
        for lo, hi in intervals:  # union of the clipped child intervals
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[i] = e["dur"] - covered
    return result


def layer_metrics(trace):
    """Per-layer metrics of one traced replay (all times from spans)."""
    events = trace["traceEvents"]
    other = trace["otherData"]
    own = self_times(events)

    def spans(name, pass_=None):
        return [i for i, e in enumerate(events) if e["name"] == name and
                (pass_ is None or e["args"]["pass"] == pass_)]

    def durations(name, pass_=None):
        return [events[i]["dur"] for i in spans(name, pass_)]

    def self_sum(name, pass_=None):
        return sum(own[i] for i in spans(name, pass_))

    def p50(values):
        return percentile(values, 0.5)

    primary = [i for i, e in enumerate(events)
               if e["args"]["pass"] == "primary"]
    replays = ("primary", "secondary")

    def in_replays(name):
        return [d for p in replays for d in durations(name, p)]

    encode_ms = self_sum("io.encode", "primary") / 1e3
    request_us = sum(events[i]["dur"] for i in spans("request", "primary"))
    batch_ms = other["batch_ms"]
    untraced = sorted(other["untraced_ms"])
    traced = sorted(other["traced_ms"])
    untraced_ms = untraced[len(untraced) // 2]
    traced_ms = traced[len(traced) // 2]
    mc = in_replays("kernels.monte_carlo")
    sweep = in_replays("kernels.sweep")
    return {
        "io.decode_ms": self_sum("io.decode", "primary") / 1e3,
        "io.encode_ms": encode_ms,
        "io.encode_mb_per_s":
            other["primary_report_bytes"] / 1e6 / (encode_ms / 1e3),
        "io.request_decode_us_p50": p50(durations("io.request_decode")),
        "io.canonical_us_p50": p50(durations("io.canonical")),
        "session.catalog_ms": self_sum("session.catalog", "primary") / 1e3,
        "session.bind_us_p50": p50(durations("session.bind", "primary")),
        "session.bind_ms": self_sum("session.bind", "primary") / 1e3,
        "session.contexts": other["primary_contexts"],
        "core.estimate_us_p50": p50(in_replays("core.estimate")),
        "core.cost_us_p50": p50(in_replays("core.cost")),
        "kernels.monte_carlo_us_per_trial": sum(mc) / other["deep_trials"],
        "kernels.sweep_us_per_point":
            sum(sweep) / other["deep_sweep_points"],
        "kernels.sensitivity_ms_p50":
            p50(in_replays("kernels.sensitivity")) / 1e3,
        "engine.batch_ms": batch_ms,
        "engine.parallel_eff":
            request_us / 1e3 / (other["threads"] * batch_ms),
        "engine.plan_chunks_ms": self_sum("engine.plan_chunks") / 1e3,
        "engine.chunks": other["chunks_planned"],
        "engine.redispatches": other["redispatches"],
        "engine.coordinate_overhead_ms":
            other["coordinate_ms"] - other["wide_batch_ms"],
        "server.cache_key_us_p50": p50(durations("server.cache_key")),
        "server.cache_lookup_us_p50": p50(durations("server.cache_lookup")),
        "server.cache_store_us_p50": p50(durations("server.cache_store")),
        "bench.trace_overhead_frac": traced_ms / untraced_ms - 1.0,
        # Self times of the traced replay's spans against the wall
        # time of the same replay run untraced.
        "bench.span_coverage_frac":
            sum(own[i] for i in primary) / 1e3 / untraced_ms,
    }
