"""Percentiles, run summaries, and the compare rule of the benchmark.

Compare two result sets (JSON-lines files that `run.py --record FILE`
appends to, one line per run) by the rule a performance claim must
meet:

    python3 perfbench/stats.py compare PARENT.jsonl CHANGE.jsonl

Runs pair up in order (run i of the parent with run i of the change;
alternate which side runs first when making them). Per workload and
end-to-end metric, the change wins a pair when it is better; a gain is
claimed only from at least ten pairs, with at least nine wins in ten
and a median gap wider than the parent's interquartile range. Fewer
pairs are "insufficient". A gain is "refused" when the change failed a
larger share of its requests than the parent. A metric whose spread
(IQR / median) is wider than its bound in BENCHMARK.json is reported as
"unresolved".
"""

import json
import math
import os
import statistics
import sys

# A percentile is reported only when at least this many samples lie
# beyond it (p50 needs 20 samples, p99 needs 1000).
BEYOND = 10
# Pairs of parent and change runs a verdict needs.
MIN_PAIRS = 10


def percentile(values, q):
    """The nearest-rank @p q-quantile (0 < q < 1) of @p values.

    Raises ValueError when fewer than BEYOND samples lie beyond it.
    """
    n = len(values)
    if n == 0 or n * (1.0 - q) < BEYOND:
        raise ValueError(f"p{q * 100:g} needs {math.ceil(BEYOND / (1 - q))}"
                         f" samples, got {n}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives
    them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def summary(values):
    """Median and quartiles of repeated measurements, for the stamp."""
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3}


def load_results(path):
    """Result lines grouped as ({workload: {metric: [values in run
    order]}}, {workload: share of attempted requests that failed})."""
    grouped, counts = {}, {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            doc = json.loads(line)
            per = grouped.setdefault(doc["workload"], {})
            for name, m in doc["metrics"].items():
                per.setdefault(name, []).append(m["value"])
            n = counts.setdefault(doc["workload"], [0, 0])
            n[0] += doc["attempted"]
            n[1] += doc["failed"]
    return grouped, {w: failed / max(1, attempted)
                     for w, (attempted, failed) in counts.items()}


def compare_metric(parent, change, better, bound, parent_failed=0.0,
                   change_failed=0.0):
    """Verdict of one metric: `gain`, `regression`, `unchanged`,
    `unresolved`, `insufficient` (fewer than MIN_PAIRS pairs) or
    `refused` (a gain, but with a larger failed share @p change_failed
    than the parent's @p parent_failed), with the numbers behind it."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return {"pairs": len(pairs), "verdict": "insufficient"}
    sign = 1 if better == "higher" else -1
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = sign * (c_med - p_med)
    result = {"parent": [p_q1, p_med, p_q3], "change": [c_q1, c_med, c_q3],
              "pairs": len(pairs), "wins": wins, "losses": losses}
    if sign > 0:
        separated = min(change) > max(parent)
    else:
        separated = max(change) < min(parent)
    if wins >= 0.9 * len(pairs) and gap > p_q3 - p_q1:
        result["verdict"] = "gain"
    elif spread(parent) > bound or spread(change) > bound:
        # Too noisy to call, unless every run of the change beats
        # every run of the parent.
        result["verdict"] = "gain" if separated else "unresolved"
    elif -gap > bound * p_med:
        result["verdict"] = "regression"
    else:
        result["verdict"] = "unchanged"
    if result["verdict"] == "gain" and change_failed > parent_failed:
        result["verdict"] = "refused"
    return result


def compare(parent_path, change_path, bench_path):
    with open(bench_path) as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    parent, parent_failed = load_results(parent_path)
    change, change_failed = load_results(change_path)
    report = {}
    for workload in sorted(set(parent) & set(change)):
        rows = {}
        for name in sorted(set(parent[workload]) & set(change[workload])):
            meta = metrics.get(name)
            if meta is None:
                continue
            rows[name] = compare_metric(
                parent[workload][name], change[workload][name],
                meta["better"], meta["bound"], parent_failed[workload],
                change_failed[workload])
        report[workload] = rows
    return report


def main(argv):
    if len(argv) != 4 or argv[1] != "compare":
        sys.exit("usage: stats.py compare PARENT.jsonl CHANGE.jsonl")
    here = os.path.dirname(os.path.abspath(__file__))
    bench = os.path.join(here, "..", "BENCHMARK.json")
    report = compare(argv[2], argv[3], bench)
    for workload, rows in report.items():
        for name, r in rows.items():
            if r["verdict"] == "insufficient":
                print(f"{workload:16s} {name:24s} insufficient "
                      f"({r['pairs']} pairs, {MIN_PAIRS} needed)")
                continue
            print(f"{workload:16s} {name:24s} {r['verdict']:12s} "
                  f"parent {r['parent'][1]:.6g} change {r['change'][1]:.6g}"
                  f" wins {r['wins']}/{r['pairs']}")


if __name__ == "__main__":
    main(sys.argv)
