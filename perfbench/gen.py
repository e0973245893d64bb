"""Seeded input generator for the end-to-end benchmark.

Everything the program under test reads is written here, from one
seed: a generator catalog (one scenario space of a few thousand
derived points), the `batch-wide` and `batch-deep` batch files, their
one-request set-up batches, and the request stream the traced run
sends to a live `eco_chip --serve` daemon.
The same seed always gives the same bytes; the program never sees the
seed itself.

    python3 perfbench/gen.py --seed 7 --out DIR    # writes the files
"""

import argparse
import json
import os
import random

SPACE = "bench-space"

# Built-in scenarios `batch-deep` binds to (at most eight); sweeps use
# only the multi-chiplet ones, so their point counts stay bounded.
DEEP_SCENARIOS = {
    # name: chiplet count (sweep points = len(nodes) ** chiplets)
    "ga102": 3,
    "a15": 3,
    "emr": 2,
    "fpga-pca": 3,
    "ga102-mono": 1,
    "a15-mono": 1,
}

WIDE_REQUESTS = 2400
# batch-deep, per binding: Monte Carlo trial counts from 10^2 to 10^5
# (the marked ones with inner threads), five sensitivities; per
# multi-chiplet binding, eight sweeps of these node-list sizes.
MC_TRIALS = (100, 1000, 5000, 20000, 90000)
MC_THREADED = (20000,)
SWEEP_SIZES = (2, 2, 3, 3, 3, 4, 4, 4)
SWEEP_NODES = [5, 7, 10, 14, 22]
SERVE_LINES = 8000
SERVE_REPEAT_SHARE = 0.985
SERVE_MC_SHARE = 0.03


def _dump(doc):
    return json.dumps(doc, separators=(",", ":"), sort_keys=False)


def _number(x):
    """A number spelled the way the scenario-space labels spell it."""
    if isinstance(x, str):
        return x
    return int(x) if float(x).is_integer() else x


def make_catalog(rng):
    """One generator whose axes span 4*3*4*4*4*4 = 3072 points."""
    nodes = sorted(rng.sample([5, 7, 10, 14], 4))
    lifetimes = sorted(rng.sample(range(2, 9), 4))
    duties = sorted(rng.sample([0.1, 0.2, 0.25, 0.3, 0.4, 0.5, 0.6,
                                0.75], 4))
    intensities = sorted(rng.sample(range(100, 900, 50), 4))
    space = {
        "name": SPACE,
        "description": "seeded three-die accelerator space",
        "architecture": {
            "name": "BENCH-ACCEL",
            "packaging": "rdl_fanout",
            "chiplets": [
                {"name": "compute", "type": "logic", "node_nm": 7,
                 "area_mm2": round(rng.uniform(90, 110), 1)},
                {"name": "sram", "type": "memory", "node_nm": 10,
                 "area_mm2": round(rng.uniform(55, 65), 1)},
                {"name": "io", "type": "io", "node_nm": 14,
                 "area_mm2": round(rng.uniform(30, 40), 1),
                 "reused": True},
            ],
        },
        "operational": {
            "lifetime_years": 4,
            "duty_cycle": 0.3,
            "avg_power_w": round(rng.uniform(40, 60), 1),
            "intensity_g_per_kwh": 500,
        },
        "axes": [
            {"axis": "node_nm", "name": "cnode", "chiplet": "compute",
             "values": nodes},
            {"axis": "chiplet_count", "name": "split",
             "chiplet": "compute", "values": [1, 2, 4]},
            {"axis": "packaging",
             "values": ["rdl_fanout", "silicon_bridge",
                        "passive_interposer", "active_interposer"]},
            {"axis": "lifetime_years", "values": lifetimes},
            {"axis": "duty_cycle", "values": duties},
            {"axis": "intensity_g_per_kwh", "values": intensities},
        ],
    }
    return {"generators": [space]}


def point_names(catalog):
    """Every derived point name of the catalog's space, in odometer
    order (last axis fastest)."""
    space = catalog["generators"][0]
    axes = space["axes"]
    names = [space["name"]]
    for axis in axes:
        label = axis.get("name", axis["axis"])
        names = [f"{prefix}/{label}={_number(v)}"
                 for prefix in names for v in axis["values"]]
    return names


def _cost_request(name, rng):
    return {"scenario": name, "analysis": "cost",
            "params": {"volume": rng.choice([50000, 100000, 250000,
                                             1000000])}}


def make_wide(catalog, rng):
    """Distinct points, 60% estimate / 40% cost: every request pays
    for its own binding."""
    points = rng.sample(point_names(catalog), WIDE_REQUESTS)
    requests = []
    for name in points:
        if rng.random() < 0.6:
            requests.append({"scenario": name, "analysis": "estimate"})
        else:
            requests.append(_cost_request(name, rng))
    return requests


def make_deep(rng):
    """Kernel-heavy requests over a few built-in bindings. The seed
    picks the values; the amount of work and its order are fixed
    (every binding gets the same trial-count ladder and sweep sizes),
    so the pool's schedule stays nearly the same from seed to seed."""
    names = sorted(DEEP_SCENARIOS)
    multi = [n for n in names if DEEP_SCENARIOS[n] > 1]
    requests = []
    for name in names:
        for base in MC_TRIALS:
            req = {"scenario": name, "analysis": "monte_carlo",
                   "trials": int(base * rng.uniform(0.9, 1.1)),
                   "seed": rng.randrange(1, 1 << 31)}
            if base in MC_THREADED:
                req["threads"] = rng.choice([2, 4])
            requests.append(req)
        for _ in range(5):
            requests.append({
                "scenario": name, "analysis": "sensitivity",
                "metric": rng.choice(["embodied", "operational", "total"]),
                "delta": rng.choice([0.05, 0.1, 0.2])})
    for name in multi:
        for size in SWEEP_SIZES:
            requests.append({"scenario": name, "analysis": "sweep",
                             "nodes_nm": sorted(rng.sample(SWEEP_NODES,
                                                           size))})
    return requests


def make_serve_stream(catalog, rng):
    """An open-loop request stream with skewed popularity: most lines
    repeat an earlier request, the rest are first sightings."""
    points = point_names(catalog)
    seen = []
    known = set()
    lines = []
    while len(lines) < SERVE_LINES:
        if seen and rng.random() < SERVE_REPEAT_SHARE:
            # Zipf-like skew: the earliest-seen requests are the most
            # popular, so a repeat rarely races its own first sighting.
            lines.append(seen[int(len(seen) * rng.random() ** 3)])
            continue
        name = rng.choice(points)
        r = rng.random()
        if r < SERVE_MC_SHARE:
            req = {"scenario": name, "analysis": "monte_carlo",
                   "trials": rng.choice([64, 128, 256]),
                   "seed": rng.randrange(1, 1 << 31)}
        elif r < 0.5:
            req = {"scenario": name, "analysis": "estimate"}
        else:
            req = _cost_request(name, rng)
        line = _dump(req)
        if line in known:
            continue
        known.add(line)
        seen.append(line)
        lines.append(line)
    return lines


def generate(seed, out):
    """Write every input file for @p seed into @p out and return the
    measured input properties."""
    os.makedirs(out, exist_ok=True)
    rng = random.Random(seed)
    catalog = make_catalog(rng)
    wide = make_wide(catalog, rng)
    deep = make_deep(rng)
    stream = make_serve_stream(catalog, rng)

    def write(name, doc):
        with open(os.path.join(out, name), "w") as f:
            f.write(json.dumps(doc, indent=1) + "\n")

    write("catalog.json", catalog)
    write("wide.json", {"scenarios": "catalog.json", "requests": wide})
    write("deep.json", {"scenarios": "catalog.json", "requests": deep})
    write("wide_one.json", {"scenarios": "catalog.json",
                            "requests": wide[:1]})
    # Set-up time is what a batch pays before its work, so the deep
    # one-request batch holds a plain estimate, not a 10^5-trial run.
    write("deep_one.json", {"scenarios": "catalog.json",
                            "requests": [{"scenario": deep[0]["scenario"],
                                          "analysis": "estimate"}]})
    with open(os.path.join(out, "serve.ndjson"), "w") as f:
        f.write("\n".join(stream) + "\n")

    def mix(requests):
        kinds = {}
        for r in requests:
            kinds[r["analysis"]] = kinds.get(r["analysis"], 0) + 1
        return kinds

    distinct = set()
    repeats = 0
    for line in stream:
        repeats += line in distinct
        distinct.add(line)
    return {
        "batch-wide": {"requests": len(wide), "kinds": mix(wide),
                       "bindings": len({r["scenario"] for r in wide})},
        "batch-deep": {"requests": len(deep), "kinds": mix(deep),
                       "bindings": len({r["scenario"] for r in deep})},
        "serve": {"lines": len(stream), "distinct": len(distinct),
                        "repeat_share": repeats / len(stream),
                        "kinds": mix(json.loads(x) for x in stream)},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    print(json.dumps(generate(args.seed, args.out), indent=1))


if __name__ == "__main__":
    main()
