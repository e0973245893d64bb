#!/usr/bin/env python3
"""End-to-end benchmark of the `eco_chip` batch shapes, with a traced
per-layer run that also covers the coordinator and the serve daemon.

    python3 perfbench/run.py --workload batch-wide --seed 1 \\
        --seconds 10 --trace 0 [--record results.jsonl]

Run from the root of a source checkout. The first run builds the
program (`perfbench/CMakeLists.txt`, into `$CARGO_TARGET_DIR` or
`.bench_build`); inputs come from `gen.py` and the seed; scratch files
go to `.perfbench/`. Every output is checked byte for byte against an
in-process one-thread reference. The last line of standard output is
the result: `{"correct", "attempted", "failed", "metrics"}`, with the
end-to-end metrics of BENCHMARK.json when `--trace 0` and the per-layer
metrics when `--trace 1`. The line before it is the environment stamp
(also appended with the result to `--record FILE`, which
`stats.py compare` reads).

Workloads (the `why` of each is in BENCHMARK.json):
  batch-wide   eco_chip --batch on thousands of distinct points
  batch-deep   eco_chip --batch on ~100 kernel-heavy requests
The coordinator (`eco_chip --coordinate`) and the `eco_chip --serve`
daemon are measured per layer, in the traced run. They have no
end-to-end workload: on a shared 4-vCPU VM their wall times drifted
between runs by more than the bounds allow.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import spans  # noqa: E402
from stats import percentile, summary  # noqa: E402

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                          ".bench_build"))
SCRATCH = os.path.join(ROOT, ".perfbench")
NPROC = len(os.sched_getaffinity(0))

WORKLOADS = ("batch-wide", "batch-deep")

# One-request batch runs per run, spread evenly over the measured
# period.
SETUP_REPEATS = 60
WARM_UP_S = 2.0
# The traced run's daemon: an open loop at REFERENCE_RATE/s over
# NPROC connections for TRACE_OPEN_SECONDS, timed from when each
# request was due.
REFERENCE_RATE = 1000.0
TRACE_OPEN_SECONDS = 4.0
assert 1.1 * REFERENCE_RATE * TRACE_OPEN_SECONDS < gen.SERVE_LINES
# A serve rep is invalid, and is repeated, when the load generator
# sent its requests later than this at p99; a run fails after
# MAX_ATTEMPTS invalid reps in a row. A generator that cannot keep up
# falls ever further behind; a sound one on a 4-vCPU VM that loses a
# vCPU for 4-16 ms a few times a second stays below 5 ms.
LATE_LIMIT_MS = 10.0
MAX_ATTEMPTS = 5
# A traced replay is invalid, and is repeated (at most MAX_ATTEMPTS
# times), when tracing changed its wall time, or the span self times
# missed it, by more than this share.
TRACE_LIMIT = 0.15
# The daemon's pool leaves one core to its poll loop and one to the
# load generator; with three or more cores the generator is pinned to
# one and the daemon to the others, so they do not trade places.
SERVE_THREADS = max(1, NPROC - 2)
CPUS = sorted(os.sched_getaffinity(0))
LOAD_CPUS = set(CPUS[:1]) if NPROC >= 3 else set(CPUS)
SERVER_CPUS = set(CPUS[1:]) if NPROC >= 3 else set(CPUS)
# A generator with a CPU of its own polls without blocking, so its own
# wake-ups stay out of the measured round trips.
SPIN = 1 if NPROC >= 3 else 0


class BenchError(Exception):
    pass


def build():
    """Configure once, then bring eco_chip and the driver up to date."""
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt: run from a source checkout")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "perfbench-build.log"), "a") as out:
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=out, stderr=out, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", "eco_chip",
                        "perfbench_driver", "-j", str(NPROC)],
                       stdout=out, stderr=out, check=True)
    return (os.path.join(BUILD, "bin", "eco_chip"),
            os.path.join(BUILD, "bin", "perfbench_driver"))


def report_failures(got, ref, n):
    """Requests of an @p n-request batch that report @p got loses
    against the reference bytes @p ref: 0 when byte-identical; else its
    failed and missing outcomes, at least 1, or all @p n when it does
    not parse."""
    if got == ref:
        return 0
    try:
        doc = json.loads(got)
        return max(1, doc["failed"] + n - len(doc["outcomes"]))
    except (ValueError, KeyError, TypeError):
        return n


def late_p99_ms(open_loop):
    """How late the generator sent an open loop's requests, at p99, in
    ms (the rows are the load generator's `[due, late, done, first]`)."""
    return percentile([r[1] for r in open_loop], 0.99) / 1e3


def warm_up(step):
    """Repeat @p step for WARM_UP_S first: an idle virtual machine runs
    the first second or two of load markedly slower."""
    deadline = time.perf_counter() + WARM_UP_S
    while time.perf_counter() < deadline:
        step()


def interleaved(seconds, step, setup_step, min_steps):
    """Repeat @p step for @p seconds (and at least @p min_steps times),
    with SETUP_REPEATS runs of @p setup_step spread evenly among them,
    so set-up is measured under the same conditions as the rest.
    Returns both lists of results."""
    results, setups = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(results) < min_steps:
        results.append(step())
        share = min(1.0, (time.perf_counter() - start) / seconds)
        while len(setups) < math.ceil(SETUP_REPEATS * share):
            setups.append(setup_step())
    return results, setups


class Run:
    def __init__(self, args):
        self.args = args
        self.work = os.path.join(SCRATCH, f"{args.workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs = os.path.join(self.work, "inputs")
        self.eco_chip, self.driver = build()
        self.properties = gen.generate(args.seed, self.inputs)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.samples = {}  # metric -> repeated measurements in this run
        self.children = []
        self.invalid_reps = 0  # serve reps or traced replays repeated

    def rel(self, path):
        return os.path.relpath(path, self.work)

    def timed(self, cmd):
        """Run @p cmd to completion through the driver's launcher:
        (wall seconds, exit code, max RSS MB of it and the children it
        waited for)."""
        out = subprocess.run([self.driver, "run"] + cmd, cwd=self.work,
                             capture_output=True, text=True, check=True)
        doc = json.loads(out.stdout)
        return doc["wall_s"], doc["exit"], doc["maxrss_kb"] / 1024.0

    def reference(self, name):
        """The one-thread in-process report of batch @p name."""
        out = os.path.join(self.inputs, f"{name}.ref.json")
        if not os.path.exists(out):
            subprocess.run([self.driver, "reference",
                            os.path.join(self.inputs, f"{name}.json"), out],
                           check=True)
        with open(out, "rb") as f:
            data = f.read()
        doc = json.loads(data)
        if doc["succeeded"] != len(doc["outcomes"]) or doc["failed"]:
            raise BenchError(f"reference of {name} has failed requests")
        return data, len(doc["outcomes"])

    # ------------------------------------------------------- batch shapes

    def invoke(self, batch):
        out = os.path.join(self.work, "report.json")
        if os.path.exists(out):
            os.remove(out)
        wall, code, rss = self.timed(
            [self.eco_chip, "--batch", self.rel(batch), "--engine_threads",
             str(NPROC), "--json", "report.json"])
        return wall, code, rss, out

    def run_batch(self):
        name = "deep" if self.args.workload == "batch-deep" else "wide"
        ref, n = self.reference(name)
        batch = os.path.join(self.inputs, f"{name}.json")
        one = os.path.join(self.inputs, f"{name}_one.json")

        def step():
            wall, code, peak, out = self.invoke(batch)
            with open(out, "rb") as f:
                got = f.read()
            self.attempted += n
            lost = report_failures(got, ref, n) if code == 0 else n
            if lost:
                self.correct = False
                self.failed += lost
            return wall, peak

        def setup_step():
            wall, code, _, _ = self.invoke(one)
            if code != 0:
                raise BenchError("one-request batch failed")
            return wall

        warm_up(lambda: self.invoke(batch))
        runs, setup = interleaved(self.args.seconds, step, setup_step, 5)
        walls = [wall for wall, _ in runs]
        rss = [peak for _, peak in runs]
        self.samples = {
            "requests_per_s": [n / w for w in walls],
            "latency_p50_ms": [w * 1e3 for w in walls],
            "setup_s": setup,
            "peak_rss_mb": rss,
        }
        return {
            "requests_per_s": n / statistics.median(walls),
            "latency_p50_ms": statistics.median(walls) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": max(rss),
        }

    # ------------------------------------------------------------- serve

    def spawn_server(self):
        """Start a daemon on a fresh cache: (launcher, socket)."""
        cache = os.path.join(self.work, "cache")
        sock = "s.sock"
        cmd = [self.eco_chip, "--serve", "--socket", sock, "--cache_dir",
               self.rel(cache), "--scenarios",
               self.rel(os.path.join(self.inputs, "catalog.json")),
               "--engine_threads", str(SERVE_THREADS)]
        shutil.rmtree(cache, ignore_errors=True)
        proc = subprocess.Popen(
            [self.driver, "run", f"--ready={sock}"] + cmd, cwd=self.work,
            stdout=subprocess.PIPE, text=True, start_new_session=True,
            preexec_fn=lambda: os.sched_setaffinity(0, SERVER_CPUS))
        self.children.append(proc)
        if json.loads(proc.stdout.readline())["ready_s"] < 0:
            raise BenchError("server did not start")
        return proc, sock

    def stop_server(self, proc, sock):
        """Drain the daemon gracefully."""
        with socket.socket(socket.AF_UNIX) as s:
            s.connect(os.path.relpath(os.path.join(self.work, sock)))
            s.sendall(b'{"control":"shutdown"}\n')
            s.recv(4096)
        exited = json.loads(proc.stdout.readline())
        proc.wait()
        proc.stdout.close()
        self.children.remove(proc)
        if exited["exit"] != 0:
            raise BenchError("server did not drain cleanly")

    def start_load(self):
        """The load generator, its references computed (untimed)."""
        load = subprocess.Popen(
            [self.driver, "load",
             self.rel(os.path.join(self.inputs, "serve.ndjson")),
             self.rel(os.path.join(self.inputs, "catalog.json")),
             str(NPROC), str(self.args.seed), str(SPIN)],
            cwd=self.work, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, start_new_session=True,
            preexec_fn=lambda: os.sched_setaffinity(0, LOAD_CPUS))
        self.children.append(load)
        if json.loads(load.stdout.readline()).get("ready") is not True:
            raise BenchError("load generator did not start")
        return load

    @staticmethod
    def command(load, line):
        load.stdin.write(line + "\n")
        load.stdin.flush()
        reply = load.stdout.readline()
        if not reply:
            raise BenchError(f"load generator died on: {line}")
        return json.loads(reply)

    def serve_rep(self, load):
        """One fresh daemon under the open loop: its requests
        (`[due, late, done, first]` rows, µs) and its stats at drain.
        Repeated while the generator runs late (see LATE_LIMIT_MS)."""
        for _ in range(MAX_ATTEMPTS):
            proc, sock = self.spawn_server()
            self.command(load, f"connect {sock}")
            reqs = self.command(
                load, f"open {REFERENCE_RATE} {TRACE_OPEN_SECONDS} 5"
            )["requests"]
            stats = self.command(load, "stats")
            self.stop_server(proc, sock)
            lost = sum(1 for r in reqs if r[2] < 0)
            self.attempted += len(reqs)
            self.failed += lost
            if lost:
                self.correct = False
            late_ms = late_p99_ms(reqs)
            if late_ms <= LATE_LIMIT_MS:
                return reqs, stats, late_ms
            self.invalid_reps += 1
        raise BenchError(f"load generator ran {late_ms:.3f} ms late at p99"
                         f" in {MAX_ATTEMPTS} reps in a row")

    def stop_load(self, load):
        load.stdin.write("quit\n")
        load.stdin.flush()
        load.wait()
        self.children.remove(load)

    # ------------------------------------------------------------- trace

    def run_trace(self):
        primary = "deep" if self.args.workload == "batch-deep" else "wide"
        for name in ("wide", "deep"):
            self.reference(name)
        out = os.path.join(self.work, "trace")
        pairs = 3 if primary == "deep" else 5
        for _ in range(MAX_ATTEMPTS):
            code = subprocess.run([self.driver, "trace", self.inputs,
                                   primary, self.eco_chip, str(NPROC),
                                   str(pairs), out]).returncode
            if code != 0:
                raise BenchError("traced replay failed its checks")
            trace = spans.load(os.path.join(out, "trace.json"))
            metrics = spans.layer_metrics(trace)
            overhead = metrics["bench.trace_overhead_frac"]
            coverage = metrics["bench.span_coverage_frac"]
            if (abs(overhead) <= TRACE_LIMIT and
                    abs(1.0 - coverage) <= TRACE_LIMIT):
                break
            self.invalid_reps += 1
        else:
            raise BenchError(f"traced replay invalid {MAX_ATTEMPTS} times"
                             f" in a row: overhead {overhead:.3f}, span"
                             f" coverage {coverage:.3f}")
        self.attempted += int(trace["otherData"]["primary_requests"])

        # Client round trips on a live daemon, split by first sighting
        # (four seconds, for twenty or more first sightings).
        load = self.start_load()
        open_loop, stats, late_ms = self.serve_rep(load)
        self.stop_load(load)
        trips = [(r[2] - r[1], r[3]) for r in open_loop if r[2] >= 0]
        metrics.update({
            "server.hit_frac": stats["hits"] / (stats["hits"] +
                                                stats["misses"]),
            "server.contexts": stats["contexts"],
            "server.hit_us_p50": percentile([t for t, f in trips if not f],
                                            0.5),
            "server.miss_us_p50": percentile([t for t, f in trips if f],
                                             0.5),
            "server.p99_ms": percentile([r[2] / 1e3 for r in open_loop
                                         if r[2] >= 0], 0.99),
            "bench.gen_late_p99_ms": late_ms,
        })
        return metrics

    # -------------------------------------------------------------- main

    def stamp(self, metrics):
        cache = {}
        cache_path = os.path.join(BUILD, "CMakeCache.txt")
        with open(cache_path) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":")[0]] = value
        compiler = subprocess.run([cache.get("CMAKE_CXX_COMPILER", "c++"),
                                   "--version"], capture_output=True,
                                  text=True).stdout.split("\n")[0]
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unknown (not a git checkout)"
        return {
            "workload": self.args.workload,
            "seed": self.args.seed,
            "trace": self.args.trace,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "invalid_reps": self.invalid_reps,
            "nproc": NPROC,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "compiler": compiler,
            "commit": commit,
            "source_digest": source_digest(),
            "inputs": self.properties,
            "runs": {name: summary(v) for name, v in self.samples.items()},
            "metrics": {name: {"value": v} for name, v in metrics.items()},
        }

    def close(self):
        # A daemon runs under its launcher, in the launcher's session.
        for proc in self.children:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        # Keep only the latest trace of each workload.
        trace = os.path.join(self.work, "trace", "trace.json")
        if os.path.exists(trace):
            os.replace(trace, os.path.join(
                SCRATCH, f"trace-{self.args.workload}.json"))
        shutil.rmtree(self.work, ignore_errors=True)


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "apps", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def unit_of(name):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    for m in bench["end_to_end"] + bench["per_layer"]:
        if m["name"] == name:
            return m["unit"]
    raise BenchError(f"metric {name} is not in BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the stamped result here")
    args = parser.parse_args()

    run = None
    try:
        run = Run(args)
        if args.trace:
            metrics = run.run_trace()
        else:
            metrics = run.run_batch()
        stamp = run.stamp(metrics)
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.CalledProcessError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        if run is not None:
            run.close()

    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    if args.record:
        with open(args.record, "a") as f:
            f.write(json.dumps(stamp) + "\n")
    print(json.dumps({"stamp": stamp}))
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
