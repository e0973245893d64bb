"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of a source checkout. The load-generator test builds
the program first (as `run.py` does), so it takes about a minute on a
fresh checkout.
"""

import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

TMP = os.path.join(run.SCRATCH, "tests")


def fresh(name):
    path = os.path.join(TMP, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        a, b, c = fresh("seed-a"), fresh("seed-b"), fresh("seed-c")
        gen.generate(7, a)
        gen.generate(7, b)
        gen.generate(8, c)
        names = sorted(os.listdir(a))
        self.assertEqual(names, sorted(os.listdir(b)))
        _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
        self.assertEqual((mismatch, errors), ([], []))
        _, mismatch, _ = filecmp.cmpfiles(a, c, names, shallow=False)
        self.assertIn("wide.json", mismatch)
        self.assertIn("serve.ndjson", mismatch)

    def test_input_properties(self):
        props = gen.generate(7, fresh("props"))
        wide = props["batch-wide"]
        self.assertEqual(wide["bindings"], wide["requests"])
        self.assertLessEqual(props["batch-deep"]["bindings"], 8)
        self.assertGreater(props["serve"]["repeat_share"], 0.9)


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        with self.assertRaises(ValueError):
            stats.percentile(list(range(19)), 0.5)
        self.assertEqual(stats.percentile(list(range(1, 21)), 0.5), 10)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(999)), 0.99)
        self.assertEqual(stats.percentile(list(range(1, 1001)), 0.99), 990)

    def test_nearest_rank_ignores_order(self):
        values = [5, 1, 4, 2, 3] * 8
        self.assertEqual(stats.percentile(values, 0.5), 3)
        self.assertEqual(stats.percentile(values, 0.75), 4)

    def test_quartiles_match_statistics(self):
        values = [3.0, 9.0, 1.0, 7.0, 5.0, 11.0, 2.0, 8.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        q1, q2, q3 = stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual((q1, q2, q3), (2.75, 5.5, 8.25))
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               5.5 / 5.5)


class CompareTest(unittest.TestCase):
    def test_gain_needs_nine_wins_in_ten_and_a_gap(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [p * 1.1 for p in parent]
        self.assertEqual(stats.compare_metric(parent, change, "higher", 0.1)
                         ["verdict"], "gain")
        mixed = change[:8] + [90, 90]
        self.assertNotEqual(stats.compare_metric(parent, mixed, "higher",
                                                 0.1)["verdict"], "gain")

    def test_regression_and_unresolved(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        worse = [p * 1.2 for p in parent]
        self.assertEqual(stats.compare_metric(parent, worse, "lower", 0.1)
                         ["verdict"], "regression")
        noisy = [50, 150, 60, 140, 100, 90, 110, 70, 130, 100]
        self.assertEqual(stats.compare_metric(parent, noisy, "lower", 0.1)
                         ["verdict"], "unresolved")

    def test_fewer_than_ten_pairs_is_insufficient(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99]
        change = [p * 2 for p in parent]
        self.assertEqual(stats.compare_metric(parent, change, "higher", 0.1)
                         ["verdict"], "insufficient")
        self.assertEqual(stats.compare_metric(parent + [100], change + [200],
                                              "higher", 0.1)["verdict"],
                         "gain")

    def test_gain_with_more_failures_is_refused(self):
        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        change = [p * 1.1 for p in parent]
        self.assertEqual(stats.compare_metric(parent, change, "higher", 0.1,
                                              0.0, 0.01)["verdict"],
                         "refused")
        self.assertEqual(stats.compare_metric(parent, change, "higher", 0.1,
                                              0.01, 0.01)["verdict"], "gain")

    def test_compare_reads_failures_from_recorded_runs(self):
        work = fresh("compare")

        def record(name, rps, failed):
            path = os.path.join(work, name)
            with open(path, "w") as f:
                for v in rps:
                    f.write(json.dumps({
                        "workload": "batch-wide", "correct": not failed,
                        "attempted": 100, "failed": failed,
                        "metrics": {"requests_per_s": {"value": v}}}) + "\n")
            return path

        parent = [100, 101, 99, 100, 102, 98, 100, 101, 99, 100]
        bench = os.path.join(HERE, "..", "BENCHMARK.json")
        base = record("parent.jsonl", parent, 0)
        faster = [p * 1.1 for p in parent]
        verdict = stats.compare(base, record("ok.jsonl", faster, 0), bench)
        self.assertEqual(verdict["batch-wide"]["requests_per_s"]["verdict"],
                         "gain")
        verdict = stats.compare(base, record("bad.jsonl", faster, 1), bench)
        self.assertEqual(verdict["batch-wide"]["requests_per_s"]["verdict"],
                         "refused")


class CheckerTest(unittest.TestCase):
    REPORT = json.dumps({"succeeded": 2, "failed": 0, "outcomes": [
        {"request": {"scenario": "a"}, "ok": True, "result": {"x": 1.5}},
        {"request": {"scenario": "b"}, "ok": True, "result": {"x": 2.5}},
    ]}, indent=4).encode() + b"\n"

    def test_identical_report_passes(self):
        self.assertEqual(run.report_failures(self.REPORT, self.REPORT, 2), 0)

    def test_one_flipped_byte_fails(self):
        for i in range(len(self.REPORT)):
            flipped = bytearray(self.REPORT)
            flipped[i] ^= 0x01
            self.assertGreater(
                run.report_failures(bytes(flipped), self.REPORT, 2), 0,
                f"flip at byte {i} passed")


class SelfTimeTest(unittest.TestCase):
    def event(self, i, ts, dur, parent=-1):
        return {"name": f"s{i}", "ts": ts, "dur": dur,
                "args": {"id": i, "parent": parent, "request": -1,
                         "pass": "primary"}}

    def test_self_time_subtracts_children_once(self):
        events = [self.event(0, 0, 100),
                  self.event(1, 10, 30, 0),
                  self.event(2, 30, 30, 0),   # overlaps its sibling
                  self.event(3, 90, 50, 0)]   # runs past its parent
        own = spans.self_times(events)
        self.assertEqual(own[0], 100 - 50 - 10)
        self.assertEqual(own[1], 30)
        self.assertEqual(sum(own[i] for i in (1, 2)), 60)


class LoadGeneratorTest(unittest.TestCase):
    """Against a live daemon: a stalled generator's lateness shows in
    the lateness it reports and in latency counted from the due time,
    and makes the serve rep invalid."""

    def test_stall_is_accounted_for(self):
        eco_chip, driver = run.build()
        work = fresh("load")
        gen.generate(3, os.path.join(work, "in"))
        server = subprocess.Popen(
            [eco_chip, "--serve", "--socket", "s.sock", "--cache_dir", "c",
             "--scenarios", "in/catalog.json", "--engine_threads", "1"],
            cwd=work, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        load = subprocess.Popen(
            [driver, "load", "in/serve.ndjson", "in/catalog.json", "2", "3",
             "0"],
            cwd=work, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        try:
            self.assertTrue(json.loads(load.stdout.readline())["ready"])
            for _ in range(500):
                if os.path.exists(os.path.join(work, "s.sock")):
                    break
                time.sleep(0.01)
            self.assertTrue(run.Run.command(load, "connect s.sock")
                            ["connected"])
            run.Run.command(load, "stall 300")
            doc = run.Run.command(load, f"open {run.REFERENCE_RATE} 1.2 5")
            reqs = doc["requests"]
            self.assertEqual(doc["mismatches"], 0)
            # [due, late, completion from due, first sighting], in µs
            stalled = [r for r in reqs if 1e4 < r[0] < 2.5e5]
            self.assertGreater(len(stalled), 100)
            for due, late, done, _ in stalled:
                self.assertGreater(late, 3e5 - due - 1e4)
                self.assertGreaterEqual(done, late)
            # A serve rep this late is invalid and is repeated.
            self.assertGreater(run.late_p99_ms(reqs), run.LATE_LIMIT_MS)
            load.stdin.write("quit\n")
            load.stdin.flush()
            load.wait(timeout=30)
        finally:
            load.kill()
            load.wait()
            load.stdin.close()
            load.stdout.close()
            server.terminate()
            server.wait()


if __name__ == "__main__":
    unittest.main()
