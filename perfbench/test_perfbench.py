"""Tests of the benchmark itself. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They build the load generator (as perfbench/run.py does), run its C++
self-test (percentile and sample-count helpers, the delivery oracle against
an injected dropped and an injected extra notification), check the Python
report helpers, and run every workload at a tiny scale in both modes.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


WORKLOADS = tuple(w["name"] for w in run.load_contract()["workloads"])


def run_bench(*args):
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=HERE.parent)
    return done


class SelfTest(unittest.TestCase):
    def test_loadgen_self_test(self):
        done = run_bench("selftest")
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        self.assertIn("all passed", done.stderr)


class HelperTest(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        q1, med, q3 = run.quartiles(values)
        self.assertEqual([q1, med, q3], list(run.statistics.quantiles(values, n=4)))
        self.assertEqual(run.quartiles([3.0]), (3.0, 3.0, 3.0))

    def test_spread(self):
        self.assertAlmostEqual(run.spread([9.0, 10.0, 10.0, 10.0, 11.0]),
                               (10.5 - 9.5) / 10.0)

    def test_verdicts(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
        faster = [v * 0.8 for v in parent]
        slower = [v * 1.3 for v in parent]
        same = [v * 1.01 for v in parent]
        noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
        self.assertEqual(run.verdict(parent, faster, "lower", 0.1), "better")
        self.assertEqual(run.verdict(parent, slower, "lower", 0.1), "worse")
        self.assertEqual(run.verdict(parent, same, "lower", 0.1), "same")
        self.assertEqual(run.verdict(parent, noisy, "lower", 0.1), "unresolved")
        self.assertEqual(run.verdict(parent, faster, "higher", 0.1), "worse")

    def test_whole_window_regression_is_worse(self):
        parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
        a = {"publish_eps": parent, "publish_eps_window": parent}
        b = {"publish_eps": parent, "publish_eps_window": [v * 0.7 for v in parent]}
        self.assertEqual(run.judge(a, a, "publish_eps", "higher", 0.1), "same")
        self.assertEqual(run.judge(a, b, "publish_eps", "higher", 0.1),
                         "worse (whole window)")

    def test_contract_names_every_metric_once(self):
        contract = run.load_contract()
        names = [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)


class TinyWorkloadTest(unittest.TestCase):
    """Every workload, both modes, at 2% of its population: no failures."""

    def run_tiny(self, workload, trace, results):
        done = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--scale", "0.02", "--results", results)
        self.assertEqual(done.returncode, 0, done.stderr[-3000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], done.stderr[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        contract = run.load_contract()
        wanted = contract["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        stem = f"{workload}-trace{trace}-seed3"
        with open(Path(results) / f"{stem}.json") as f:
            record = json.load(f)
        self.assertEqual(record["failed"], 0)
        return record

    def test_every_workload(self):
        with tempfile.TemporaryDirectory() as results:
            for workload in WORKLOADS:
                for trace in (0, 1):
                    with self.subTest(workload=workload, trace=trace):
                        record = self.run_tiny(workload, trace, results)
                        if trace == 0:
                            error_rate = record["metrics"]["error_rate"]["value"]
                            self.assertEqual(error_rate, 0)

    def test_traced_counts_repeat(self):
        counts = ["filter.counter_increments_per_event", "filter.predicate_hits_per_event",
                  "filter.tree_evaluations_per_event", "filter.matches_per_event"]
        seen = []
        for _ in range(2):
            with tempfile.TemporaryDirectory() as results:
                record = self.run_tiny("auction-100k-match", 1, results)
                seen.append([record["metrics"][c]["value"] for c in counts])
        self.assertEqual(seen[0], seen[1])


if __name__ == "__main__":
    unittest.main()
