#!/usr/bin/env python3
"""The benchmark's own tests: every workload at smoke size on the default
and the held-out seed, untraced and traced.

    python3 perfbench/test_perfbench.py

Builds through run.py first (about half a minute on a cold checkout), then
takes about a minute of single-threaded runs.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (the entry point; reused for its build step)

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
with open(run.REFERENCE) as f:
    _REF = json.load(f)
SEEDS = (_REF["default_seed"], _REF["held_out_seed"])
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
E2E = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
# Every end-to-end result the workloads are defined by, printed by name and
# unit in the text of each untraced run.
_COMMON = [("jobs_failed_frac", "frac"), ("fct_avg_ms", "ms"),
           ("mice_fct_p50_ms", "ms"), ("mice_fct_p99_ms", "ms")]
PRINTED = {
    "asym_clove_ecn": _COMMON,
    "fault_clove_int": _COMMON + [("recovery_ms", "ms"), ("fct_inflation_x", "x")],
    "fattree8_hybrid": _COMMON + [("fct_avg_err", "frac"),
                                  ("mice_fct_p50_err", "frac"),
                                  ("mice_fct_p99_err", "frac")],
}


def drive(workload, seed, trace, reference=run.REFERENCE, env=None):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--size", "smoke",
           "--reference", reference]
    return subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Workloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")

    def check_result(self, res, names):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual({k: v["unit"] for k, v in res["metrics"].items()}, names)

    def test_untraced_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            for seed in SEEDS:
                with self.subTest(workload=w, seed=seed):
                    proc = drive(w, seed, 0)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = result_of(proc)
                    self.check_result(res, E2E)
                    for name in E2E:
                        self.assertGreater(res["metrics"][name]["value"], 0, name)
                    self.assertEqual(res["metrics"]["jobs_done_frac"]["value"], 1)
                    for name, unit in PRINTED[w] + list(E2E.items()):
                        self.assertRegex(proc.stdout, r"(?m)^  %s +\S+ %s$"
                                         % (re.escape(name), re.escape(unit)))
                    self.assertIn("config: workload=%s" % w, proc.stdout)
                    self.assertIn("identical across repeats: yes", proc.stdout)

    def test_traced_prints_every_per_layer_metric(self):
        for w in WORKLOADS:
            for seed in SEEDS:
                with self.subTest(workload=w, seed=seed):
                    proc = drive(w, seed, 1)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    res = result_of(proc)
                    # correct also means traced and untraced runs simulated
                    # bit-identical outputs.
                    self.check_result(res, PER_LAYER)
                    m = {k: v["value"] for k, v in res["metrics"].items()}
                    self.assertGreater(m["prof.overhead_ratio"], 0)
                    self.assertGreater(m["prof.coverage"], 0.5)
                    self.assertLessEqual(m["prof.coverage"], 1.0)
                    # The tail percentile leaves at least 10 mice beyond it.
                    n, p = m["stats.mice_samples"], m["stats.mice_fct_p99_pct"]
                    beyond = n - 1 - int(p / 100.0 * (n - 1))
                    self.assertGreaterEqual(beyond, 10)
                    self.assertLessEqual(p, 99)
                    if w == "fault_clove_int":
                        self.assertEqual(m["fault.events_applied"], 2)
                        self.assertEqual(m["fault.events_failed"], 0)
                        self.assertGreater(m["overlay.evictions"], 0)
                    else:
                        self.assertEqual(m["fault.events_applied"], 0)
                    if w == "fattree8_hybrid":
                        self.assertGreater(m["hybrid.promotions"], 0)
                        self.assertEqual(m["lb.flowlet_probe_avg"], 0)
                    else:
                        self.assertEqual(m["hybrid.promotions"], 0)

    def test_error_metrics_reject_a_mismatched_reference(self):
        with open(run.REFERENCE) as f:
            doc = json.load(f)
        # Same entries under keys of another size: nothing matches any more.
        doc["entries"] = {k.replace("jobs_per_conn=", "jobs_per_conn=9"): v
                          for k, v in doc["entries"].items()}
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as f:
            json.dump(doc, f)
        try:
            for seed in SEEDS:
                proc = drive("fattree8_hybrid", seed, 0, reference=f.name)
                self.assertEqual(proc.returncode, 3)
                self.assertIn("refusing to compute *_err metrics", proc.stderr)
                self.assertNotIn('"metrics"', proc.stdout)
        finally:
            os.unlink(f.name)

    def test_refuses_clove_environment(self):
        env = dict(os.environ, CLOVE_HYBRID="on")
        proc = drive("asym_clove_ecn", SEEDS[0], 0, env=env)
        self.assertEqual(proc.returncode, 2)
        self.assertIn("CLOVE_HYBRID", proc.stderr)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
