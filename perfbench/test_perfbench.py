#!/usr/bin/env python3
"""The benchmark's own checks: its output checks can fail, its modeled
metrics repeat exactly at one seed, and the traced run covers every layer.

    python3 perfbench/test_perfbench.py

Builds the benchmark binary the way run.py does, then runs every workload
at a small --seconds so the whole file takes about a minute.
"""
import json
import os
import re
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SECONDS = 0.5  # one cycle of each mix
EXACT = ["modeled_ms_per_item", "launches_per_item", "dram_mb_per_item",
         "ok_share"]
LAYERS = {"la", "kernels", "vgpu", "ml", "sysml", "serve"}


def digest(stderr):
    m = re.search(r"input digest ([0-9a-f]+)", stderr)
    return m.group(1) if m else None


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("perfbench did not build")

    def run_one(self, workload, seed, **kw):
        result, err = run.run_workload(self.binary, workload, seed, SECONDS,
                                       **kw)
        self.assertIsNotNone(result, err)
        self.assertEqual(run.validate(result, kw.get("trace", False)), [])
        return result, err

    def test_perturbed_output_drops_ok_share(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                clean, _ = self.run_one(w, 1, trace=False)
                bad, _ = self.run_one(w, 1, trace=False, perturb=1)
                self.assertTrue(clean["correct"])
                self.assertEqual(clean["metrics"]["ok_share"]["value"], 1.0)
                self.assertFalse(bad["correct"])
                self.assertEqual(bad["failed"], 1)
                self.assertLess(bad["metrics"]["ok_share"]["value"], 1.0)

    def test_modeled_metrics_repeat_exactly_and_seeds_differ(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a, a_err = self.run_one(w, 7, trace=False)
                b, b_err = self.run_one(w, 7, trace=False)
                c, c_err = self.run_one(w, 8, trace=False)
                for name in EXACT:
                    self.assertEqual(a["metrics"][name]["value"],
                                     b["metrics"][name]["value"], name)
                self.assertEqual(digest(a_err), digest(b_err))
                self.assertIsNotNone(digest(c_err))
                self.assertNotEqual(digest(a_err), digest(c_err))
                self.assertTrue(c["correct"])
                self.assertEqual(c["metrics"]["ok_share"]["value"], 1.0)

    def test_traced_run_covers_every_layer(self):
        seen = set()
        with tempfile.TemporaryDirectory(dir=run.build_dir()) as tmp:
            for w in run.WORKLOADS:
                path = os.path.join(tmp, f"{w}.json")
                result, _ = self.run_one(w, 1, trace=True, trace_out=path)
                self.assertTrue(result["correct"])
                with open(path) as f:
                    events = json.load(f)["traceEvents"]
                self.assertTrue(events)
                seen |= {e["cat"] for e in events}
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    self.assertGreaterEqual(e["dur"], 0)
        self.assertLessEqual(LAYERS, seen)


if __name__ == "__main__":
    unittest.main()
