#!/usr/bin/env python3
"""The benchmark's own test: smoke-sized runs of every workload.

    python3 perfbench/test_smoke.py        # from the root of a checkout

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload, untraced and traced; that a clean run passes its checks with
ok_share 1; that corrupted responses and models make the checks fire; and
that the benchmark refuses to run, printing no result, without the library
sources. Takes about a minute once the benchmark is built.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=900)


def result(out):
    if out.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s" % (out.returncode,
                                                       out.stderr[-3000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            cls.spec = json.load(spec)
        cls.workloads = [w["name"] for w in cls.spec["workloads"]]

    def smoke(self, workload, trace, *extra):
        return run("--workload", workload, "--seed", "3", "--seconds", "1",
                   "--trace", str(trace), "--smoke", *extra)

    def test_every_metric_printed_with_its_unit(self):
        for workload in self.workloads:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    out = self.smoke(workload, trace)
                    res = result(out)
                    self.assertEqual(
                        set(res), {"correct", "attempted", "failed",
                                   "metrics"})
                    self.assertTrue(res["correct"], out.stdout)
                    self.assertGreaterEqual(res["attempted"], 1)
                    self.assertEqual(res["failed"], 0)
                    names = {m["name"]: m["unit"] for m in self.spec[key]}
                    self.assertEqual(set(res["metrics"]), set(names))
                    for name, unit in names.items():
                        metric = res["metrics"][name]
                        self.assertEqual(metric["unit"], unit, name)
                        self.assertIsInstance(metric["value"], (int, float))
                        self.assertRegex(
                            out.stdout, r"(?m)^metric %s +\S+ %s" %
                            (re.escape(name), re.escape(unit)))
                    self.assertIn("stamp ", out.stdout)
                    if trace == 0:
                        self.assertEqual(
                            res["metrics"]["ok_share"]["value"], 1.0)

    def test_checks_fire_on_corrupted_outputs(self):
        for workload in self.workloads:
            with self.subTest(workload=workload):
                res = result(self.smoke(workload, 0, "--corrupt-every", "2"))
                self.assertFalse(res["correct"])
                self.assertGreater(res["failed"], 0)
                self.assertLess(res["metrics"]["ok_share"]["value"], 1.0)

    def test_refuses_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            out = run("--workload", self.workloads[0], "--seed", "1",
                      "--seconds", "1", "--trace", "0", root=bare)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn("{", out.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
