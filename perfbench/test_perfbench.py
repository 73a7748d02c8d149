#!/usr/bin/env python3
"""The benchmark's own test. Run from the repository root:

    python3 perfbench/test_perfbench.py

It builds the benchmark like run.py does, then checks that one seed always
yields the same statement stream (the stream hash in the run header), and
that every workload at a tiny size emits every metric BENCHMARK.json names,
with its unit, and passes its correctness check, untraced and traced.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

BINARY = None
SPEC = None
OUT = os.path.join(run.ROOT, "perfbench-out")
_RUNS = {}  # (workload, seed, trace) -> (completed process, its out dir)


def setUpModule():
    global BINARY, SPEC
    BINARY = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        SPEC = json.load(f)


def tearDownModule():
    for _, out in _RUNS.values():
        out.cleanup()


def tiny_run(workload, seed, trace):
    """Runs one workload at the tiny size, once per argument set."""
    key = (workload, seed, trace)
    if key not in _RUNS:
        os.makedirs(OUT, exist_ok=True)
        out = tempfile.TemporaryDirectory(dir=OUT)
        done = subprocess.run(
            [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "1",
             "--trace", str(trace), "--scale", "tiny", "--out-dir", out.name],
            capture_output=True, text=True, timeout=170)
        _RUNS[key] = (done, out)
    return _RUNS[key]


def stream_hash(workload, seed, trace):
    done, _ = tiny_run(workload, seed, trace)
    match = re.search(r"^# stream_hash: ([0-9a-f]{16})", done.stdout, re.M)
    assert match, done.stdout + done.stderr
    return match.group(1)


class StreamTest(unittest.TestCase):
    def test_seed_fixes_the_statement_stream(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                first = stream_hash(workload, 3, 0)
                self.assertEqual(first, stream_hash(workload, 3, 1))
                self.assertNotEqual(first, stream_hash(workload, 4, 0))


class TinyRunTest(unittest.TestCase):
    def check_run(self, workload, trace):
        done, out = tiny_run(workload, 3, trace)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        wanted = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            if not trace:  # end-to-end metrics are never 0
                self.assertGreater(got["value"], 0, m["name"])
        if trace:
            spans = [name for name in os.listdir(out.name)
                     if name.endswith(".spans.jsonl")]
            self.assertEqual(len(spans), 1, os.listdir(out.name))
            with open(os.path.join(out.name, spans[0])) as f:
                first = json.loads(f.readline())
            self.assertEqual(first["name"], "perfbench.statement")

    def test_every_workload_untraced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0)

    def test_every_workload_traced(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1)


if __name__ == "__main__":
    unittest.main()
