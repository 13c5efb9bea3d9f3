#!/usr/bin/env python3
"""Self-tests of the benchmark harness (not of forge).

    python3 perfbench/selftest.py

Checks that a seed fixes the op list and emitted node count, that a wrong
oracle answer is reported and fails the command, that percentiles need ten
samples beyond them, that traced spans link to their parents, that
BENCHMARK.json lists exactly the metrics the harness prints, and that the
harness refuses to run without the forge sources.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from forge import acc  # noqa: E402
from spans import Tracer  # noqa: E402


def _keys(wl) -> list[str]:
    return [op.key for op in wl.ops]


class SeedTest(unittest.TestCase):
    def test_same_seed_same_ops_and_nodes(self):
        for name, build in workloads.WORKLOADS.items():
            a, b = build(7), build(7)
            self.assertEqual(_keys(a), _keys(b), name)
            self.assertEqual(a.emitted(), b.emitted(), name)
            if name != "frontend":         # a fixed set of programs
                self.assertNotEqual(_keys(a), _keys(build(8)), name)

    def test_blocks_have_the_same_mix(self):
        for name, build in workloads.WORKLOADS.items():
            wl = build(3)
            sizes = {len(block) for block in wl.blocks}
            self.assertEqual(len(sizes), 1, name)
            self.assertGreaterEqual(len(wl.ops), run.MIN_OPS, name)


class OracleTest(unittest.TestCase):
    def test_wrong_oracle_answer_is_a_mismatch(self):
        ops = workloads.witness(5).ops[:6]
        bad = workloads.Op(ops[0].key, ops[0].run,
                           lambda got, check=ops[0].check:
                           workloads.MISMATCH if check(got) == workloads.OK
                           else workloads.OK)
        _, _, results = run.run_ops([bad] + ops[1:])
        counts = run.score(results)
        self.assertEqual((counts["ok"], counts["mismatch"], counts["failed"]),
                         (5, 1, 0))

    def test_raising_op_is_counted_not_fatal(self):
        def boom():
            raise RecursionError("deep")
        ops = [workloads.Op("boom", boom, lambda got: workloads.OK)]
        ops += workloads.witness(5).ops[:2]
        _, _, results = run.run_ops(ops)
        counts = run.score(results)
        self.assertEqual((counts["ok"], counts["failed"]), (2, 1))

    def test_mismatch_fails_the_command(self):
        real = workloads.WORKLOADS["witness"]

        def injected(seed):
            wl = real(seed)
            first = wl.blocks[0][0]
            wl.blocks[0][0] = workloads.Op(first.key, first.run,
                                           lambda got: workloads.MISMATCH)
            return wl

        workloads.WORKLOADS["witness"] = injected
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "witness", "--seed", "1",
                                 "--seconds", "0"])
        finally:
            workloads.WORKLOADS["witness"] = real
        result = json.loads(out.getvalue().strip().splitlines()[-1])
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertIn("mismatch_count    1", out.getvalue())


class PercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(run.percentile([float(i) for i in range(99)], 0.9))
        self.assertEqual(run.percentile([float(i) for i in range(100)], 0.9), 89.0)
        self.assertIsNone(run.percentile([1.0] * 19, 0.5))
        self.assertEqual(run.percentile([float(i) for i in range(20)], 0.5), 9.0)


class TraceTest(unittest.TestCase):
    def test_spans_link_to_parents_and_unwrap(self):
        original = acc.check_witness
        ops = workloads.witness(2).ops[:4]
        tracer = Tracer([workloads])
        tracer.install()
        try:
            run.run_ops(ops, tracer)
        finally:
            tracer.uninstall()
        self.assertIs(acc.check_witness, original)
        self.assertIs(workloads.check_witness, original)
        names = {}
        for name, start, end, parent, op in tracer.spans:
            self.assertLessEqual(start, end)
            if name == "op":
                self.assertEqual(parent, -1)
            else:
                self.assertGreaterEqual(parent, 0)
                self.assertEqual(tracer.spans[parent][4], op)
                names.setdefault(name, set()).add(tracer.spans[parent][0])
        self.assertEqual(names["acc.check_witness"], {"op"})
        self.assertEqual(names["acc.acc_matrix"], {"acc.check_witness"})
        self.assertEqual(names["evaluate.eval_formula"], {"acc.check_witness"})


class ContractTest(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(workloads.WORKLOADS))

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".perfbench" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "certify",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
