"""Self-test of the benchmark at a tiny scale.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

It checks that every metric named in BENCHMARK.json is emitted with its unit,
that a corrupted reference digest, a flipped reference value or a perturbed
library output each count as failed items, and that the tracer reports a
vanished target as missing without failing the run.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import worker  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import ktaquin.coefficients  # noqa: E402
import ktaquin.jdt  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = worker.load_reference()


def _run(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = _run(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {name: doc["unit"] for name, doc in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for doc in result["metrics"].values():
                        self.assertEqual(set(doc), {"value", "unit"})
                        self.assertIsInstance(doc["value"], (int, float))
                    self.assertTrue(any(" error_rate " in line for line in lines))
                    self.assertTrue(any(line.startswith("provenance ") for line in lines))


class FailuresCounted(unittest.TestCase):
    WORKDIR = ROOT / ".bench_build" / "selftest"

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.WORKDIR, ignore_errors=True)

    def _pass(self, name: str, reference: dict, tracer=None) -> dict:
        return worker.run_pass(name, 5, reference, str(self.WORKDIR), tiny=True, tracer=tracer)

    def test_clean_pass(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                result = self._pass(name, REFERENCE)
                self.assertEqual(result["failed"], 0, result["failures"])
                self.assertGreater(result["items"], 0)

    def test_corrupted_digest_fails_every_item(self):
        reference = copy.deepcopy(REFERENCE)
        doc = reference["workloads"]["classical-sweep"]
        doc["digest"] = "0" * len(doc["digest"])
        result = self._pass("classical-sweep", reference)
        self.assertEqual(result["failed"], result["items"])
        self.assertIn("digest", result["failures"][0])

    def test_flipped_value_fails_its_item(self):
        first = WORKLOADS["slide-lab"]().draw(5, True)[0]
        reference = copy.deepcopy(REFERENCE)
        doc = reference["workloads"]["slide-lab"]
        doc["values"][first] = "flipped"
        doc["digest"] = worker.reference_digest(doc["values"])
        result = self._pass("slide-lab", reference)
        self.assertEqual(result["failed"], 1)
        self.assertIn(f"item {first}:", result["failures"][0])

    def test_perturbed_output_fails_its_check(self):
        original = ktaquin.coefficients.coeff_D_buch
        ktaquin.coefficients.coeff_D_buch = lambda lam, mu, nu: original(lam, mu, nu) + 1
        try:
            result = self._pass("ktheory-checks", REFERENCE)
        finally:
            ktaquin.coefficients.coeff_D_buch = original
        self.assertGreater(result["failed"], 0)
        self.assertIn("buch=", " ".join(result["failures"]))

    def test_vanished_target_is_missing_not_fatal(self):
        renamed = tuple(
            (layer, module, "rect_tally_gone" if attr == "rect_tally" else attr, how)
            for layer, module, attr, how in TARGETS
        )
        result = self._pass("classical-sweep", REFERENCE, tracer=Tracer(renamed))
        self.assertEqual(result["failed"], 0)
        self.assertIn("coefficients.tally_calls", result["missing"])
        self.assertIn("coefficients.memo_hit_ratio", result["missing"])
        self.assertNotIn("coefficients.tally_calls", result["layers"])
        # memos are warm in this process, so only counters every pass moves are asserted
        self.assertGreater(result["layers"]["coefficients.queries"]["value"], 0)
        self.assertGreater(result["layers"]["shapes.partition_calls"]["value"], 0)

    def test_tracer_restores_what_it_wrapped(self):
        krect = ktaquin.jdt.krect
        self._pass("classical-sweep", REFERENCE, tracer=Tracer())
        self.assertIs(ktaquin.coefficients.krect, krect)
        self.assertIs(ktaquin.jdt.krect, krect)


if __name__ == "__main__":
    unittest.main()
