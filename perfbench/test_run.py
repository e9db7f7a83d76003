"""Tests of the benchmark itself.

Run from the root of a checkout: ``python3 -m unittest discover -s perfbench``.
"""

import hashlib
import json
import random
import sys
import unittest

import run
from tracer import layer_metrics

sys.path.insert(0, str(run.SRC))

import session  # noqa: E402  (needs polybern on the path)


class DigestGate(unittest.TestCase):
    LINE = "verify trivariate --order 10"

    def test_recorded_digest_passes(self):
        digests = json.loads(run.DIGESTS.read_text())
        result = run.run_cli_pass([self.LINE], digests)
        self.assertEqual((len(result.op_s), result.failed), (1, 0))

    def test_wrong_digest_makes_failed_frac_nonzero(self):
        result = run.run_cli_pass([self.LINE], {self.LINE: hashlib.sha256(b"wrong").hexdigest()})
        self.assertEqual((len(result.op_s), result.failed), (1, 1))

    def test_unrecorded_command_line_fails(self):
        result = run.run_cli_pass([self.LINE + " --format json"], {})
        self.assertEqual(result.failed, 1)

    def test_every_command_line_has_a_digest(self):
        digests = json.loads(run.DIGESTS.read_text())
        self.assertEqual(sorted(digests), sorted(run.every_command_line()))
        for seed in range(20):
            for line in run.series_stress_commands(random.Random(seed)):
                self.assertIn(line, digests)


class Tracer(unittest.TestCase):
    def test_traced_cli_sees_rebound_and_internal_calls(self):
        line = "verify beta1-funceq --order 8"
        child = run.spawn([sys.executable, str(run.HERE / "traced_cli.py"), *line.split()])
        self.assertEqual(child["exit"], 0, child["stderr"])
        report = json.loads(child["stdout"])
        plain = run.spawn([sys.executable, "-m", "polybern.cli", *line.split()])
        self.assertEqual(report["sha256"], hashlib.sha256(plain["stdout"]).hexdigest())

        traced = layer_metrics(report["trace"], report["bytes_out"])
        metrics = {name: value for name, (value, _) in traced.items()}
        stats = report["trace"]["stats"]
        # identities reaches bernoulli through its own imported binding.
        self.assertEqual(stats["polybernoulli.bernoulli"][0], 8)
        # mobius_substitution -> compose -> __mul__ stay visible inside the class.
        self.assertEqual(metrics["series.s1_mobius.calls"], 1)
        self.assertEqual(metrics["series.s1_compose.calls"], 1)
        self.assertEqual(metrics["series.s1_mul.calls"], 8)
        # The verifier is reached through the registry's entry.
        self.assertEqual(metrics["identities.checks"], 9)
        self.assertEqual(metrics["cli.invocations"], 1)
        self.assertEqual(metrics["cli.bytes_out"], len(plain["stdout"]))


class SessionChecks(unittest.TestCase):
    def test_checker_accepts_right_and_rejects_wrong_answers(self):
        queries = session.generate(7, 120)
        checker = session.Checker(queries)
        seen = set()
        for query in queries:
            values = session.answer(query)
            self.assertTrue(checker.ok(query, values), query)
            if query[0] not in seen:
                seen.add(query[0])
                wrong = list(values)
                wrong[-1] += 1
                self.assertFalse(checker.ok(query, wrong), query)
        self.assertEqual(seen, set(session.KINDS))

    def test_same_seed_same_stream(self):
        self.assertEqual(session.generate(3, 50), session.generate(3, 50))
        self.assertNotEqual(session.generate(3, 50), session.generate(4, 50))


if __name__ == "__main__":
    unittest.main()
