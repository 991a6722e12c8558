"""The benchmark's own test: the same seed gives byte-identical answers.

Each run prints a digest of every operation's canonical output (CLI stdout
and exit code, witnesses, verifier results).  Two processes, with different
hash seeds, must print the same digests, and tracing must not change them.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
OPS = {"garble": 40, "bss": 60, "algebra": 60}
SEED = 7


def run(workload: str, trace: int):
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--max-ops", str(OPS[workload])],
        capture_output=True, text=True, timeout=600, check=True).stdout
    digests = re.findall(r"^digest\[\d\] (\w+) over (\d+) ops$", out, re.M)
    return digests, json.loads(out.strip().splitlines()[-1])


class Determinism(unittest.TestCase):
    def test_two_runs_agree_byte_for_byte(self):
        for workload in OPS:
            with self.subTest(workload=workload):
                first, result = run(workload, 0)
                second, _ = run(workload, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(first, [(first[0][0], str(OPS[workload]))])
                self.assertEqual(first, second)

    def test_tracing_leaves_outputs_unchanged(self):
        for workload in OPS:
            with self.subTest(workload=workload):
                plain, _ = run(workload, 0)
                traced, result = run(workload, 1)
                self.assertTrue(result["correct"])
                self.assertEqual(traced, plain * 2)


if __name__ == "__main__":
    unittest.main()
