"""The benchmark's outputs are pinned: same seed, same witnesses, same digests.

Each benchmark run prints a SHA-256 digest over the canonical output of
every operation it ran (CLI stdout and exit code, witnesses, verifier
results) and counts the exact checks that failed.  A change to the solver's
arithmetic that keeps its pivots keeps these digests; one that moves a
pivot or a witness changes them.  The digests below were taken with

    python3 perfbench/run.py --workload W --seed 7 --seconds 5 --max-ops 120 --trace 0

and have not changed since the benchmark was defined.

With ``--trace 1`` the run goes through the pool twice, untraced and then
traced, so each digest is printed twice.  The traced run also reports the
shape of every LP it solved, read from ``system.variables`` and
``system.equalities``: the number of ``find_feasible`` calls, the
infeasible ones, and the total variables, rows and nonzero coefficients.
A builder that reorders or drops nothing keeps all five counts.

The traced ``algebra`` run also pins its ``tensor`` and ``compose`` calls
and its semiring multiplications.  A tensor builds a column only when a
composite first reads it, so a return to building every column of every
tensor up front multiplies more (85,231 instead of 17,330) and fails here.
The dilation maps build each experiment's posterior assignment once per
call (4 Bayesian inversions, not 6), and a standard measure composes the
posterior assignment with the outcome state rather than with f and then the
prior.  Building them again per use gives 1,080 composes, 493 tensors and
19,178 multiplications, and fails here too.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"

DIGESTS = {
    "garble": "b37dd875b62c6c07cb7e1af97ad4887585b2cffa1cf106fd8a975890c1ad3366",
    "bss": "56eda4bceddcc0f68c92ba9b239261f25c9d7e14ec45d1dc0ccefe27c55e3b92",
    "algebra": "162e867dc9558c8983c4381398b1a82112a8e943e13f7d6ad7225d977de63b8e",
}

LP_SHAPE = ("feasibility.find_feasible.calls", "feasibility.find_feasible.infeasible",
            "feasibility.lp_vars", "feasibility.lp_rows", "feasibility.lp_nnz")
TRACED_COUNTS = {
    "garble": dict(zip(LP_SHAPE, (122, 60, 2952, 2274, 7756))),
    "bss": dict(zip(LP_SHAPE, (115, 47, 2774, 2159, 7723))),
    "algebra": {**dict(zip(LP_SHAPE, (2, 0, 8, 14, 28))),
                "kernel.tensor.calls": 445, "kernel.compose.calls": 960,
                "semiring.mul.calls": 17330},
}


def run(workload: str, trace: int):
    """Digest lines and the closing JSON object of a 120-op run at seed 7."""
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7", "--seconds", "5",
         "--max-ops", "120", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, check=True).stdout
    digests = re.findall(r"^digest\[\d\] (\w+) over (\d+) ops$", out, re.M)
    return digests, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(DIGESTS))
def test_benchmark_digest_is_pinned(workload):
    digests, result = run(workload, trace=0)
    assert digests == [(DIGESTS[workload], "120")]
    assert result["attempted"] == 120
    assert result["failed"] == 0


@pytest.mark.parametrize("workload", sorted(TRACED_COUNTS))
def test_traced_run_keeps_digest_and_lp_shapes(workload):
    digests, result = run(workload, trace=1)
    assert digests == [(DIGESTS[workload], "120")] * 2
    assert result["attempted"] == 240
    assert result["failed"] == 0
    pinned = TRACED_COUNTS[workload]
    assert {name: result["metrics"][name]["value"] for name in pinned} == pinned
