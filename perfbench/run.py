"""semistoch benchmark: one closed-loop caller, one process, one thread.

    python3 perfbench/run.py --workload garble --seed 1 --seconds 25 --trace 0

Set-up imports the package from ``src/`` afresh and builds the workload's
pool from the seed, three times; ``setup_s`` is the median.  The run then
times one operation after another, in whole rounds of the workload's mix,
until the scaled timed work (below) reaches ``--seconds``, and checks each
answer exactly after its timer stops.

Times are scaled to a reference speed.  A shared 2-core virtual machine
was measured switching between speeds up to 1.9x apart, for a minute or
more at a time, which no statistic inside one run can remove.  So a fixed
standard-library loop is timed (best of three) before every round and after
the last.  Each latency in a round is multiplied by the mean, over the two
timings around that round, of ``REFERENCE_S`` over the loop's time; each
set-up by that ratio taken just before it.  On a quiet machine of the reference speed the factor is 1.
The raw figures are printed too.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` a quarter of the time runs
untraced, the rest runs traced from the start of the pool again, the JSON
object holds the per-layer metrics, and ``trace.overhead_pct`` compares
the scaled times of the operations both parts ran.  Lines before the JSON
object are for people.

The process runs under an address-space limit, so a memory blow-up is a
failed operation rather than a killed machine.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPS = 3
CALIBRATION_SHARE = 0.25
RAW_CAP = 1.4
# Best of three times of reference() on that 2-core machine at its fast
# speed, Python 3.11.
REFERENCE_S = 0.0095
MEMORY_LIMIT = 2 << 30

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def import_fresh():
    """Drop every loaded semistoch module and import the package from src/."""
    for name in [n for n in sys.modules if n == "semistoch" or n.startswith("semistoch.")]:
        del sys.modules[name]
    package = importlib.import_module("semistoch")
    importlib.import_module("semistoch.cli")
    if Path(package.__file__).resolve().parent != SRC / "semistoch":
        raise ImportError(f"semistoch imported from {package.__file__}, not from {SRC}")
    return package


def reference() -> None:
    """Fixed work like the library's: small exact fractions and dict updates."""
    acc = {}
    for i in range(1500):
        q = Fraction(i % 17, i % 13 + 1) * Fraction(3, i % 7 + 2) + Fraction(1, 4)
        acc[i % 97] = acc.get(i % 97, 0) + q


def speed() -> float:
    """REFERENCE_S over the best of three reference times: 1 at full speed."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        reference()
        best = min(best, perf_counter() - start)
    return REFERENCE_S / best


class Result:
    """Raw and scaled latencies and the verdicts of one closed-loop run."""

    def __init__(self):
        self.raw = []
        self.scaled = []
        self.failed = 0
        self.digest = hashlib.sha256()


def judge(op, outcome):
    if isinstance(outcome, Exception):
        ok = op.raises is not None and isinstance(outcome, op.raises)
        if not ok:
            traceback.print_exception(type(outcome), outcome, outcome.__traceback__,
                                      file=sys.stderr)
        return ok, type(outcome).__name__
    try:
        return op.check(outcome)
    except Exception:  # a malformed answer is a wrong answer
        traceback.print_exc(file=sys.stderr)
        return False, "unreadable"


def closed_loop(pool, seconds, max_ops=None, tracer=None) -> Result:
    """Run whole rounds until the scaled timed work reaches ``seconds``.

    The raw timed work is capped at ``RAW_CAP`` times ``seconds``, which
    bounds a run on a slow machine.

    With ``max_ops``, run exactly that many operations instead.
    """
    res = Result()
    factor = speed()
    for index in itertools.count():
        ops = pool[index % len(pool)]
        times = []
        for op in ops:
            if max_ops is not None and len(res.raw) + len(times) == max_ops:
                break
            if tracer is not None:
                tracer.on = True
            start = perf_counter()
            try:
                outcome = op.run()
            except Exception as exc:  # raising is a failure unless it is the answer
                outcome = exc
            elapsed = perf_counter() - start
            if tracer is not None:
                tracer.on = False
            times.append(elapsed)
            ok, text = judge(op, outcome)
            if not ok:
                res.failed += 1
                print(f"FAILED {op.kind} (operation {len(res.raw) + len(times) - 1})",
                      file=sys.stderr)
            res.digest.update(f"{op.kind}\t{text}\n".encode())
        after = speed()
        res.raw += times
        res.scaled += [t * (factor + after) / 2 for t in times]
        factor = after
        if len(times) < len(ops) or (max_ops is None and (
                sum(res.scaled) >= seconds or sum(res.raw) >= RAW_CAP * seconds)):
            return res


def tail(latencies):
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["garble", "bss", "algebra"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--max-ops", type=int, default=None,
                        help="run exactly this many operations instead of timing")
    args = parser.parse_args(argv)

    if not (SRC / "semistoch" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'semistoch'}", file=sys.stderr)
        return 2
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = MEMORY_LIMIT if hard == resource.RLIM_INFINITY else min(MEMORY_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    sys.path.insert(0, str(SRC))
    import workloads
    from layers import Tracer, metric_units

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            factor = speed()
            start = perf_counter()
            package = import_fresh()
            pool = workloads.BUILDERS[args.workload](package, args.seed, str(ROOT), workdir)
            setup_times.append((perf_counter() - start) * factor)

        runs = []
        tracer = None
        if args.trace:
            runs.append(closed_loop(pool, args.seconds * CALIBRATION_SHARE, args.max_ops))
            tracer = Tracer()
            for name in tracer.install():
                print(f"trace: {name} not found; reported as zero", file=sys.stderr)
            tracer.on = True
            workloads.probe(package, str(ROOT))
            tracer.on = False
        share = 1 - CALIBRATION_SHARE if args.trace else 1
        runs.append(closed_loop(pool, args.seconds * share, args.max_ops, tracer))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    res = runs[-1]
    attempted = sum(len(r.raw) for r in runs)
    failed = sum(r.failed for r in runs)
    lat = res.scaled
    tail_s, tail_pct = tail(lat)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"pool {sum(map(len, pool))} ops in {len(pool)} rounds")
    print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted} failed)")
    print(f"latency_tail_ms is p{tail_pct:.2f} of {len(lat)} samples")
    print(f"speed factor {sum(res.scaled) / sum(res.raw):.4f}; raw ops_per_s "
          f"{len(res.raw) / sum(res.raw):.6g}, latency_p50_ms "
          f"{1000 * statistics.median(res.raw):.6g}, latency_tail_ms "
          f"{1000 * tail(res.raw)[0]:.6g}")
    for i, r in enumerate(runs):
        print(f"digest[{i}] {r.digest.hexdigest()} over {len(r.raw)} ops")

    if args.trace:
        n = min(len(runs[0].scaled), len(res.scaled))
        overhead = 100.0 * (sum(res.scaled[:n]) / sum(runs[0].scaled[:n]) - 1)
        values = tracer.metrics(overhead)
        units = metric_units()
    else:
        values = {
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": 1000.0 * statistics.median(lat),
            "latency_tail_ms": 1000.0 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        units = END_TO_END_UNITS
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
