"""Per-layer tracing by wrapping public functions of the package's modules.

Each target is replaced at every module binding that holds the original
function (``from .kernel import compose`` makes several), so calls between
modules are seen too.  A timed wrapper keeps a stack of child time and
records calls and self time: its own duration minus the part covered by
traced calls it made.  Semiring arithmetic is called far too often to time
and is only counted; its cost stays in the self time of the caller.

Wrappers are installed once, after the untraced part of a run, and record
only while ``Tracer.on`` is true, so the checks between operations stay out
of the numbers.
"""

from __future__ import annotations

import sys
from time import perf_counter
from typing import Callable, Dict, List

# (module, function): the metric suffixes reported for it.
TIMED = {
    ("feasibility", "find_feasible"): ("calls", "self_s"),
    ("comparison", "garbling_system"): ("self_s",),
    ("comparison", "find_garbling"): ("self_s",),
    ("comparison", "find_garbling_as"): ("self_s",),
    ("blackwell", "standard_measure"): ("self_s",),
    ("blackwell", "dilation_system"): ("self_s",),
    ("blackwell", "find_dilation"): ("self_s",),
    ("blackwell", "bss_check"): ("self_s",),
    ("blackwell", "garbling_to_dilation"): ("self_s",),
    ("blackwell", "dilation_to_garbling"): ("self_s",),
    ("conditioning", "bayesian_inverse"): ("self_s",),
    ("conditioning", "conditional"): ("self_s",),
    ("conditioning", "sharp"): ("self_s",),
    ("conditioning", "ase"): ("self_s",),
    ("kernel", "compose"): ("calls", "self_s"),
    ("kernel", "tensor"): ("calls", "self_s"),
    ("findist", "product"): ("calls", "self_s"),
    ("findist", "product_set"): ("calls",),
    ("serialize", "load_experiment"): ("self_s",),
    ("serialize", "kernel_to_json"): ("self_s",),
    ("serialize", "bss_report_to_json"): ("self_s",),
    ("cli", "main"): ("self_s",),
}
COUNTED = ("check", "add", "mul")  # semiring methods, counted on every carrier
EXTRA = ("feasibility.find_feasible.infeasible", "feasibility.lp_vars",
         "feasibility.lp_rows", "feasibility.lp_nnz",
         "findist.product_set.distinct_ratio", "trace.overhead_pct")


def metric_units() -> Dict[str, str]:
    names = [f"{mod}.{fn}.{suffix}" for (mod, fn), suffixes in TIMED.items()
             for suffix in suffixes]
    names += [f"semiring.{meth}.calls" for meth in COUNTED]
    units = {"_s": "s", "_pct": "%", "_ratio": "ratio"}
    return {name: next((u for end, u in units.items() if name.endswith(end)), "count")
            for name in names + list(EXTRA)}


class Tracer:
    def __init__(self):
        self.on = False
        self.stats: Dict[str, List[float]] = {}   # name -> [calls, self seconds]
        self.counts: Dict[str, int] = {"infeasible": 0, "lp_vars": 0, "lp_rows": 0,
                                       "lp_nnz": 0}
        self.product_pairs = set()
        self._stack = [0.0]

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn: Callable, before=None, after=None) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args)
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += elapsed - child
                stack[-1] += elapsed
            if after is not None:
                after(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        stat = self.stats.setdefault(name, [0, 0.0])
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.on:
                stat[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _lp_shape(self, system, *_):
        self.counts["lp_vars"] += len(system.variables)
        self.counts["lp_rows"] += len(system.equalities)
        self.counts["lp_nnz"] += sum(len(coeffs) for coeffs, _ in system.equalities)

    def _lp_result(self, solution):
        if solution is None:
            self.counts["infeasible"] += 1

    def _product_pair(self, left, right, *_):
        self.product_pairs.add((left.labels, right.labels))

    def install(self, package: str = "semistoch") -> List[str]:
        """Wrap every target at every binding; return targets not found."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        hooks = {"find_feasible": (self._lp_shape, self._lp_result),
                 "product_set": (self._product_pair, None)}
        missing = []
        for (mod, fn_name) in TIMED:
            owner = sys.modules.get(f"{package}.{mod}")
            original = getattr(owner, fn_name, None)
            if original is None:
                missing.append(f"{mod}.{fn_name}")
                continue
            before, after = hooks.get(fn_name, (None, None))
            wrapped = self._timed(f"{mod}.{fn_name}", original, before, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
        semiring = sys.modules.get(f"{package}.semiring")
        carriers = [cls for cls in vars(semiring).values()
                    if isinstance(cls, type) and issubclass(cls, semiring.Semiring)]
        for meth in COUNTED:
            for cls in carriers:
                if meth in vars(cls):
                    setattr(cls, meth, self._counted(f"semiring.{meth}", vars(cls)[meth]))
        return missing

    # -- report -----------------------------------------------------------

    def metrics(self, overhead_pct: float) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for (mod, fn_name), suffixes in TIMED.items():
            calls, self_s = self.stats.get(f"{mod}.{fn_name}", (0, 0.0))
            for suffix in suffixes:
                out[f"{mod}.{fn_name}.{suffix}"] = calls if suffix == "calls" else self_s
        for meth in COUNTED:
            out[f"semiring.{meth}.calls"] = self.stats.get(f"semiring.{meth}", (0, 0.0))[0]
        out["feasibility.find_feasible.infeasible"] = self.counts["infeasible"]
        for key in ("lp_vars", "lp_rows", "lp_nnz"):
            out[f"feasibility.{key}"] = self.counts[key]
        calls = self.stats.get("findist.product_set", (0, 0.0))[0]
        out["findist.product_set.distinct_ratio"] = (len(self.product_pairs) / calls
                                                     if calls else 0.0)
        out["trace.overhead_pct"] = overhead_pct
        return out
