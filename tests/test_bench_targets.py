"""Every per-layer target the benchmark traces still exists in the package.

``perfbench/layers.py`` wraps the functions named in ``TIMED`` and counts
the semiring methods named in ``COUNTED``.  A target it cannot find is
only reported on stderr, and its metric then reads zero, so a rename
would silently empty a per-layer number.  These tests read the two
tables and look each target up, without installing the tracer (that
rewraps the live modules).
"""

import importlib
import sys
from pathlib import Path

import pytest

from semistoch.semiring import PairSemiring, RationalSemiring, TrilatticeSemiring

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from layers import COUNTED, TIMED  # noqa: E402


@pytest.mark.parametrize("module, function", sorted(TIMED),
                         ids=[f"{mod}.{fn}" for mod, fn in sorted(TIMED)])
def test_timed_target_resolves(module, function):
    owner = importlib.import_module(f"semistoch.{module}")
    assert callable(getattr(owner, function, None))


@pytest.mark.parametrize("carrier", [RationalSemiring, TrilatticeSemiring, PairSemiring],
                         ids=lambda cls: cls.__name__)
def test_carrier_defines_every_counted_method(carrier):
    # The tracer counts only methods in the class's own namespace.
    assert [meth for meth in COUNTED if meth not in vars(carrier)] == []
