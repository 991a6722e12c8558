"""The rational carrier checks, against plain reference versions.

``RationalSemiring.check`` reads the sign of a ``Fraction`` from its
numerator, ``RationalSemiring.sum`` adds in integers over the lcm of the
denominators, and ``FinDist`` reads the base's index directly.  The
reference functions below are the plain forms: ``Fraction`` comparison,
a ``Fraction`` fold and the ``FiniteSet.index`` method.  On every input the
library must accept what they accept, store what they store, and refuse
what they refuse with the same exception type.
"""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistoch import (PAIR_RATIONAL, RATIONAL, TRI_EPS, TRI_ONE, TRI_ZERO, TRILATTICE,
                       DistributionError, FinDist, FiniteSet, ShapeError)


class SubFraction(Fraction):
    pass


def reference_check(value):
    if isinstance(value, int) and not isinstance(value, bool):
        value = Fraction(value)
    if not isinstance(value, Fraction):
        raise ShapeError(f"expected a nonnegative rational, got {value!r}")
    if value < 0:
        raise ShapeError(f"negative weight {value} outside the carrier")
    return value


def reference_sum(values):
    total = Fraction(0)
    for value in values:
        total = total + value
    return total


def reference_carrier_check(semiring, value):
    """The carrier check with ``reference_check`` for every rational."""
    if semiring is RATIONAL:
        return reference_check(value)
    if semiring is PAIR_RATIONAL:
        if not (isinstance(value, tuple) and len(value) == 2):
            raise ShapeError(f"expected a pair value, got {value!r}")
        return (reference_check(value[0]), reference_check(value[1]))
    return semiring.check(value)


def reference_findist(semiring, base, weights):
    """The stored weights as (label, value, type) triples in stored order."""
    unknown = [l for l in weights if l not in base]
    if unknown:
        raise DistributionError(f"weight on labels outside the base: {unknown!r}")
    clean = {}
    for label in sorted(weights, key=base.index):
        value = reference_carrier_check(semiring, weights[label])
        if not semiring.eq(value, semiring.zero):
            clean[label] = value
    total = semiring.zero
    for value in clean.values():
        total = semiring.add(total, value)
    if not semiring.eq(total, semiring.one):
        raise DistributionError("weights must sum to one")
    return [(l, v, type(v)) for l, v in clean.items()]


def outcome(fn, *args):
    """What a call gives: ('ok', value) or ('raises', exception type)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return "raises", type(exc)


CHECK_VALUES = [
    True, False, 0, 1, 3, -1, 2 ** 70,
    Fraction(0), Fraction(1, 3), Fraction(-1, 3), Fraction(-2 ** 40, 7), Fraction(2 ** 40 + 1, 9),
    SubFraction(1, 2), SubFraction(-1, 2), SubFraction(0),
    0.5, 1.0, -0.5, float("nan"), "1/2", "1", Decimal("0.5"), Decimal("-1"),
    None, (Fraction(1), Fraction(0)), [Fraction(1)], 1j,
]


@pytest.mark.parametrize("value", CHECK_VALUES, ids=repr)
def test_check_accepts_and_refuses_as_the_reference(value):
    got, want = outcome(RATIONAL.check, value), outcome(reference_check, value)
    assert got[0] == want[0]
    if got[0] == "ok":
        assert type(got[1]) is type(want[1]) and got[1] == want[1]
    else:
        assert got[1] is want[1] is ShapeError


AB = FiniteSet(["a", "b"])
ABC = FiniteSet(["a", "b", "c"])
HALF, THIRD = Fraction(1, 2), Fraction(1, 3)

FINDIST_CASES = [
    ("halves", RATIONAL, AB, {"a": HALF, "b": HALF}),
    ("reversed keys", RATIONAL, ABC, {"c": THIRD, "a": THIRD, "b": THIRD}),
    ("ints", RATIONAL, AB, {"a": 1, "b": 0}),
    ("int one", RATIONAL, AB, {"b": 1}),
    ("zero weight dropped", RATIONAL, ABC, {"a": Fraction(0), "b": HALF, "c": HALF}),
    ("all zero", RATIONAL, AB, {"a": Fraction(0), "b": Fraction(0)}),
    ("empty", RATIONAL, AB, {}),
    ("bool one", RATIONAL, AB, {"a": True}),
    ("bool zero", RATIONAL, AB, {"a": False, "b": Fraction(1)}),
    ("negative", RATIONAL, AB, {"a": Fraction(3, 2), "b": Fraction(-1, 2)}),
    ("negative int", RATIONAL, AB, {"a": 2, "b": -1}),
    ("float", RATIONAL, AB, {"a": 0.5, "b": HALF}),
    ("float one", RATIONAL, AB, {"a": 1.0}),
    ("str", RATIONAL, AB, {"a": "1/2", "b": HALF}),
    ("decimal", RATIONAL, AB, {"a": Decimal("0.5"), "b": HALF}),
    ("subclass", RATIONAL, AB, {"a": SubFraction(1, 2), "b": HALF}),
    ("negative subclass", RATIONAL, AB, {"a": SubFraction(-1, 2), "b": Fraction(3, 2)}),
    ("outside the base", RATIONAL, AB, {"a": HALF, "z": HALF}),
    ("only outside", RATIONAL, AB, {"z": Fraction(1)}),
    ("sum below one", RATIONAL, AB, {"a": HALF}),
    ("sum above one", RATIONAL, AB, {"a": HALF, "b": Fraction(2, 3)}),
    ("near 2**40", RATIONAL, AB, {"a": Fraction(2 ** 40 - 1, 2 ** 40), "b": Fraction(1, 2 ** 40)}),
    ("near 2**40 off by one", RATIONAL, AB,
     {"a": Fraction(2 ** 40 - 1, 2 ** 40), "b": Fraction(1, 2 ** 40 + 1)}),
    ("tri", TRILATTICE, ABC, {"a": TRI_ONE, "b": TRI_EPS, "c": TRI_ZERO}),
    ("tri no one", TRILATTICE, AB, {"a": TRI_EPS}),
    ("tri bad value", TRILATTICE, AB, {"a": 1}),
    ("pair", PAIR_RATIONAL, AB, {"a": (HALF, Fraction(1)), "b": (HALF, Fraction(0))}),
    ("pair negative", PAIR_RATIONAL, AB,
     {"a": (Fraction(-1), Fraction(1)), "b": (Fraction(2), Fraction(0))}),
    ("pair float", PAIR_RATIONAL, AB, {"a": (1.0, Fraction(1))}),
    ("pair not a pair", PAIR_RATIONAL, AB, {"a": Fraction(1)}),
]


@pytest.mark.parametrize("semiring, base, weights", [case[1:] for case in FINDIST_CASES],
                         ids=[case[0] for case in FINDIST_CASES])
def test_findist_accepts_and_refuses_as_the_reference(semiring, base, weights):
    def build(sr, b, w):
        return [(l, v, type(v)) for l, v in FinDist(sr, b, w).items()]

    got = outcome(build, semiring, base, weights)
    want = outcome(reference_findist, semiring, base, weights)
    assert got == want


def test_the_table_covers_both_verdicts():
    outcomes = [outcome(reference_findist, *case[1:]) for case in FINDIST_CASES]
    assert {verdict for verdict, _ in outcomes} == {"ok", "raises"}
    assert {ShapeError, DistributionError} <= {got for verdict, got in outcomes
                                               if verdict == "raises"}


small = st.builds(Fraction, st.integers(0, 10 ** 6), st.integers(1, 9))
near_2_40 = st.builds(Fraction, st.integers(2 ** 40 - 64, 2 ** 40 + 64), st.integers(1, 9))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(st.one_of(small, near_2_40), max_size=12))
def test_sum_equals_a_fraction_fold(values):
    got = RATIONAL.sum(values)
    want = reference_sum(values)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert RATIONAL.sum(iter(values)) == want


def test_sum_of_nothing_is_zero():
    assert RATIONAL.sum([]) == Fraction(0)
    assert RATIONAL.sum(iter(())) == Fraction(0)
    assert type(RATIONAL.sum([])) is Fraction


def test_is_zero_reads_the_numerator():
    assert RATIONAL.is_zero(Fraction(0)) and RATIONAL.is_zero(Fraction(0, 7))
    assert not RATIONAL.is_zero(Fraction(1, 2 ** 40))
