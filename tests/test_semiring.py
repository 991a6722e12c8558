from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semistoch import (
    CapabilityError,
    PAIR_RATIONAL,
    RATIONAL,
    ShapeError,
    TRILATTICE,
    TRI_EPS,
    TRI_ONE,
    TRI_ZERO,
    Tri,
    semiring_by_name,
)

TRI_ALL = (TRI_ZERO, TRI_EPS, TRI_ONE)

nonneg_fractions = st.fractions(min_value=0, max_value=100)
pairs = st.tuples(nonneg_fractions, nonneg_fractions)
tri_values = st.sampled_from(TRI_ALL)


def test_registry_names():
    assert semiring_by_name("rational") is RATIONAL
    assert semiring_by_name("trilattice") is TRILATTICE
    assert semiring_by_name("pair-rational") is PAIR_RATIONAL
    with pytest.raises(CapabilityError):
        semiring_by_name("boolean")


def test_capability_flags():
    assert RATIONAL.is_entire and TRILATTICE.is_entire
    assert not PAIR_RATIONAL.is_entire
    assert RATIONAL.supports_conditionals
    assert TRILATTICE.supports_conditionals
    assert not PAIR_RATIONAL.supports_conditionals


CXY = ("x", "y", "z")


@pytest.mark.parametrize("semiring, weights, column", [
    (RATIONAL, {"x": Fraction(1, 6), "z": Fraction(1, 3)},
     {"x": Fraction(1, 3), "z": Fraction(2, 3)}),
    (RATIONAL, {}, dict.fromkeys(CXY, Fraction(1, 3))),
    (RATIONAL, {"y": Fraction(0)}, dict.fromkeys(CXY, Fraction(1, 3))),
    (TRILATTICE, {"x": TRI_EPS, "y": TRI_EPS}, {"x": TRI_ONE, "y": TRI_ONE}),
    (TRILATTICE, {"x": TRI_EPS, "y": TRI_ONE}, {"x": TRI_EPS, "y": TRI_ONE}),
    (TRILATTICE, {}, {"x": TRI_ONE}),
    (TRILATTICE, {"y": TRI_ZERO}, {"x": TRI_ONE}),
], ids=["rational-divides", "rational-empty-is-uniform", "rational-zero-is-uniform",
        "trilattice-equal-saturates", "trilattice-below-passes", "trilattice-empty-is-first",
        "trilattice-zero-is-first"])
def test_condition_is_the_carriers_rule(semiring, weights, column):
    assert semiring.condition(weights, CXY) == column


def test_pair_carrier_has_no_conditioning_rule():
    with pytest.raises(CapabilityError, match="^pair-rational does not support conditionals$"):
        PAIR_RATIONAL.condition({"x": (Fraction(1), Fraction(1))}, CXY)


def test_rational_ops_are_exact():
    a = Fraction(1, 3)
    b = Fraction(1, 6)
    assert RATIONAL.add(a, b) == Fraction(1, 2)
    assert RATIONAL.mul(a, b) == Fraction(1, 18)
    assert RATIONAL.sum([a, a, a]) == 1
    assert RATIONAL.try_div(Fraction(1, 2), Fraction(3, 4)) == Fraction(2, 3)
    assert RATIONAL.try_div(Fraction(28, 100), Fraction(83, 100)) == Fraction(28, 83)
    # field-division semantics: nothing divides by zero
    assert RATIONAL.try_div(Fraction(1, 2), Fraction(0)) is None
    assert RATIONAL.try_div(Fraction(0), Fraction(0)) is None


def test_rational_carrier_rejects_negatives():
    with pytest.raises(ShapeError):
        RATIONAL.check(Fraction(-1, 2))
    with pytest.raises(ShapeError):
        RATIONAL.parse("-1/2")


@pytest.mark.parametrize("semiring, value", [
    (RATIONAL, True),
    (RATIONAL, False),
    (PAIR_RATIONAL, (True, Fraction(0))),
    (PAIR_RATIONAL, (Fraction(1), False)),
], ids=["rational-true", "rational-false", "pair-true", "pair-false"])
def test_rational_carriers_reject_bool(semiring, value):
    # bool is an int subclass, but True is not the rational 1
    with pytest.raises(ShapeError):
        semiring.check(value)


def test_rational_parse_format_round_trip():
    for text in ["0", "1", "3/4", "7/5"]:
        assert RATIONAL.format(RATIONAL.parse(text)) == text
    assert RATIONAL.parse("0.25") == Fraction(1, 4)


def test_trilattice_tables():
    # add is max, mul is min in the order 0 < eps < 1
    add = {(a, b): TRILATTICE.add(a, b) for a in TRI_ALL for b in TRI_ALL}
    mul = {(a, b): TRILATTICE.mul(a, b) for a in TRI_ALL for b in TRI_ALL}
    assert add[(TRI_ONE, TRI_EPS)] == TRI_ONE
    assert add[(TRI_EPS, TRI_EPS)] == TRI_EPS
    assert add[(TRI_ZERO, TRI_EPS)] == TRI_EPS
    assert mul[(TRI_ONE, TRI_EPS)] == TRI_EPS
    assert mul[(TRI_EPS, TRI_EPS)] == TRI_EPS
    assert mul[(TRI_ZERO, TRI_EPS)] == TRI_ZERO
    for a in TRI_ALL:
        for b in TRI_ALL:
            assert add[(a, b)] == max(a, b)
            assert mul[(a, b)] == min(a, b)


def test_trilattice_try_div_is_least_solution():
    for a in TRI_ALL:
        for b in TRI_ALL:
            solutions = [q for q in TRI_ALL if TRILATTICE.mul(q, b) == a]
            expect = min(solutions) if solutions else None
            assert TRILATTICE.try_div(a, b) == expect
    # the two cases the conditional logic leans on
    assert TRILATTICE.try_div(TRI_EPS, TRI_EPS) == TRI_EPS
    assert TRILATTICE.try_div(TRI_ONE, TRI_EPS) is None


def test_trilattice_parse_format():
    assert TRILATTICE.parse("eps") == TRI_EPS
    assert TRILATTICE.parse("0") == TRI_ZERO
    assert TRILATTICE.format(TRI_ONE) == "1"
    with pytest.raises(ShapeError):
        TRILATTICE.parse("1/2")


def test_tri_ordering():
    assert TRI_ZERO < TRI_EPS < TRI_ONE
    assert sorted([TRI_ONE, TRI_ZERO, TRI_EPS]) == [TRI_ZERO, TRI_EPS, TRI_ONE]
    with pytest.raises(ShapeError):
        Tri(3)


def test_trilattice_laws_exhaustive():
    sr = TRILATTICE
    for a, b, c in iproduct(TRI_ALL, repeat=3):
        assert sr.add(a, b) == sr.add(b, a)
        assert sr.mul(a, b) == sr.mul(b, a)
        assert sr.add(sr.add(a, b), c) == sr.add(a, sr.add(b, c))
        assert sr.mul(sr.mul(a, b), c) == sr.mul(a, sr.mul(b, c))
        assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))
    for a in TRI_ALL:
        assert sr.add(a, sr.zero) == a
        assert sr.mul(a, sr.one) == a
        assert sr.mul(a, sr.zero) == sr.zero
        # idempotent addition
        assert sr.add(a, a) == a


def test_trilattice_is_entire_exhaustive():
    for a in TRI_ALL:
        for b in TRI_ALL:
            if not TRILATTICE.is_zero(a) and not TRILATTICE.is_zero(b):
                assert not TRILATTICE.is_zero(TRILATTICE.mul(a, b))


def test_pair_ops_componentwise():
    sr = PAIR_RATIONAL
    a = (Fraction(1, 2), Fraction(3))
    b = (Fraction(1, 2), Fraction(1, 3))
    assert sr.add(a, b) == (Fraction(1), Fraction(10, 3))
    assert sr.mul(a, b) == (Fraction(1, 4), Fraction(1))
    assert sr.zero == (0, 0) and sr.one == (1, 1)


def test_pair_has_zero_divisors():
    sr = PAIR_RATIONAL
    a = (Fraction(0), Fraction(1))
    b = (Fraction(1), Fraction(0))
    assert not sr.is_zero(a) and not sr.is_zero(b)
    assert sr.is_zero(sr.mul(a, b))


def test_pair_try_div():
    sr = PAIR_RATIONAL
    half = Fraction(1, 2)
    assert sr.try_div((half, half), (Fraction(1), Fraction(1))) == (half, half)
    # unconstrained component resolves to the least witness, zero
    assert sr.try_div((Fraction(0), half), (Fraction(0), Fraction(1))) == (Fraction(0), half)
    assert sr.try_div((half, half), (Fraction(0), Fraction(1))) is None


def test_pair_parse_format_round_trip():
    for text in ["(0,0)", "(1,1)", "(1/2,3/4)"]:
        assert PAIR_RATIONAL.format(PAIR_RATIONAL.parse(text)) == text
    with pytest.raises(ShapeError):
        PAIR_RATIONAL.parse("1/2")


@given(nonneg_fractions, nonneg_fractions, nonneg_fractions)
def test_rational_laws(a, b, c):
    sr = RATIONAL
    assert sr.add(a, b) == sr.add(b, a)
    assert sr.mul(a, b) == sr.mul(b, a)
    assert sr.add(sr.add(a, b), c) == sr.add(a, sr.add(b, c))
    assert sr.mul(sr.mul(a, b), c) == sr.mul(a, sr.mul(b, c))
    assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))
    assert sr.add(a, sr.zero) == a
    assert sr.mul(a, sr.one) == a
    assert sr.mul(a, sr.zero) == sr.zero


@given(nonneg_fractions, nonneg_fractions)
def test_rational_entire(a, b):
    if not RATIONAL.is_zero(a) and not RATIONAL.is_zero(b):
        assert not RATIONAL.is_zero(RATIONAL.mul(a, b))


@given(nonneg_fractions, nonneg_fractions)
def test_rational_try_div_is_exact_quotient(a, b):
    q = RATIONAL.try_div(a, b)
    if q is not None:
        assert RATIONAL.mul(q, b) == a
    else:
        assert b == 0


@given(pairs, pairs, pairs)
def test_pair_laws(a, b, c):
    sr = PAIR_RATIONAL
    assert sr.add(a, b) == sr.add(b, a)
    assert sr.mul(sr.mul(a, b), c) == sr.mul(a, sr.mul(b, c))
    assert sr.mul(a, sr.add(b, c)) == sr.add(sr.mul(a, b), sr.mul(a, c))
    assert sr.add(a, sr.zero) == a
    assert sr.mul(a, sr.one) == a


@given(pairs, pairs)
def test_pair_try_div_is_least_witness(a, b):
    q = PAIR_RATIONAL.try_div(a, b)
    if q is not None:
        assert PAIR_RATIONAL.mul(q, b) == a
        # least in each coordinate among witnesses
        for i in (0, 1):
            if b[i] == 0:
                assert q[i] == 0


@given(tri_values, tri_values)
def test_tri_add_mul_consistent_with_order(a, b):
    assert TRILATTICE.add(a, b) == max(a, b)
    assert TRILATTICE.mul(a, b) == min(a, b)


carrier_operands = st.one_of(
    st.tuples(st.just(RATIONAL), nonneg_fractions, nonneg_fractions),
    st.tuples(st.just(TRILATTICE), tri_values, tri_values),
    st.tuples(st.just(PAIR_RATIONAL), pairs, pairs),
)


@given(carrier_operands)
def test_carriers_closed_under_their_operations(case):
    # closure is what lets add/mul/try_div skip the carrier check
    sr, a, b = case
    results = [sr.add(a, b), sr.mul(a, b)]
    q = sr.try_div(a, b)
    if q is not None:
        results.append(q)
    for x in results:
        assert sr.check(x) == x
