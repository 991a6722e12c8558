import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semistoch import LinearSystem, ShapeError, feasibility, find_feasible, verify

import corpus
import dense_simplex
import lp_oracle


def test_single_equality_feasible():
    sys_ = LinearSystem(["x", "y"])
    sys_.add_equality({"x": 1, "y": 1}, 1)
    sol = find_feasible(sys_)
    assert sol is not None
    assert verify(sys_, sol)


def test_contradictory_equalities_infeasible():
    sys_ = LinearSystem(["x"])
    sys_.add_equality({"x": 1}, 1)
    sys_.add_equality({"x": 1}, 2)
    assert find_feasible(sys_) is None


def test_negative_rhs_needs_negative_value():
    sys_ = LinearSystem(["x"])
    sys_.add_equality({"x": 1}, -1)
    assert find_feasible(sys_) is None


def test_zero_row_with_nonzero_rhs_infeasible():
    sys_ = LinearSystem(["x"])
    sys_.add_equality({}, 1)
    assert find_feasible(sys_) is None


def test_empty_system_is_feasible():
    sys_ = LinearSystem(["x", "y"])
    sol = find_feasible(sys_)
    assert sol == {"x": 0, "y": 0}


def test_redundant_rows_are_harmless():
    sys_ = LinearSystem(["x", "y"])
    sys_.add_equality({"x": 1, "y": 1}, 1)
    sys_.add_equality({"x": 2, "y": 2}, 2)
    sol = find_feasible(sys_)
    assert sol is not None and verify(sys_, sol)


def test_unknown_variable_rejected():
    sys_ = LinearSystem(["x"])
    with pytest.raises(ShapeError):
        sys_.add_equality({"z": 1}, 0)
    with pytest.raises(ShapeError):
        LinearSystem(["x", "x"])


@pytest.mark.parametrize("coeffs, rhs", [
    ({"x": 0.1}, Fraction(1, 10)),
    ({"x": 1}, 0.1),
    ({"x": 0.0}, 0),
    ({"x": "1/2"}, 1),
    ({"x": 1}, Decimal(1)),
    ({"x": True}, 1),
    ({"x": 1}, True),
    ({"x": False}, 0),
], ids=["float-coefficient", "float-rhs", "float-zero", "string", "decimal-rhs",
        "bool-coefficient", "bool-rhs", "bool-zero"])
def test_add_equality_rejects_inexact_values(coeffs, rhs):
    sys_ = LinearSystem(["x"])
    with pytest.raises(ShapeError):
        sys_.add_equality(coeffs, rhs)
    assert sys_.equalities == []


def test_add_equality_keeps_negative_exact_values():
    sys_ = LinearSystem(["x", "y"])
    sys_.add_equality({"x": -1, "y": Fraction(-1, 2)}, Fraction(-3, 4))
    assert sys_.equalities == [({"x": Fraction(-1), "y": Fraction(-1, 2)}, Fraction(-3, 4))]


def test_verify_is_exact():
    sys_ = LinearSystem(["x", "y"])
    sys_.add_equality({"x": Fraction(1, 3), "y": Fraction(2, 3)}, Fraction(1, 2))
    good = {"x": Fraction(1, 2), "y": Fraction(1, 2)}
    assert verify(sys_, good)
    perturbed = {"x": good["x"] + Fraction(1, 1000), "y": good["y"]}
    assert not verify(sys_, perturbed)
    negative = {"x": Fraction(3, 2), "y": Fraction(-1, 2)}
    assert not verify(sys_, negative)
    with pytest.raises(ShapeError):
        verify(sys_, {"x": Fraction(1, 2)})
    with pytest.raises(ShapeError):
        verify(sys_, {"x": Fraction(1, 2), "y": Fraction(1, 2), "z": Fraction(0)})


@pytest.mark.parametrize("names, dup", [
    (["x", "x"], "x"),
    (["a", "b", "b", "a"], "b"),
    (["a", "b", "c", "a"], "a"),
])
def test_duplicate_variable_is_named(names, dup):
    with pytest.raises(ShapeError, match=re.escape(f"duplicate variable {dup!r}")):
        LinearSystem(names)


@pytest.mark.parametrize("assignment", [
    {"x": 0.5, "y": 0.5},
    {"x": 1.0, "y": 0},
    {"x": "1/2", "y": "1/2"},
    {"x": True, "y": 0},
    {"x": 1, "y": False},
    {"x": Decimal("0.5"), "y": Decimal("0.5")},
], ids=["float", "float-integral", "string", "bool-true", "bool-false", "decimal"])
def test_verify_rejects_inexact_values(assignment):
    # each assignment meets x + y = 1 once read as a number
    sys_ = LinearSystem(["x", "y"])
    sys_.add_equality({"x": 1, "y": 1}, 1)
    with pytest.raises(ShapeError):
        verify(sys_, assignment)


def fraction_sum_verify(system, assignment):
    """The check verify made with Fraction sums, kept as the reference for the integer one."""
    values = {}
    for name in system.variables:
        values[name] = Fraction(assignment[name])
    if any(v < 0 for v in values.values()):
        return False
    for coeffs, rhs in system.equalities:
        total = sum((c * values[name] for name, c in coeffs.items()), Fraction(0))
        if total != rhs:
            return False
    return True


# Small denominators, and denominators within 2**12 of 2**40 as in the
# mixed-denominator systems of the differential test.
DENOMINATORS = st.one_of(st.sampled_from([1, 2, 3, 5, 7, 9]),
                         st.integers(2**40 - 2**12, 2**40 + 2**12))


@st.composite
def rationals(draw, low=-9):
    return Fraction(draw(st.integers(low, 9)), draw(DENOMINATORS))


@st.composite
def planted_systems(draw):
    """A system of 0-4 variables and 0-4 rows, and a nonnegative point.

    Rows may be empty.  About half the rows take their rhs from the point,
    the rest an arbitrary rational, so the point meets some systems and not
    others.
    """
    names = [f"v{j}" for j in range(draw(st.integers(0, 4)))]
    point = {name: draw(rationals(low=0)) for name in names}
    system = LinearSystem(names)
    for _ in range(draw(st.integers(0, 4))):
        coeffs = {name: draw(rationals()) for name in names if draw(st.booleans())}
        if draw(st.booleans()):
            rhs = sum((c * point[name] for name, c in coeffs.items()), Fraction(0))
        else:
            rhs = draw(rationals())
        system.add_equality(coeffs, rhs)
    return system, point


@settings(derandomize=True, deadline=None, max_examples=300)
@given(planted_systems(), rationals())
def test_verify_agrees_with_fraction_sums(case, delta):
    system, point = case
    assignments = [point]
    solution = find_feasible(system)
    if solution is not None:
        assignments.append(solution)
    for base in list(assignments):
        assignments += [{**base, name: base[name] + delta} for name in system.variables]
    for assignment in assignments:
        assert verify(system, assignment) == fraction_sum_verify(system, assignment)


def test_find_feasible_is_deterministic():
    sys_ = LinearSystem(["a", "b", "c"])
    sys_.add_equality({"a": 1, "b": 2, "c": 3}, 2)
    sys_.add_equality({"a": 1, "b": 1, "c": 1}, 1)
    first = find_feasible(sys_)
    second = find_feasible(sys_)
    assert first == second
    assert verify(sys_, first)


def test_fractional_witness_exactness():
    sys_ = LinearSystem(["x", "y"])
    sys_.add_equality({"x": Fraction(3), "y": Fraction(1)}, Fraction(1))
    sys_.add_equality({"x": Fraction(1), "y": Fraction(1)}, Fraction(1, 2))
    sol = find_feasible(sys_)
    assert sol == {"x": Fraction(1, 4), "y": Fraction(1, 4)}


def random_system(r, nvars, nrows):
    names = [f"v{i}" for i in range(nvars)]
    sys_ = LinearSystem(names)
    for _ in range(nrows):
        coeffs = {
            n: Fraction(r.randint(-3, 3))
            for n in names
            if r.random() < 0.8
        }
        if r.random() < 0.5:
            # rhs from a planted nonnegative solution, so feasible cases appear
            planted = {n: Fraction(r.randint(0, 3)) for n in names}
            rhs = sum(coeffs.get(n, Fraction(0)) * planted[n] for n in names)
        else:
            rhs = Fraction(r.randint(-4, 4))
        sys_.add_equality(coeffs, rhs)
    return sys_


def test_agrees_with_brute_force_on_random_systems():
    for i in range(120):
        r = corpus.rng(f"lp/{i}")
        sys_ = random_system(r, r.randint(1, 6), r.randint(1, 5))
        sol = find_feasible(sys_)
        expect = lp_oracle.brute_force_feasible(sys_)
        assert (sol is not None) == expect
        if sol is not None:
            assert verify(sys_, sol)


def test_rod_garbling_system_feasible(rod_f, rod_g):
    from semistoch import garbling_system

    sys_ = garbling_system(rod_f, rod_g, list(rod_f.dom.labels))
    sol = find_feasible(sys_)
    assert sol is not None
    assert verify(sys_, sol)
    # the hand-written post-processing is also a witness
    witness = {
        "c['pass'|'pass']": Fraction(3, 4),
        "c['fail'|'pass']": Fraction(1, 4),
        "c['pass'|'fail']": Fraction(0),
        "c['fail'|'fail']": Fraction(1),
    }
    assert verify(sys_, witness)


# -- presolve: zero-rhs rows of one sign fix their variables to 0 ---------------

def system_of(names, rows):
    sys_ = LinearSystem(names)
    for coeffs, rhs in rows:
        sys_.add_equality({name: Fraction(c) for name, c in coeffs.items()}, Fraction(rhs))
    return sys_


def forced_are_zero_everywhere(sys_, forced) -> bool:
    """No nonnegative solution gives a forced variable a positive value.

    Scaling shows that v > 0 is possible iff v = t is, for some t > 0, so it
    is enough that the system with v = 1 added is infeasible, by brute force.
    """
    for name in forced:
        pinned = system_of(sys_.variables, [*sys_.equalities, ({name: 1}, 1)])
        if lp_oracle.brute_force_feasible(pinned):
            return False
    return True


def check_presolve(sys_, forced):
    """forced is what the presolve fixes; the solve agrees with both oracles.

    The dense tableau with its own presolve must give the identical
    solution, and without it the same verdict.
    """
    assert feasibility._forced_zero(sys_.equalities) == set(forced)
    assert dense_simplex.forced_zero(sys_) == set(forced)
    assert forced_are_zero_everywhere(sys_, forced)
    sol = find_feasible(sys_)
    assert (sol is not None) == lp_oracle.brute_force_feasible(sys_)
    assert sol == dense_simplex.find_feasible(sys_)
    assert (sol is not None) == (dense_simplex.find_feasible(sys_, presolve=False) is not None)
    if sol is not None:
        assert verify(sys_, sol)
        assert all(sol[name] == 0 and type(sol[name]) is Fraction for name in forced)
    return sol


@pytest.mark.parametrize("rows, forced, feasible", [
    ([({"x": 1, "y": 2}, 0), ({"x": 1, "y": 1, "z": 1}, 1)], "xy", True),
    ([({"x": -1, "y": -3}, 0), ({"x": 1, "y": 1, "z": 2}, 2)], "xy", True),
    ([({"x": Fraction(1, 3)}, 0), ({"x": 1, "y": -1}, -1)], "x", True),
    ([({"x": 1, "y": 1}, 0), ({"x": 2, "z": 1}, -1)], "xy", False),
], ids=["positive", "negative", "fractional", "infeasible-after-fixing"])
def test_presolve_fixes_one_sign_zero_rows(rows, forced, feasible):
    sol = check_presolve(system_of(["x", "y", "z"], rows), forced)
    assert (sol is not None) == feasible


def test_presolve_repeats_until_a_chain_is_fixed():
    # Each mixed row becomes one-signed only once the row after it has fixed
    # its negative variable, so the presolve needs a pass per link.
    names = ["a", "b", "c", "d", "e"]
    rows = [({"a": 1, "b": -1}, 0), ({"b": 2, "c": -1}, 0), ({"c": 1, "d": -3}, 0),
            ({"d": 1}, 0), ({"a": 1, "e": 1}, 1)]
    sol = check_presolve(system_of(names, rows), "abcd")
    assert sol == {"a": 0, "b": 0, "c": 0, "d": 0, "e": 1}


def test_presolve_leaves_mixed_zero_rows_alone():
    rows = [({"x": 1, "y": -1}, 0), ({"y": 2, "z": -1}, 0), ({"x": 1, "z": 1}, 3)]
    sol = check_presolve(system_of(["x", "y", "z"], rows), "")
    assert sol == {"x": 1, "y": 1, "z": 2}


@pytest.mark.parametrize("rows", [
    [({"x": 1, "y": 1}, 0), ({"x": 3, "y": 1}, 2)],
    [({"x": -2}, 0), ({"y": 1, "z": -1}, 0), ({"z": 1}, 0), ({"x": 1, "y": 1}, -1)],
    [({}, 5)],
], ids=["one-row", "after-a-chain", "empty-from-the-start"])
def test_emptied_row_with_nonzero_rhs_is_infeasible_without_a_pivot(rows, monkeypatch):
    sys_ = system_of(["x", "y", "z"], rows)

    def no_pivot(*args):
        raise AssertionError("the presolve should refuse before any pivot")

    monkeypatch.setattr(feasibility, "_combine", no_pivot)
    assert find_feasible(sys_) is None
    assert not lp_oracle.brute_force_feasible(sys_)
    assert dense_simplex.find_feasible(sys_) is None
    assert dense_simplex.find_feasible(sys_, presolve=False) is None


def presolve_system(r):
    """A small system with planted zeros that the presolve must find.

    A random subset of the variables is 0 in the planted point.  Its first
    member gets a one-sign zero row and each later one a mixed zero row with
    the member before it, listed in reverse so fixing them takes several
    passes.  Mixed zero rows across the other variables fix nothing; the
    remaining rows take the planted rhs or, now and then, an arbitrary one.
    """
    names = [f"v{i}" for i in range(r.randint(2, 6))]
    zero = r.sample(names, r.randint(0, len(names) - 1))
    planted = {n: Fraction(0) if n in zero else Fraction(r.randint(1, 3)) for n in names}
    rows = []
    if zero:
        sign = r.choice([-1, 1])
        rows.append(({zero[0]: sign * r.randint(1, 3)}, 0))
        for prev, cur in zip(zero, zero[1:]):
            sign = r.choice([-1, 1])
            rows.append(({cur: sign * r.randint(1, 3), prev: -sign * r.randint(1, 3)}, 0))
        rows.reverse()
    free = [n for n in names if n not in zero]
    if len(free) >= 2:
        a, b = r.sample(free, 2)
        rows.append(({a: planted[b], b: -planted[a]}, 0))  # mixed, holds at the plant
    for _ in range(r.randint(1, 3)):
        coeffs = {n: Fraction(r.randint(-3, 3)) for n in names if r.random() < 0.7}
        rhs = sum((c * planted[n] for n, c in coeffs.items()), Fraction(0))
        rows.append((coeffs, rhs if r.random() < 0.8 else Fraction(r.randint(-3, 3))))
    r.shuffle(rows)
    return system_of(names, rows), zero


def test_presolve_on_seeded_systems():
    forced_any = chained = infeasible = 0
    for i in range(60):
        r = corpus.rng(f"presolve/{i}")
        sys_, zero = presolve_system(r)
        forced = feasibility._forced_zero(sys_.equalities)
        assert set(zero) <= forced
        check_presolve(sys_, forced)
        forced_any += bool(forced)
        chained += len(zero) >= 2
        infeasible += find_feasible(sys_) is None
    assert forced_any > 30 and chained > 10 and 0 < infeasible < 60
