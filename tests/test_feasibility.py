from decimal import Decimal
from fractions import Fraction

import pytest

from semistoch import LinearSystem, ShapeError, find_feasible, verify

import corpus
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
], ids=["float-coefficient", "float-rhs", "float-zero", "string", "decimal-rhs"])
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
