"""The integer-row simplex against the dense Fraction one it replaced, pivot for pivot.

Both run the same presolve and then the same phase-1 rule on the presolved
system, so they must agree on the verdict and return the identical solution
dict, not merely an equivalent one.  The dense tableau on the full system,
without the presolve, must reach the same verdict.  The edge
systems are the shapes where a sparse row is easiest to get wrong: a zero
rhs has no rhs key, a negated row flips every stored entry, an empty row
holds only its artificial, and a redundant row leaves an artificial basic
at zero.  The mixed-denominator systems are where an integer row is easiest
to get wrong: each row is scaled by the lcm of denominators such as 3, 7
and 9, or near 2**40, so rows of different scales meet in the objective and
in the ratio test.
"""

from fractions import Fraction

import pytest

from semistoch import (LinearSystem, dilation_system, find_feasible, garbling_system,
                       standard_measure, state_dist, verify)

import corpus
import dense_simplex
import lp_oracle


def corpus_systems():
    for inst in corpus.bss_corpus():
        yield f"{inst.tag}/as", garbling_system(inst.f, inst.g, state_dist(inst.m).support)
        yield f"{inst.tag}/plain", garbling_system(inst.f, inst.g, inst.theta.labels)
        yield f"{inst.tag}/dilation", dilation_system(standard_measure(inst.f, inst.m),
                                                      standard_measure(inst.g, inst.m))


def edge_system(i: int) -> LinearSystem:
    """A small system with redundant, empty, negated and zero-rhs rows.

    Half the draws plant a nonnegative solution, so feasible verdicts with
    artificials left basic at zero occur; the rest take arbitrary rhs.
    """
    r = corpus.rng(f"edge/{i}")
    used = [f"v{j}" for j in range(r.randint(1, 4))]
    unused = [f"u{j}" for j in range(r.randint(0, 2))]  # appear in no row
    planted = {name: Fraction(r.randint(0, 2)) for name in used}
    system = LinearSystem(used + unused)
    rows = []
    for _ in range(r.randint(1, 3)):
        coeffs = {name: Fraction(r.randint(-2, 2)) for name in used if r.random() < 0.7}
        if r.random() < 0.5:
            rhs = sum((c * planted[name] for name, c in coeffs.items()), Fraction(0))
        else:
            rhs = Fraction(r.randint(-2, 2))
        rows.append((coeffs, rhs))
    for coeffs, rhs in list(rows):
        if r.random() < 0.5:  # a redundant copy, possibly scaled by a negative factor
            scale = Fraction(r.choice([-2, -1, 1, 3]))
            rows.append(({name: scale * c for name, c in coeffs.items()}, scale * rhs))
    if r.random() < 0.4:
        rows.append(({}, Fraction(0) if r.random() < 0.8 else Fraction(1)))
    r.shuffle(rows)
    for coeffs, rhs in rows:
        system.add_equality(coeffs, rhs)
    return system


EDGE_SYSTEMS = [edge_system(i) for i in range(200)]


DENS = (1, 2, 3, 5, 7, 9)


def mixed_value(r) -> Fraction:
    """A small rational over one of DENS, or one time in fifty over a denominator near 2**40."""
    if r.random() < 0.02:
        den = r.randint(2**40 - 2**12, 2**40 + 2**12)
    else:
        den = r.choice(DENS)
    return Fraction(r.randint(-9, 9), den)


def mixed_system(i: int) -> LinearSystem:
    """A small system whose rows mix coprime denominators.

    Half the rows have the rhs of a planted nonnegative rational point.  Half
    the rows get a redundant copy scaled by a rational such as -7/3, which
    negates it half the time.
    """
    r = corpus.rng(f"mixed/{i}")
    names = [f"v{j}" for j in range(r.randint(2, 5))]
    planted = {name: Fraction(r.randint(0, 4), r.choice(DENS)) for name in names}
    system = LinearSystem(names)
    rows = []
    for _ in range(r.randint(1, 4)):
        coeffs = {name: mixed_value(r) for name in names if r.random() < 0.8}
        if r.random() < 0.5:
            rhs = sum((c * planted[name] for name, c in coeffs.items()), Fraction(0))
        else:
            rhs = mixed_value(r)
        rows.append((coeffs, rhs))
    for coeffs, rhs in list(rows):
        if r.random() < 0.5:
            scale = Fraction(r.choice([-1, 1]) * r.randint(1, 7), r.choice(DENS))
            rows.append(({name: scale * c for name, c in coeffs.items()}, scale * rhs))
    r.shuffle(rows)
    for coeffs, rhs in rows:
        system.add_equality(coeffs, rhs)
    return system


MIXED_SYSTEMS = [mixed_system(i) for i in range(200)]

HAND_SYSTEMS = [
    # identical rows: the second artificial stays basic at zero
    ([{"x": 1, "y": 1}, {"x": 1, "y": 1}], [1, 1]),
    # a row and its negation
    ([{"x": 1, "y": -1}, {"x": -1, "y": 1}], [1, -1]),
    # every rhs zero: no row stores an rhs entry
    ([{"x": 1, "y": -1}, {"x": 2, "z": -1}], [0, 0]),
    # an empty row with zero rhs beside a real one
    ([{}, {"x": 2}], [0, 3]),
    # an empty row with nonzero rhs
    ([{}, {"x": 2}], [1, 3]),
    # negative rhs that a nonnegative point can meet
    ([{"x": -1, "y": -2}], [-3]),
    # rows whose integer forms have scales 3 and 6: the objective must sum
    # the rational rows, since summing the integer ones moves the witness
    ([{"x": 2, "y": 2, "z": -1}, {"x": Fraction(3, 2), "y": 2}], [Fraction(-1, 3), Fraction(1, 3)]),
]


def hand_system(rows, rhs) -> LinearSystem:
    system = LinearSystem(["x", "y", "z", "w"])  # w appears in no row
    for coeffs, b in zip(rows, rhs):
        system.add_equality(coeffs, b)
    return system


def assert_same(system: LinearSystem) -> None:
    sparse = find_feasible(system)
    dense = dense_simplex.find_feasible(system)
    assert sparse == dense
    assert (sparse is None) == (dense_simplex.find_feasible(system, presolve=False) is None)
    if sparse is not None:
        assert list(sparse) == list(dense)
        assert all(type(v) is Fraction for v in sparse.values())
        assert verify(system, sparse)


def test_identical_on_corpus_systems():
    count = 0
    for tag, system in corpus_systems():
        try:
            assert_same(system)
        except AssertionError as exc:
            raise AssertionError(f"{tag}: sparse and dense solvers differ") from exc
        count += 1
    assert count == 3 * len(corpus.bss_corpus())


def test_identical_on_edge_systems():
    for i, system in enumerate(EDGE_SYSTEMS):
        try:
            assert_same(system)
            assert (find_feasible(system) is not None) == lp_oracle.brute_force_feasible(system)
        except AssertionError as exc:
            raise AssertionError(f"edge/{i}: {system.equalities!r}") from exc


def test_identical_on_mixed_denominator_systems():
    for i, system in enumerate(MIXED_SYSTEMS):
        try:
            assert_same(system)
            assert (find_feasible(system) is not None) == lp_oracle.brute_force_feasible(system)
        except AssertionError as exc:
            raise AssertionError(f"mixed/{i}: {system.equalities!r}") from exc


@pytest.mark.parametrize("rows,rhs", HAND_SYSTEMS)
def test_identical_on_hand_edge_systems(rows, rhs):
    system = hand_system(rows, rhs)
    assert_same(system)
    assert (find_feasible(system) is not None) == lp_oracle.brute_force_feasible(system)


def proportional(first, second) -> bool:
    (c1, b1), (c2, b2) = first, second
    if not c1 or c1.keys() != c2.keys():
        return False
    scale = c2[next(iter(c1))] / c1[next(iter(c1))]
    return all(c2[name] == scale * c1[name] for name in c1) and b2 == scale * b1


def has_redundant_row(system: LinearSystem) -> bool:
    eqs = system.equalities
    return any(proportional(eqs[i], eqs[j])
               for i in range(len(eqs)) for j in range(i + 1, len(eqs)))


def test_edge_generator_covers_its_cases():
    rows = [eq for system in EDGE_SYSTEMS for eq in system.equalities]
    assert any(rhs < 0 for _, rhs in rows)
    assert any(rhs == 0 and coeffs for coeffs, rhs in rows)
    assert any(not coeffs for coeffs, _ in rows)
    assert any(name.startswith("u") for s in EDGE_SYSTEMS for name in s.variables)
    feasible = [s for s in EDGE_SYSTEMS if find_feasible(s) is not None]
    assert 0 < len(feasible) < len(EDGE_SYSTEMS)
    assert any(has_redundant_row(s) for s in feasible)


def negated_copy(first, second) -> bool:
    (c1, _), (c2, _) = first, second
    return proportional(first, second) and c2[next(iter(c1))] / c1[next(iter(c1))] < 0


def test_mixed_generator_covers_its_cases():
    rows = [eq for system in MIXED_SYSTEMS for eq in system.equalities]
    dens = [{v.denominator for v in (*coeffs.values(), rhs)} for coeffs, rhs in rows]
    assert any({3, 7} <= d or {7, 9} <= d for d in dens)
    assert any(max(d) > 2**39 for d in dens)
    assert any(rhs < 0 for _, rhs in rows)
    assert any(negated_copy(a, b) for s in MIXED_SYSTEMS
               for a in s.equalities for b in s.equalities)
    solutions = [find_feasible(s) for s in MIXED_SYSTEMS]
    feasible = [s for s, sol in zip(MIXED_SYSTEMS, solutions) if sol is not None]
    assert 0 < len(feasible) < len(MIXED_SYSTEMS)
    assert any(has_redundant_row(s) for s in feasible)
    assert any(v.denominator > 1 for sol in solutions if sol for v in sol.values())
