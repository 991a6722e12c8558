"""The garbling and dilation systems, row for row, against reference builders.

The simplex's pivots follow the order of the variables and of the rows, so
the library's builders must give exactly the system these plain builders
give: the same variable names in the same order, and the same rows in the
same order, with the same coefficients under the same keys in the same
order.  The reference builders read every weight through ``Kernel.weight``
and build each variable name where they use it.
"""

from fractions import Fraction

import pytest

from semistoch import (LinearSystem, ShapeError, dilation_system, garbling_system,
                       standard_measure, state_dist)

import corpus


def reference_garbling_system(f, g, support):
    x_set, y_set = f.cod, g.cod

    def var(y, x):
        return f"c[{y!r}|{x!r}]"

    names = [var(y, x) for x in x_set.labels for y in y_set.labels]
    system = LinearSystem(names)
    for x in x_set.labels:
        system.add_equality({var(y, x): Fraction(1) for y in y_set.labels}, Fraction(1))
    for theta in support:
        for y in y_set.labels:
            system.add_equality({var(y, x): f.weight(x, theta) for x in x_set.labels},
                                g.weight(y, theta))
    return system


def reference_dilation_system(p_hat, q_hat):
    if p_hat.theta != q_hat.theta:
        raise ShapeError("meta-distributions must share a hypothesis base")
    sources, targets = q_hat.support, p_hat.support
    rows = [[f"t[{i}|{j}]" for j, _ in enumerate(targets)] for i, _ in enumerate(sources)]
    system = LinearSystem(name for row in rows for name in row)
    for row, source in zip(rows, sources):
        system.add_equality(dict.fromkeys(row, Fraction(1)), Fraction(1))
        for pos, coord in enumerate(source.weights):
            system.add_equality({name: target.weights[pos] for name, target in zip(row, targets)},
                                coord)
    for j, mass in enumerate(p_hat.weights.values()):
        system.add_equality({row[j]: weight for row, weight in zip(rows, q_hat.weights.values())},
                            mass)
    return system


def layout(system: LinearSystem):
    """Variables, then each row as its (name, coefficient) list and rhs, with value types."""
    return system.variables, [
        ([(name, c, type(c)) for name, c in coeffs.items()], rhs, type(rhs))
        for coeffs, rhs in system.equalities]


def assert_same_garbling(f, g, support):
    assert layout(garbling_system(f, g, support)) == layout(
        reference_garbling_system(f, g, support))


def assert_same_dilation(p_hat, q_hat):
    assert layout(dilation_system(p_hat, q_hat)) == layout(
        reference_dilation_system(p_hat, q_hat))


def test_rod_systems_match_the_reference(rod_f, rod_g, rod_m):
    for f, g in [(rod_f, rod_g), (rod_g, rod_f)]:
        assert_same_garbling(f, g, f.dom.labels)
        assert_same_garbling(f, g, state_dist(rod_m).support)
        assert_same_dilation(standard_measure(f, rod_m), standard_measure(g, rod_m))


def test_corpus_systems_match_the_reference():
    count = 0
    for inst in corpus.bss_corpus(200):
        prior_support = state_dist(inst.m).support
        try:
            for f, g in [(inst.f, inst.g), (inst.g, inst.f)]:
                assert_same_garbling(f, g, inst.theta.labels)
                assert_same_garbling(f, g, prior_support)
                assert_same_dilation(standard_measure(f, inst.m), standard_measure(g, inst.m))
        except AssertionError as exc:
            raise AssertionError(f"{inst.tag}: builders differ") from exc
        count += 1
    assert count == 200


def test_garbling_system_rejects_a_hypothesis_outside_the_domain(rod_f, rod_g):
    with pytest.raises(ShapeError):
        reference_garbling_system(rod_f, rod_g, ["nowhere"])
    with pytest.raises(ShapeError):
        garbling_system(rod_f, rod_g, ["nowhere"])
