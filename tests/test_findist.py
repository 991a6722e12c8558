from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semistoch import (
    DistributionError,
    FinDist,
    FiniteSet,
    PAIR_RATIONAL,
    RATIONAL,
    ShapeError,
    TRILATTICE,
    TRI_EPS,
    TRI_ONE,
    dirac,
    flatten,
    marginal,
    product,
    product_set,
    pushforward,
    split_set,
    uniform,
    unit_set,
)

from semistoch.findist import atoms, join_atoms

import corpus

AB = FiniteSet(["a", "b"])
CD = FiniteSet(["c", "d"])


@st.composite
def rational_dists(draw, labels=("a", "b", "c")):
    raw = draw(
        st.lists(
            st.fractions(min_value=0, max_value=9),
            min_size=len(labels),
            max_size=len(labels),
        ).filter(lambda ws: any(ws))
    )
    total = sum(raw)
    return FinDist(RATIONAL, FiniteSet(labels), {l: w / total for l, w in zip(labels, raw)})


def test_finite_set_rejects_duplicates():
    with pytest.raises(DistributionError):
        FiniteSet(["a", "a"])
    with pytest.raises(DistributionError, match="duplicate label 'b'"):
        FiniteSet(["a", "b", "c", "b", "a"])


def test_finite_set_rejects_mixed_arity():
    with pytest.raises(DistributionError):
        FiniteSet(["a", ("b", "c")])


def test_finite_set_equality_ignores_factors():
    plain = FiniteSet([("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])
    prod = product_set(AB, CD)
    assert plain == prod
    assert hash(plain) == hash(prod)
    assert prod.factors == (AB, CD)
    assert plain.factors is None


def test_product_set_row_major_order():
    prod = product_set(AB, CD)
    assert prod.labels == (("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"))
    assert len(prod.labels) == len(AB.labels) * len(CD.labels)
    assert split_set(prod) == (AB, CD)
    with pytest.raises(ShapeError):
        split_set(AB)


def test_product_set_unit_is_strict():
    assert unit_set().labels == ((),)
    assert product_set(unit_set(), unit_set()).labels == ((),)
    assert product_set(unit_set(), AB).labels == AB.labels
    assert product_set(AB, unit_set()).labels == AB.labels
    singles = FiniteSet([("a",), ("b",)])
    assert product_set(unit_set(), singles).labels == ("a", "b")
    assert product_set(singles, unit_set()).labels == ("a", "b")


@pytest.mark.parametrize("left, right", [
    (unit_set(), unit_set()), (unit_set(), AB), (AB, unit_set()), (AB, CD),
    (FiniteSet([("a",), ("b",)]), CD), (product_set(AB, CD), FiniteSet([("e",)])),
    (unit_set(), product_set(AB, CD)),
])
def test_product_set_labels_join_the_atoms(left, right):
    assert product_set(left, right).labels == tuple(
        join_atoms(atoms(a) + atoms(b)) for a in left.labels for b in right.labels)


def test_product_set_associativity_is_strict():
    e = FiniteSet(["e"])
    left = product_set(product_set(AB, CD), e)
    right = product_set(AB, product_set(CD, e))
    assert left.labels == right.labels
    assert left.labels[0] == ("a", "c", "e")


def test_findist_requires_normalization():
    with pytest.raises(DistributionError):
        FinDist(RATIONAL, AB, {"a": Fraction(1, 2)})
    with pytest.raises(DistributionError):
        FinDist(RATIONAL, AB, {"a": Fraction(1, 2), "b": Fraction(2, 3)})


def test_findist_prunes_zero_weights():
    p = FinDist(RATIONAL, AB, {"a": Fraction(1), "b": Fraction(0)})
    assert p.support == ("a",)
    assert p.weight("b") == 0
    assert dict(p.weights) == {"a": Fraction(1)}


def test_findist_rejects_unknown_labels():
    with pytest.raises(DistributionError):
        FinDist(RATIONAL, AB, {"z": Fraction(1)})


@pytest.mark.parametrize(
    "semiring, weights",
    [
        (RATIONAL, {"a": Fraction(3, 2), "b": Fraction(-1, 2)}),  # sums to one
        (RATIONAL, {"a": 0.5, "b": Fraction(1, 2)}),
        (TRILATTICE, {"a": Fraction(1)}),
        (PAIR_RATIONAL, {"a": Fraction(1)}),
        (PAIR_RATIONAL, {"a": (Fraction(1), Fraction(1), Fraction(1))}),
        (PAIR_RATIONAL, {"a": (Fraction(3, 2), Fraction(1)),
                         "b": (Fraction(-1, 2), Fraction(0))}),  # sums to one
    ],
    ids=["rational-negative", "rational-float", "trilattice-fraction",
         "pair-bare-fraction", "pair-triple", "pair-negative-component"],
)
def test_findist_rejects_weights_outside_the_carrier(semiring, weights):
    # the carrier is checked here, once; the arithmetic trusts it afterwards
    with pytest.raises(ShapeError):
        FinDist(semiring, AB, weights)


def test_findist_is_hashable_label_material():
    p = dirac(RATIONAL, AB, "a")
    q = dirac(RATIONAL, AB, "b")
    s = FiniteSet([p, q])
    assert s.index(p) == 0


def test_dirac():
    p = dirac(RATIONAL, AB, "a")
    assert dict(p.weights) == {"a": Fraction(1)}
    t = dirac(TRILATTICE, AB, "b")
    assert dict(t.weights) == {"b": TRI_ONE}
    with pytest.raises(ShapeError):
        dirac(RATIONAL, AB, "z")


def test_pushforward_constant_map_collapses_to_dirac():
    p = FinDist(RATIONAL, AB, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
    out = pushforward(lambda _: "c", p, CD)
    assert out == dirac(RATIONAL, CD, "c")


def test_pushforward_relabeling():
    p = FinDist(RATIONAL, AB, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
    swapped = pushforward(lambda l: "a" if l == "b" else "b", p, AB)
    assert dict(swapped.weights) == {"a": Fraction(2, 3), "b": Fraction(1, 3)}


def test_pushforward_trilattice_collapse_uses_max():
    p = FinDist(TRILATTICE, AB, {"a": TRI_ONE, "b": TRI_EPS})
    out = pushforward(lambda _: "c", p, CD)
    assert dict(out.weights) == {"c": TRI_ONE}


def test_flatten_unit():
    p = FinDist(RATIONAL, AB, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
    phi = dirac(RATIONAL, FiniteSet([p]), p)
    assert flatten(phi) == p


def test_flatten_expansion():
    p = dirac(RATIONAL, AB, "a")
    q = dirac(RATIONAL, AB, "b")
    phi = FinDist(RATIONAL, FiniteSet([p, q]), {p: Fraction(1, 2), q: Fraction(1, 2)})
    assert dict(flatten(phi).weights) == {"a": Fraction(1, 2), "b": Fraction(1, 2)}


def test_flatten_trilattice_expansion():
    p = dirac(TRILATTICE, AB, "a")
    q = FinDist(TRILATTICE, AB, {"a": TRI_EPS, "b": TRI_ONE})
    phi = FinDist(TRILATTICE, FiniteSet([p, q]), {p: TRI_ONE, q: TRI_EPS})
    # 1*1 + eps*eps = 1 at a; eps*1 = eps at b
    assert dict(flatten(phi).weights) == {"a": TRI_ONE, "b": TRI_EPS}


def test_flatten_rejects_mismatched_bases():
    p = dirac(RATIONAL, AB, "a")
    q = dirac(RATIONAL, CD, "c")
    phi = FinDist(RATIONAL, FiniteSet([p, q]), {p: Fraction(1, 2), q: Fraction(1, 2)})
    with pytest.raises(ShapeError):
        flatten(phi)


def test_product_weight_formula():
    p = FinDist(RATIONAL, AB, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    q = FinDist(RATIONAL, CD, {"c": Fraction(1, 3), "d": Fraction(2, 3)})
    pq = product(p, q)
    assert dict(pq.weights) == {
        ("a", "c"): Fraction(1, 6),
        ("a", "d"): Fraction(1, 3),
        ("b", "c"): Fraction(1, 6),
        ("b", "d"): Fraction(1, 3),
    }
    # orientation: left factor drives the first coordinate
    assert pq.weight(("a", "d")) == p.weight("a") * q.weight("d")


def test_product_of_diracs():
    assert product(dirac(RATIONAL, AB, "a"), dirac(RATIONAL, CD, "c")) == dirac(
        RATIONAL, product_set(AB, CD), ("a", "c")
    )


def test_product_pair_semiring_diagonal_state():
    s = FinDist(
        PAIR_RATIONAL,
        AB,
        {"a": (Fraction(0), Fraction(1)), "b": (Fraction(1), Fraction(0))},
    )
    ss = product(s, s)
    assert dict(ss.weights) == {
        ("a", "a"): (Fraction(0), Fraction(1)),
        ("b", "b"): (Fraction(1), Fraction(0)),
    }


def test_marginal_recovers_factors():
    p = FinDist(RATIONAL, AB, {"a": Fraction(1, 2), "b": Fraction(1, 2)})
    q = FinDist(RATIONAL, CD, {"c": Fraction(1, 3), "d": Fraction(2, 3)})
    pq = product(p, q)
    assert marginal(pq, "left") == p
    assert marginal(pq, "right") == q


def test_marginal_of_dirac():
    d = dirac(RATIONAL, product_set(AB, CD), ("a", "c"))
    assert marginal(d, "right") == dirac(RATIONAL, CD, "c")


def test_marginal_requires_product_base():
    p = dirac(RATIONAL, AB, "a")
    with pytest.raises(ShapeError):
        marginal(p, "left")


def test_uniform():
    u = uniform(RATIONAL, FiniteSet(["a", "b", "c"]))
    assert all(w == Fraction(1, 3) for w in u.weights.values())
    # trilattice: n*1 = 1, so the uniform state weights everything 1
    ut = uniform(TRILATTICE, AB)
    assert dict(ut.weights) == {"a": TRI_ONE, "b": TRI_ONE}


@given(rational_dists())
def test_monad_unit_laws_rational(p):
    meta = dirac(RATIONAL, FiniteSet([p]), p)
    assert flatten(meta) == p
    deltas = {x: dirac(RATIONAL, p.base, x) for x in p.base.labels}
    delta_set = FiniteSet(list(deltas.values()))
    assert flatten(pushforward(lambda x: deltas[x], p, delta_set)) == p


def test_monad_unit_laws_trilattice_exhaustive():
    for k in (1, 2, 3):
        base = corpus.labeled_set("a", k)
        deltas = {x: dirac(TRILATTICE, base, x) for x in base.labels}
        delta_set = FiniteSet(list(deltas.values()))
        for p in corpus.tri_dists(base):
            assert flatten(dirac(TRILATTICE, FiniteSet([p]), p)) == p
            assert flatten(pushforward(lambda x: deltas[x], p, delta_set)) == p


def _random_tower(r, inner_count=3, mid_count=2):
    base = FiniteSet(["a", "b", "c"])
    inners = []
    while len(inners) < inner_count:
        cand = corpus.random_dist(r, base)
        if cand not in inners:
            inners.append(cand)
    inner_set = FiniteSet(inners)
    mids = []
    while len(mids) < mid_count:
        cand = corpus.random_dist(r, inner_set)
        if cand not in mids:
            mids.append(cand)
    mid_set = FiniteSet(mids)
    return corpus.random_dist(r, mid_set), inner_set


def test_flatten_associativity_random_towers():
    for i in range(50):
        r = corpus.rng(f"tower/{i}")
        xi, inner_set = _random_tower(r)
        via_outer = flatten(flatten(xi))
        flattened = {phi: flatten(phi) for phi in xi.base.labels}
        # distinct mids can flatten to the same distribution; fold weights
        image = []
        for phi in xi.base.labels:
            if flattened[phi] not in image:
                image.append(flattened[phi])
        via_inner = flatten(pushforward(lambda phi: flattened[phi], xi, FiniteSet(image)))
        assert via_outer == via_inner


@given(rational_dists(), rational_dists(labels=("c", "d")))
def test_product_marginal_round_trip(p, q):
    pq = product(p, q)
    assert marginal(pq, "left") == p
    assert marginal(pq, "right") == q


@given(rational_dists())
def test_pushforward_functoriality(p):
    f = {"a": "c", "b": "d", "c": "c"}
    g = {"c": "e", "d": "e"}
    mid = CD
    out = FiniteSet(["e"])
    two_step = pushforward(lambda y: g[y], pushforward(lambda x: f[x], p, mid), out)
    one_step = pushforward(lambda x: g[f[x]], p, out)
    assert two_step == one_step
