from fractions import Fraction

import pytest

from semistoch import (
    FinDist,
    FiniteSet,
    Kernel,
    PAIR_RATIONAL,
    RATIONAL,
    ShapeError,
    TRILATTICE,
    TRI_EPS,
    TRI_ONE,
    bayesian_inverse,
    compose,
    copy,
    dirac,
    discard,
    from_function,
    identity,
    is_deterministic,
    joint,
    marginalize,
    product,
    product_set,
    state,
    state_dist,
    state_is_dirac,
    swap,
    tensor,
    unit_set,
)

from semistoch import findist
from semistoch.findist import atoms, join_atoms

import corpus

AB = FiniteSet(["a", "b"])
CD = FiniteSet(["c", "d"])
EF = FiniteSet(["e", "f"])


def compose_oracle(g: Kernel, f: Kernel) -> dict:
    # independent matrix-product expansion of (g o f)(z|x)
    return {
        x: {
            z: sum(
                (g.weight(z, y) * f.weight(y, x) for y in f.cod.labels),
                Fraction(0),
            )
            for z in g.cod.labels
        }
        for x in f.dom.labels
    }


def test_kernel_validates_columns():
    with pytest.raises(ShapeError):
        Kernel(RATIONAL, AB, CD, {"a": dirac(RATIONAL, CD, "c")})
    with pytest.raises(ShapeError):
        Kernel(
            RATIONAL,
            AB,
            CD,
            {"a": dirac(RATIONAL, CD, "c"), "b": dirac(RATIONAL, AB, "a")},
        )


def test_compose_matches_matrix_product():
    f = Kernel(
        RATIONAL,
        AB,
        CD,
        {
            "a": dirac(RATIONAL, CD, "c"),
            "b": FinDist(RATIONAL, CD, {"c": Fraction(1, 3), "d": Fraction(2, 3)}),
        },
    )
    g = Kernel(
        RATIONAL,
        CD,
        EF,
        {
            "c": FinDist(RATIONAL, EF, {"e": Fraction(1, 2), "f": Fraction(1, 2)}),
            "d": dirac(RATIONAL, EF, "f"),
        },
    )
    gf = compose(g, f)
    expect = compose_oracle(g, f)
    for x in AB.labels:
        for z in EF.labels:
            assert gf.weight(z, x) == expect[x][z]
    assert gf.weight("e", "b") == Fraction(1, 6)
    assert gf.weight("f", "b") == Fraction(5, 6)


def test_compose_random_against_oracle():
    for i in range(30):
        r = corpus.rng(f"kernel-compose/{i}")
        x = corpus.labeled_set("x", r.choice([1, 2, 3, 4]))
        y = corpus.labeled_set("y", r.choice([1, 2, 3, 4]))
        z = corpus.labeled_set("z", r.choice([1, 2, 3, 4]))
        f = corpus.random_kernel(r, x, y)
        g = corpus.random_kernel(r, y, z)
        gf = compose(g, f)
        expect = compose_oracle(g, f)
        assert all(
            gf.weight(c, a) == expect[a][c] for a in x.labels for c in z.labels
        )


def test_compose_shape_mismatch():
    f = from_function(RATIONAL, AB, CD, lambda a: "c")
    with pytest.raises(ShapeError):
        compose(f, f)


def test_rod_garbling_composes_exactly(rod_f, rod_g, rod_c):
    assert compose(rod_c, rod_f) == rod_g


def test_identity_laws_random():
    for i in range(20):
        r = corpus.rng(f"kernel-id/{i}")
        x = corpus.labeled_set("x", r.choice([1, 2, 3]))
        y = corpus.labeled_set("y", r.choice([1, 2, 3]))
        f = corpus.random_kernel(r, x, y)
        assert compose(identity(RATIONAL, y), f) == f
        assert compose(f, identity(RATIONAL, x)) == f


def test_associativity_random():
    for i in range(20):
        r = corpus.rng(f"kernel-assoc/{i}")
        sizes = [r.choice([1, 2, 3]) for _ in range(4)]
        objs = [corpus.labeled_set(p, n) for p, n in zip("wxyz", sizes)]
        f = corpus.random_kernel(r, objs[0], objs[1])
        g = corpus.random_kernel(r, objs[1], objs[2])
        h = corpus.random_kernel(r, objs[2], objs[3])
        assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_tensor_formula():
    r = corpus.rng("kernel-tensor")
    f = corpus.random_kernel(r, AB, CD)
    g = corpus.random_kernel(r, CD, EF)
    fg = tensor(f, g)
    assert fg.dom == product_set(AB, CD)
    assert fg.cod == product_set(CD, EF)
    for a in AB.labels:
        for b in CD.labels:
            for x in CD.labels:
                for y in EF.labels:
                    assert fg.weight((x, y), (a, b)) == f.weight(x, a) * g.weight(y, b)


def pair_kernel(left: Kernel, right: Kernel) -> Kernel:
    """Pair-rational kernel whose columns pair those of two rational kernels."""
    return Kernel(PAIR_RATIONAL, left.dom, left.cod, {
        a: FinDist(PAIR_RATIONAL, left.cod,
                   {x: (left.weight(x, a), right.weight(x, a)) for x in left.cod.labels})
        for a in left.dom.labels})


def tensor_cases():
    r = corpus.rng("kernel-tensor-columns")
    ab_cd = product_set(AB, CD)
    f = corpus.random_kernel(r, AB, CD)
    g = corpus.random_kernel(r, ab_cd, EF)
    h = corpus.random_kernel(r, unit_set(), AB)
    tri = corpus.tri_kernels(AB, CD)
    return {
        "rational": (f, g),
        "rational-state": (h, f),
        "rational-nested": (tensor(f, h), tensor(h, g)),
        "trilattice": (tri[5], tri[-3]),
        "pair-rational": (pair_kernel(f, corpus.random_kernel(r, AB, CD)),
                          pair_kernel(g, corpus.random_kernel(r, ab_cd, EF))),
    }


@pytest.mark.parametrize("case", sorted(tensor_cases()))
def test_tensor_columns_match_eager_products(case):
    f, g = tensor_cases()[case]
    eager = [(join_atoms(atoms(a) + atoms(b)), product(f.column(a), g.column(b)))
             for a in f.dom.labels for b in g.dom.labels]
    fg = tensor(f, g)
    last, last_column = eager[-1]
    assert fg.column(last) == last_column  # built first, still listed last
    assert list(fg.columns.items()) == eager
    assert list(fg.columns) == list(fg.dom.labels)


def test_bayesian_inverse_builds_only_reached_tensor_columns(monkeypatch):
    r = corpus.rng("kernel-lazy-inverse")
    theta = corpus.labeled_set("t", 6)
    f = corpus.random_kernel(r, theta, corpus.labeled_set("x", 3))
    m = corpus.random_prior(r, theta, full=True)
    built = []
    real = findist._product_on

    def counted(base, p, q):
        built.append((p, q))
        return real(base, p, q)

    monkeypatch.setattr(findist, "_product_on", counted)
    bayesian_inverse(f, m)
    assert len(built) == 6  # the copied diagonal, not all 36 pairs


def test_tensor_column_outside_domain():
    fg = tensor(corpus.random_kernel(corpus.rng("kernel-tensor-dom"), AB, CD),
                identity(RATIONAL, EF))
    for label in (("a", "c"), ("z", "e"), "a", ("a", "e", "e")):
        with pytest.raises(ShapeError, match="not in domain"):
            fg.column(label)


def joint_cases():
    r = corpus.rng("kernel-joint")
    k = corpus.random_kernel(r, AB, CD)
    partial = state(FinDist(RATIONAL, AB, {"b": Fraction(1)}))
    tri_prior = state(FinDist(TRILATTICE, AB, {"a": TRI_EPS, "b": TRI_ONE}))
    pair_prior = state(FinDist(PAIR_RATIONAL, AB, {"a": (Fraction(1, 3), Fraction(1)),
                                                   "b": (Fraction(2, 3), Fraction(0))}))
    return {
        "rational": (corpus.random_prior(r, AB, full=True), k),
        "rational-partial-prior": (partial, k),
        "trilattice": (tri_prior, corpus.tri_kernels(AB, CD)[7]),
        "pair-rational": (pair_prior, pair_kernel(k, corpus.random_kernel(r, AB, CD))),
    }


@pytest.mark.parametrize("case", sorted(joint_cases()))
def test_joint_is_the_copied_prior_beside_the_kernel(case):
    m, k = joint_cases()[case]
    sr = k.semiring
    j = joint(m, k)
    assert j == compose(tensor(identity(sr, AB), k), compose(copy(sr, AB), m))
    assert j.dom == unit_set() and j.cod == product_set(AB, CD)
    prior = state_dist(m)
    for a in AB.labels:
        for x in CD.labels:
            assert j.weight((a, x), ()) == sr.mul(prior.weight(a), k.weight(x, a))


def test_tensor_of_identities_is_identity():
    assert tensor(identity(RATIONAL, AB), identity(RATIONAL, CD)) == identity(
        RATIONAL, product_set(AB, CD)
    )


def test_tensor_interchange():
    for i in range(15):
        r = corpus.rng(f"kernel-interchange/{i}")
        a = corpus.labeled_set("a", r.choice([1, 2]))
        b = corpus.labeled_set("b", r.choice([1, 2]))
        x = corpus.labeled_set("x", r.choice([1, 2]))
        y = corpus.labeled_set("y", r.choice([1, 2]))
        z = corpus.labeled_set("z", r.choice([1, 2]))
        w = corpus.labeled_set("w", r.choice([1, 2]))
        f1 = corpus.random_kernel(r, a, x)
        f2 = corpus.random_kernel(r, x, z)
        g1 = corpus.random_kernel(r, b, y)
        g2 = corpus.random_kernel(r, y, w)
        assert compose(tensor(f2, g2), tensor(f1, g1)) == tensor(
            compose(f2, f1), compose(g2, g1)
        )


def test_copy_discard_swap_identity_columns():
    cp = copy(RATIONAL, AB)
    assert cp.column("a") == dirac(RATIONAL, product_set(AB, AB), ("a", "a"))
    dc = discard(RATIONAL, AB)
    assert dc.cod == unit_set()
    assert dc.column("b") == dirac(RATIONAL, unit_set(), ())
    assert dc.column("a") is dc.column("b")  # one point mass per distinct image
    sw = swap(RATIONAL, AB, CD)
    assert sw.column(("a", "d")) == dirac(RATIONAL, product_set(CD, AB), ("d", "a"))


def test_comonoid_laws():
    x = FiniteSet(["a", "b", "c"])
    cp = copy(RATIONAL, x)
    ident = identity(RATIONAL, x)
    dc = discard(RATIONAL, x)
    assert compose(tensor(dc, ident), cp) == ident
    assert compose(tensor(ident, dc), cp) == ident
    assert compose(tensor(cp, ident), cp) == compose(tensor(ident, cp), cp)
    assert compose(swap(RATIONAL, x, x), cp) == cp


def test_copy_of_product_decomposes():
    # cop_{X@Y} = (id @ swap @ id) o (cop_X @ cop_Y)
    lhs = copy(RATIONAL, product_set(AB, CD))
    mid = tensor(
        identity(RATIONAL, AB),
        tensor(swap(RATIONAL, AB, CD), identity(RATIONAL, CD)),
    )
    rhs = compose(mid, tensor(copy(RATIONAL, AB), copy(RATIONAL, CD)))
    assert lhs == rhs


def test_swap_involution_and_naturality():
    assert compose(swap(RATIONAL, CD, AB), swap(RATIONAL, AB, CD)) == identity(
        RATIONAL, product_set(AB, CD)
    )
    r = corpus.rng("kernel-swapnat")
    f = corpus.random_kernel(r, AB, CD)
    g = corpus.random_kernel(r, CD, EF)
    assert compose(swap(RATIONAL, CD, EF), tensor(f, g)) == compose(
        tensor(g, f), swap(RATIONAL, AB, CD)
    )


def test_discard_naturality():
    # every kernel is normalized, so discarding after it is just discarding
    for i in range(10):
        r = corpus.rng(f"kernel-discardnat/{i}")
        f = corpus.random_kernel(r, AB, CD)
        assert compose(discard(RATIONAL, CD), f) == discard(RATIONAL, AB)


def test_marginalize_drops_a_factor():
    r = corpus.rng("kernel-marg")
    f = corpus.random_kernel(r, AB, CD)
    g = corpus.random_kernel(r, AB, EF)
    joint = compose(tensor(f, g), copy(RATIONAL, AB))
    assert marginalize(joint, "left") == f
    assert marginalize(joint, "right") == g


def test_state_round_trip():
    p = FinDist(RATIONAL, AB, {"a": Fraction(1, 4), "b": Fraction(3, 4)})
    st = state(p)
    assert st.dom == unit_set()
    assert state_dist(st) == p


def test_structure_maps_are_deterministic():
    assert is_deterministic(identity(RATIONAL, AB))
    assert is_deterministic(copy(RATIONAL, AB))
    assert is_deterministic(discard(RATIONAL, AB))
    assert is_deterministic(swap(RATIONAL, AB, CD))
    assert is_deterministic(from_function(RATIONAL, AB, CD, lambda a: "d"))


def test_noisy_kernel_is_not_deterministic():
    coin = state(FinDist(RATIONAL, AB, {"a": Fraction(1, 2), "b": Fraction(1, 2)}))
    assert not is_deterministic(coin)
    assert not state_is_dirac(coin)


def test_deterministic_closed_under_composition():
    for i in range(10):
        r = corpus.rng(f"kernel-detclose/{i}")
        f = from_function(RATIONAL, AB, CD, lambda a, r=r: r.choice(CD.labels))
        g = from_function(RATIONAL, CD, EF, lambda c, r=r: r.choice(EF.labels))
        assert is_deterministic(compose(g, f))


def test_dirac_states_are_dirac():
    assert state_is_dirac(state(dirac(RATIONAL, AB, "a")))


def test_entire_semiring_deterministic_states_are_dirac():
    # trilattice, exhaustive over base sizes 1..3
    for k in (1, 2, 3):
        base = corpus.labeled_set("a", k)
        for p in corpus.tri_dists(base):
            st = state(p)
            assert is_deterministic(st) == state_is_dirac(st)
    # rationals, randomized
    for i in range(50):
        r = corpus.rng(f"kernel-detdirac/{i}")
        base = corpus.labeled_set("a", r.choice([1, 2, 3, 4]))
        st = state(corpus.random_dist(r, base))
        assert is_deterministic(st) == state_is_dirac(st)


def test_pair_semiring_deterministic_state_that_is_not_dirac():
    s = state(
        FinDist(
            PAIR_RATIONAL,
            AB,
            {"a": (Fraction(0), Fraction(1)), "b": (Fraction(1), Fraction(0))},
        )
    )
    assert is_deterministic(s)
    assert not state_is_dirac(s)
    # the determinism equation in explicit form: copy o s = (s @ s) o copy
    lhs = compose(copy(PAIR_RATIONAL, AB), s)
    rhs = compose(tensor(s, s), copy(PAIR_RATIONAL, unit_set()))
    assert lhs == rhs
    assert dict(state_dist(lhs).weights) == {
        ("a", "a"): (Fraction(0), Fraction(1)),
        ("b", "b"): (Fraction(1), Fraction(0)),
    }

