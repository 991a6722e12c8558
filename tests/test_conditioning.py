from decimal import Decimal
from fractions import Fraction

import pytest

from semistoch import (
    CapabilityError,
    DistributionError,
    FinDist,
    FiniteSet,
    Kernel,
    PAIR_RATIONAL,
    Point,
    RATIONAL,
    TRILATTICE,
    TRI_EPS,
    TRI_ONE,
    ase,
    bayesian_inverse,
    compose,
    conditional,
    copy,
    dirac,
    dominates,
    doubling,
    from_function,
    identity,
    is_deterministic,
    is_deterministic_given,
    marginalize,
    partial_adjunct,
    point_dist,
    point_of,
    product,
    product_set,
    samp_on,
    sharp,
    split_set,
    state,
    state_dist,
    swap,
    tensor,
    uniform,
    unit_set,
)

import corpus

AB = FiniteSet(["a", "b"])
CD = FiniteSet(["c", "d"])
THETA = FiniteSet(["safe", "faulty"])


def pair_label(x, a):
    parts = (x if isinstance(x, tuple) else (x,)) + (a if isinstance(a, tuple) else (a,))
    return parts[0] if len(parts) == 1 else parts


def joint_of(m: Kernel, f: Kernel) -> Kernel:
    # state over dom(f) x cod(f) built from a prior and a kernel
    a = f.dom
    return compose(compose(tensor(identity(f.semiring, a), f), copy(f.semiring, a)), m)


def conditional_equation_holds(f: Kernel, k: Kernel, wrt: str) -> bool:
    # f(x,y|a) must factor through the wrt-marginal and the conditional
    sr = f.semiring
    marg = marginalize(f, "left" if wrt == "left" else "right")
    for a in f.dom.labels:
        for lab in f.cod.labels:
            x, y = split_pair(f.cod, lab)
            cond_on, out = (x, y) if wrt == "left" else (y, x)
            got = sr.mul(marg.weight(cond_on, a), k.weight(out, pair_label(cond_on, a)))
            if not sr.eq(f.weight(lab, a), got):
                return False
    return True


def split_pair(prod: FiniteSet, label):
    left, right = prod.factors
    n = len(label) if isinstance(label, tuple) else 1
    la = left.arity
    return (
        label[:la] if la > 1 else label[0] if isinstance(label, tuple) else label,
        label[la:] if n - la > 1 else label[la],
    )


def test_conditional_of_uniform_joint_is_constant():
    j = state(uniform(RATIONAL, product_set(AB, CD)))
    k = conditional(j, wrt="left")
    for col in k.dom.labels:
        assert dict(k.column(col).weights) == {
            "c": Fraction(1, 2),
            "d": Fraction(1, 2),
        }


def test_conditional_equation_random_rational():
    for i in range(40):
        r = corpus.rng(f"cond-eq/{i}")
        a = corpus.labeled_set("a", r.choice([1, 2, 3]))
        x = corpus.labeled_set("x", r.choice([1, 2, 3]))
        y = corpus.labeled_set("y", r.choice([1, 2, 3]))
        f = corpus.random_kernel(r, a, product_set(x, y))
        for wrt in ("left", "right"):
            k = conditional(f, wrt=wrt)
            assert conditional_equation_holds(f, k, wrt)


def test_conditional_equation_trilattice_exhaustive_small():
    x = FiniteSet(["x1", "x2"])
    y = FiniteSet(["y1", "y2"])
    dom = FiniteSet(["a1"])
    for p in corpus.tri_dists(product_set(x, y)):
        f = Kernel(TRILATTICE, dom, product_set(x, y), {"a1": p})
        for wrt in ("left", "right"):
            k = conditional(f, wrt=wrt)
            assert conditional_equation_holds(f, k, wrt)


def test_conditional_trilattice_worked_example():
    prod = product_set(AB, CD)
    j = state(
        FinDist(TRILATTICE, prod, {("a", "c"): TRI_ONE, ("a", "d"): TRI_EPS})
    )
    k = conditional(j, wrt="left")
    assert dict(k.column("a").weights) == {"c": TRI_ONE, "d": TRI_EPS}
    # zero-marginal column falls back to dirac at the first codomain label
    assert k.column("b") == dirac(TRILATTICE, CD, "c")


def test_conditional_zero_marginal_uniform_fallback_rational():
    prod = product_set(AB, CD)
    j = state(
        FinDist(
            RATIONAL,
            prod,
            {("a", "c"): Fraction(1, 2), ("a", "d"): Fraction(1, 2)},
        )
    )
    k = conditional(j, wrt="left")
    assert k.column("b") == uniform(RATIONAL, CD)


def test_conditional_rejects_pair_semiring():
    prod = product_set(AB, CD)
    j = state(
        FinDist(
            PAIR_RATIONAL,
            prod,
            {("a", "c"): (Fraction(1), Fraction(1))},
        )
    )
    with pytest.raises(CapabilityError):
        conditional(j, wrt="left")


def test_rod_posterior_via_conditional(rod_f, rod_m):
    j = joint_of(rod_m, rod_f)  # state over Theta x X
    k = conditional(j, wrt="right")  # condition on the observation
    assert dict(k.column("pass").weights) == {
        "safe": Fraction(8, 13),
        "faulty": Fraction(5, 13),
    }


def test_bayesian_inverse_equation_random():
    for i in range(30):
        r = corpus.rng(f"bayes-eq/{i}")
        a = corpus.labeled_set("a", r.choice([2, 3]))
        x = corpus.labeled_set("x", r.choice([2, 3]))
        f = corpus.random_kernel(r, a, x)
        m = corpus.random_prior(r, a)
        fdag = bayesian_inverse(f, m)
        lhs = joint_of(m, f)
        rhs = compose(
            compose(tensor(fdag, identity(RATIONAL, x)), copy(RATIONAL, x)),
            compose(f, m),
        )
        assert lhs == rhs


def test_rod_posteriors(rod_f, rod_g, rod_m):
    fdag = bayesian_inverse(rod_f, rod_m)
    assert dict(fdag.column("pass").weights) == {
        "safe": Fraction(8, 13),
        "faulty": Fraction(5, 13),
    }
    assert dict(fdag.column("fail").weights) == {
        "safe": Fraction(1, 11),
        "faulty": Fraction(10, 11),
    }
    gdag = bayesian_inverse(rod_g, rod_m)
    assert dict(gdag.column("pass").weights) == {
        "safe": Fraction(8, 13),
        "faulty": Fraction(5, 13),
    }
    assert dict(gdag.column("fail").weights) == {
        "safe": Fraction(28, 83),
        "faulty": Fraction(55, 83),
    }


def test_bayesian_inverse_of_bijection_is_inverse_function():
    f = from_function(RATIONAL, AB, CD, lambda a: "c" if a == "a" else "d")
    m = state(FinDist(RATIONAL, AB, {"a": Fraction(1, 3), "b": Fraction(2, 3)}))
    fdag = bayesian_inverse(f, m)
    assert fdag == from_function(RATIONAL, CD, AB, lambda c: "a" if c == "c" else "b")


def test_bayesian_inverse_of_uninformative_kernel_is_prior():
    f = from_function(RATIONAL, AB, CD, lambda a: "c")
    p = FinDist(RATIONAL, AB, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
    fdag = bayesian_inverse(f, state(p))
    assert fdag.column("c") == p


def test_double_inversion_up_to_ase():
    for i in range(25):
        r = corpus.rng(f"bayes-double/{i}")
        a = corpus.labeled_set("a", r.choice([2, 3]))
        x = corpus.labeled_set("x", r.choice([2, 3]))
        f = corpus.random_kernel(r, a, x)
        m = corpus.random_prior(r, a)
        fdag = bayesian_inverse(f, m)
        ddag = bayesian_inverse(fdag, compose(f, m))
        assert ase(ddag, f, m)


def test_conditionals_unique_up_to_ase():
    prod = product_set(AB, CD)
    j = state(
        FinDist(
            RATIONAL,
            prod,
            {("a", "c"): Fraction(1, 4), ("a", "d"): Fraction(3, 4)},
        )
    )
    k1 = conditional(j, wrt="left")
    cols = {lab: k1.column(lab) for lab in k1.dom.labels}
    cols["b"] = dirac(RATIONAL, CD, "d")  # still valid: marginal at b is zero
    k2 = Kernel(RATIONAL, k1.dom, k1.cod, cols)
    assert conditional_equation_holds(j, k2, "left")
    ref = marginalize(j, "left")  # state over X; conditionals take X columns
    assert k1 != k2
    assert ase(k1, k2, ref)


def test_ase_reflexive_and_support_sensitive():
    r = corpus.rng("ase-basic")
    f = corpus.random_kernel(r, AB, CD)
    m = state(dirac(RATIONAL, AB, "a"))
    assert ase(f, f, m)
    cols = {"a": f.column("a"), "b": dirac(RATIONAL, CD, "c")}
    g = Kernel(RATIONAL, AB, CD, cols)
    # differs only outside supp(m)
    assert ase(f, g, m) or f.column("b") == g.column("b")
    full = state(uniform(RATIONAL, AB))
    if f.column("b") != g.column("b"):
        assert not ase(f, g, full)


def test_ase_on_the_trilattice_hides_a_difference_at_an_eps_input():
    # eps * 1 == eps * eps == eps, so the x2 columns differ yet f and g agree
    x = FiniteSet(["x1", "x2"])
    y = FiniteSet(["y1", "y2"])
    at_x1 = dirac(TRILATTICE, y, "y1")
    f = Kernel(TRILATTICE, x, y, {"x1": at_x1,
                                  "x2": FinDist(TRILATTICE, y, {"y1": TRI_ONE, "y2": TRI_EPS})})
    g = Kernel(TRILATTICE, x, y, {"x1": at_x1,
                                  "x2": FinDist(TRILATTICE, y, {"y1": TRI_EPS, "y2": TRI_ONE})})
    wrt = state(FinDist(TRILATTICE, x, {"x1": TRI_ONE, "x2": TRI_EPS}))
    assert f.column("x2") != g.column("x2")
    assert ase(f, g, wrt)


def test_dominates_is_support_inclusion():
    half = state(FinDist(RATIONAL, AB, {"a": Fraction(1, 2), "b": Fraction(1, 2)}))
    da = state(dirac(RATIONAL, AB, "a"))
    assert dominates(da, half)
    assert not dominates(half, da)
    assert dominates(half, half)
    third = state(FinDist(RATIONAL, AB, {"a": Fraction(1, 3), "b": Fraction(2, 3)}))
    assert not dominates(third, da)


def test_dominates_transfers_ase():
    for i in range(25):
        r = corpus.rng(f"dom-transfer/{i}")
        a = corpus.labeled_set("a", 3)
        x = corpus.labeled_set("x", 2)
        mu = corpus.random_prior(r, a)
        nu = corpus.random_prior(r, a)
        f = corpus.random_kernel(r, a, x)
        g = corpus.random_kernel(r, a, x)
        if dominates(mu, nu) and ase(f, g, nu):
            assert ase(f, g, mu)


def test_dominates_requires_rationals():
    s = state(FinDist(TRILATTICE, AB, {"a": TRI_ONE}))
    with pytest.raises(CapabilityError):
        dominates(s, s)


@pytest.mark.parametrize("weights", [
    (0.5, 0.5),
    (Fraction(1, 2), 0.5),
    (1.0, 0),
    ("1/2", "1/2"),
    (Decimal("0.5"), Decimal("0.5")),
], ids=["floats", "one-float", "float-one", "strings", "decimals"])
def test_point_rejects_inexact_coordinates(weights):
    with pytest.raises(DistributionError):
        Point(("a", "b"), weights)


def test_point_validation_and_text():
    with pytest.raises(DistributionError):
        Point(("a", "b"), (Fraction(1, 2), Fraction(1, 4)))
    with pytest.raises(DistributionError):
        Point(("a", "b"), (Fraction(-1, 2), Fraction(3, 2)))
    pt = Point(("a", "b"), (Fraction(8, 13), Fraction(5, 13)))
    assert pt.text() == "8/13,5/13"
    assert pt.weight("b") == Fraction(5, 13)


def test_point_round_trip():
    p = FinDist(RATIONAL, AB, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
    assert point_dist(point_of(p)) == p


def test_sharp_reads_columns(rod_f):
    sf = sharp(rod_f)
    assert is_deterministic(sf)
    pts = sf.cod.labels
    assert {pt.text() for pt in pts} == {"24/25,1/25", "3/5,2/5"}
    assert sf.column("safe") == dirac(
        RATIONAL, sf.cod, Point(("pass", "fail"), (Fraction(24, 25), Fraction(1, 25)))
    )


def test_sharp_collapses_equal_columns():
    f = from_function(RATIONAL, FiniteSet(["a", "b", "c"]), CD, lambda _: "c")
    sf = sharp(f)
    assert len(sf.cod.labels) == 1
    assert sf.cod.labels[0] == Point(("c", "d"), (Fraction(1), Fraction(0)))


def test_samp_after_sharp_recovers_kernel():
    for i in range(20):
        r = corpus.rng(f"sharp-samp/{i}")
        a = corpus.labeled_set("a", r.choice([2, 3]))
        x = corpus.labeled_set("x", r.choice([2, 3]))
        f = corpus.random_kernel(r, a, x)
        sf = sharp(f)
        assert compose(samp_on(list(sf.cod.labels)), sf) == f


def test_samp_on_vertex_point_is_dirac():
    vertex = Point(("a", "b"), (Fraction(1), Fraction(0)))
    k = samp_on([vertex])
    assert k.column(vertex) == dirac(RATIONAL, AB, "a")


def test_sharp_requires_rationals():
    f = from_function(TRILATTICE, AB, CD, lambda a: "c")
    with pytest.raises(CapabilityError):
        sharp(f)


def doubling_oracle(f: Kernel, k: Kernel, given: str) -> dict:
    # expansion of the doubling given the provided conditional
    sr = f.semiring
    marg = marginalize(f, "left" if given == "left" else "right")
    out = {}
    for a in f.dom.labels:
        table = {}
        for lab in f.cod.labels:
            x, y = split_pair(f.cod, lab)
            cond_on, dup = (x, y) if given == "left" else (y, x)
            for lab2 in f.cod.labels:
                x2, y2 = split_pair(f.cod, lab2)
                cond_on2, dup2 = (x2, y2) if given == "left" else (y2, x2)
                if cond_on2 != cond_on:
                    continue
                w = sr.mul(
                    marg.weight(cond_on, a),
                    sr.mul(k.weight(dup, pair_label(cond_on, a)), k.weight(dup2, pair_label(cond_on, a))),
                )
                key = (
                    (cond_on, dup, dup2) if given == "left" else (dup, dup2, cond_on)
                )
                table[key] = sr.add(table.get(key, sr.zero), w)
        out[a] = {key: w for key, w in table.items() if not sr.is_zero(w)}
    return out


def test_doubling_independent_factors():
    p = FinDist(RATIONAL, AB, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
    q = FinDist(RATIONAL, CD, {"c": Fraction(1, 4), "d": Fraction(3, 4)})
    j = state(product(p, q))
    d = doubling(j, given="left")
    got = state_dist(d)
    for x in AB.labels:
        for y1 in CD.labels:
            for y2 in CD.labels:
                assert got.weight((x, y1, y2)) == p.weight(x) * q.weight(y1) * q.weight(y2)


def test_doubling_duplicates_deterministic_leg():
    g = from_function(RATIONAL, AB, CD, lambda a: "c" if a == "a" else "d")
    f = compose(tensor(identity(RATIONAL, AB), g), copy(RATIONAL, AB))
    d = doubling(f, given="left")
    expect = compose(tensor(identity(RATIONAL, AB), copy(RATIONAL, CD)), f)
    assert d == expect


def test_doubling_invariant_under_conditional_choice():
    prod = product_set(AB, CD)
    j = state(
        FinDist(
            RATIONAL,
            prod,
            {("a", "c"): Fraction(1, 4), ("a", "d"): Fraction(3, 4)},
        )
    )
    k1 = conditional(j, wrt="left")
    cols = {lab: k1.column(lab) for lab in k1.dom.labels}
    cols["b"] = dirac(RATIONAL, CD, "d")
    k2 = Kernel(RATIONAL, k1.dom, k1.cod, cols)
    d = doubling(j, given="left")
    got = {a: dict(state_dist(d).weights) for a in j.dom.labels}
    for k in (k1, k2):
        oracle = doubling_oracle(j, k, "left")
        assert got[()] == oracle[()]


def test_doubling_given_right():
    for i in range(10):
        r = corpus.rng(f"doubling-right/{i}")
        a = corpus.labeled_set("a", 2)
        x = corpus.labeled_set("x", 2)
        y = corpus.labeled_set("y", 2)
        f = corpus.random_kernel(r, a, product_set(x, y))
        d = doubling(f, given="right")
        k = conditional(f, wrt="right")
        oracle = doubling_oracle(f, k, "right")
        for al in a.labels:
            assert dict(d.column(al).weights) == oracle[al]


def test_is_deterministic_given():
    g = from_function(RATIONAL, AB, CD, lambda a: "c" if a == "a" else "d")
    f = compose(tensor(identity(RATIONAL, AB), g), copy(RATIONAL, AB))
    assert is_deterministic_given(f, given="left")
    noisy = compose(
        tensor(identity(RATIONAL, AB), from_function(RATIONAL, AB, CD, lambda a: "c")),
        copy(RATIONAL, AB),
    )
    assert is_deterministic_given(noisy, given="left")
    r = corpus.rng("det-given")
    coin = Kernel(
        RATIONAL,
        AB,
        CD,
        {a: uniform(RATIONAL, CD) for a in AB.labels},
    )
    fr = compose(tensor(identity(RATIONAL, AB), coin), copy(RATIONAL, AB))
    assert not is_deterministic_given(fr, given="left")


def test_is_deterministic_given_unit_reduces_to_deterministic():
    unit_cd = product_set(unit_set(), CD)
    for det in (True, False):
        if det:
            f = from_function(RATIONAL, AB, CD, lambda a: "c")
        else:
            f = Kernel(RATIONAL, AB, CD, {a: uniform(RATIONAL, CD) for a in AB.labels})
        lifted = Kernel(RATIONAL, AB, unit_cd,
                        {a: FinDist(RATIONAL, unit_cd, f.column(a).weights) for a in AB.labels})
        assert is_deterministic_given(lifted, given="left") == is_deterministic(f)


def test_partial_adjunct_independent_factors():
    p = FinDist(RATIONAL, AB, {"a": Fraction(1, 3), "b": Fraction(2, 3)})
    q = FinDist(RATIONAL, CD, {"c": Fraction(1, 4), "d": Fraction(3, 4)})
    j = state(product(p, q))
    adj = partial_adjunct(j)
    pts = split_set(adj.cod)[1].labels
    assert pts == (point_of(q),)
    got = state_dist(adj)
    for x in AB.labels:
        assert got.weight((x, point_of(q))) == p.weight(x)


def test_partial_adjunct_recovers_and_is_deterministic_given():
    for i in range(15):
        r = corpus.rng(f"adjunct/{i}")
        a = corpus.labeled_set("a", r.choice([1, 2]))
        x = corpus.labeled_set("x", 2)
        y = corpus.labeled_set("y", 2)
        f = corpus.random_kernel(r, a, product_set(x, y))
        adj = partial_adjunct(f)
        pts = list(split_set(adj.cod)[1].labels)
        xset = split_set(adj.cod)[0]
        recovered = compose(tensor(identity(RATIONAL, xset), samp_on(pts)), adj)
        assert recovered == f
        assert is_deterministic_given(adj, given="left")


def test_partial_adjunct_rod_points_are_posteriors(rod_f, rod_m):
    x = rod_f.cod
    jt = joint_of(rod_m, rod_f)  # Theta x X
    jx = compose(swap(RATIONAL, THETA, x), jt)  # X x Theta
    adj = partial_adjunct(jx)
    pts = {pt.text() for pt in split_set(adj.cod)[1].labels}
    assert pts == {"8/13,5/13", "1/11,10/11"}


def test_sampling_cancellation_rational_iff():
    from semistoch import point_of as pof

    for i in range(30):
        r = corpus.rng(f"cancel/{i}")
        a = corpus.labeled_set("a", r.choice([2, 3]))
        x = corpus.labeled_set("x", 2)
        f = corpus.random_kernel(r, a, x)
        if i % 3 == 0:
            g = f
        elif i % 3 == 1:
            cols = {al: f.column(al) for al in a.labels}
            cols[a.labels[-1]] = corpus.random_dist(r, x)
            g = Kernel(RATIONAL, a, x, cols)
        else:
            g = corpus.random_kernel(r, a, x)
        m = corpus.random_prior(r, a)
        points = []
        for k in (f, g):
            for al in a.labels:
                pt = pof(k.column(al))
                if pt not in points:
                    points.append(pt)
        pset = FiniteSet(sorted(points))
        u = from_function(RATIONAL, a, pset, lambda al: pof(f.column(al)))
        v = from_function(RATIONAL, a, pset, lambda al: pof(g.column(al)))
        samp = samp_on(list(pset.labels))
        assert compose(samp, u) == f and compose(samp, v) == g
        assert ase(u, v, m) == ase(f, g, m)


def test_sampling_cancellation_fails_on_trilattice_witness():
    # deterministic point-kernels that disagree, yet sample to a.s.-equal kernels
    x = AB
    d_a = dirac(TRILATTICE, x, "a")
    f_b = FinDist(TRILATTICE, x, {"a": TRI_EPS, "b": TRI_ONE})
    g_b = FinDist(TRILATTICE, x, {"a": TRI_ONE, "b": TRI_EPS})
    pset = FiniteSet([d_a, f_b, g_b])
    fs = from_function(TRILATTICE, x, pset, lambda al: d_a if al == "a" else f_b)
    gs = from_function(TRILATTICE, x, pset, lambda al: d_a if al == "a" else g_b)
    samp = Kernel(TRILATTICE, pset, x, {d: d for d in pset.labels})
    p = state(FinDist(TRILATTICE, x, {"a": TRI_ONE, "b": TRI_EPS}))
    f = compose(samp, fs)
    g = compose(samp, gs)
    assert dict(f.column("b").weights) == {"a": TRI_EPS, "b": TRI_ONE}
    assert not ase(fs, gs, p)
    # sampling collapses the difference because eps*eps = eps
    assert ase(f, g, p)
