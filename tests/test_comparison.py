from fractions import Fraction

import pytest

from semistoch import (
    FinDist,
    FiniteSet,
    Kernel,
    RATIONAL,
    WitnessError,
    ase,
    compose,
    conditional_independence_witness,
    copy,
    dirac,
    find_garbling,
    find_garbling_as,
    find_garbling_bayes,
    from_function,
    identity,
    marginalize,
    state,
    sufficiency_witness,
    tensor,
    uniform,
    uniform_prior,
    verify_conditional_independence,
    verify_sufficiency,
)

import corpus

AB = FiniteSet(["a", "b"])
CD = FiniteSet(["c", "d"])


def test_rod_garbling_found_and_bundled_witness(rod_f, rod_g, rod_c):
    c = find_garbling(rod_f, rod_g)
    assert c is not None
    assert compose(c, rod_f) == rod_g
    # the hand-crafted post-processing from the experiment file works too
    assert compose(rod_c, rod_f) == rod_g


def test_rod_reverse_direction_infeasible(rod_f, rod_g):
    assert find_garbling(rod_g, rod_f) is None


def test_solver_assignment_is_verified_before_use(monkeypatch, rod_f, rod_g, rod_m):
    import semistoch.comparison as comparison

    # nonnegative but not a solution: every channel weight is one
    monkeypatch.setattr(comparison, "find_feasible",
                        lambda system: {name: Fraction(1) for name in system.variables})
    with pytest.raises(WitnessError):
        find_garbling(rod_f, rod_g)
    with pytest.raises(WitnessError):
        find_garbling_as(rod_f, rod_g, rod_m)


def test_self_garbling_always_exists():
    r = corpus.rng("cmp-self")
    theta = corpus.labeled_set("t", 3)
    x = corpus.labeled_set("x", 3)
    f = corpus.random_kernel(r, theta, x)
    c = find_garbling(f, f)
    assert c is not None
    assert compose(c, f) == f


def test_uninformative_vs_identity_infeasible():
    theta = AB
    f = from_function(RATIONAL, theta, CD, lambda t: "c")
    g = identity(RATIONAL, theta)
    assert find_garbling(f, g) is None


def test_constructed_garblings_are_found():
    for i in range(25):
        r = corpus.rng(f"cmp-constructed/{i}")
        theta = corpus.labeled_set("t", r.choice([2, 3]))
        x = corpus.labeled_set("x", r.choice([2, 3]))
        y = corpus.labeled_set("y", r.choice([2, 3]))
        f = corpus.random_kernel(r, theta, x, den=2)
        c0 = corpus.random_kernel(r, x, y, den=4)
        g = compose(c0, f)
        c = find_garbling(f, g)
        assert c is not None
        assert compose(c, f) == g


def test_as_mode_sees_only_the_support():
    theta = AB
    y = CD
    f = from_function(RATIONAL, theta, FiniteSet(["x"]), lambda t: "x")
    g = from_function(RATIONAL, theta, y, lambda t: "c" if t == "a" else "d")
    # plain: c o f has equal columns, g does not
    assert find_garbling(f, g) is None
    m = state(dirac(RATIONAL, theta, "a"))
    c = find_garbling_as(f, g, m)
    assert c is not None
    assert ase(compose(c, f), g, m)
    assert compose(c, f) != g


def test_as_mode_with_dirac_prior_matches_single_column():
    r = corpus.rng("cmp-dirac-prior")
    theta = corpus.labeled_set("t", 3)
    x = corpus.labeled_set("x", 2)
    y = corpus.labeled_set("y", 3)
    f = corpus.random_kernel(r, theta, x)
    g = corpus.random_kernel(r, theta, y)
    m = state(dirac(RATIONAL, theta, "t2"))
    c = find_garbling_as(f, g, m)
    assert c is not None
    assert ase(compose(c, f), g, m)


def test_identity_garbles_off_support_differences():
    theta = FiniteSet(["t1", "t2", "t3"])
    x = CD
    r = corpus.rng("cmp-offsupp")
    f = corpus.random_kernel(r, theta, x)
    cols = {t: f.column(t) for t in theta.labels}
    cols["t3"] = corpus.random_dist(r, x)
    g = Kernel(RATIONAL, theta, x, cols)
    m = state(
        FinDist(
            RATIONAL,
            theta,
            {"t1": Fraction(1, 2), "t2": Fraction(1, 2), "t3": Fraction(0)},
        )
    )
    c = find_garbling_as(f, g, m)
    assert c is not None
    assert ase(compose(c, f), g, m)


def test_full_support_as_matches_plain_verdict():
    for i in range(20):
        r = corpus.rng(f"cmp-fullsupp/{i}")
        inst = corpus.bss_instance(i)
        m = uniform_prior(inst.theta)
        plain = find_garbling(inst.f, inst.g)
        as_ = find_garbling_as(inst.f, inst.g, m)
        assert (plain is None) == (as_ is None)


def test_bayes_mode_is_uniform_as_mode():
    for i in range(30):
        inst = corpus.bss_instance(1000 + i)
        plain = find_garbling(inst.f, inst.g)
        bayes = find_garbling_bayes(inst.f, inst.g)
        assert (plain is None) == (bayes is None)
        if bayes is not None:
            assert compose(bayes, inst.f) == inst.g


def test_plain_garbling_implies_as_garbling_any_prior():
    for i in range(20):
        r = corpus.rng(f"cmp-mono/{i}")
        inst = corpus.bss_instance(2 * i)  # even indices are constructed feasible
        assert inst.constructed
        c = find_garbling(inst.f, inst.g)
        assert c is not None
        m = corpus.random_prior(r, inst.theta)
        c_as = find_garbling_as(inst.f, inst.g, m)
        assert c_as is not None
        assert ase(compose(c_as, inst.f), inst.g, m)


def test_informativeness_is_transitive():
    r = corpus.rng("cmp-transitive")
    theta = corpus.labeled_set("t", 3)
    x = corpus.labeled_set("x", 3)
    y = corpus.labeled_set("y", 2)
    z = corpus.labeled_set("z", 2)
    f = corpus.random_kernel(r, theta, x, den=2)
    g = compose(corpus.random_kernel(r, x, y, den=2), f)
    k = compose(corpus.random_kernel(r, y, z, den=2), g)
    c1 = find_garbling(f, g)
    c2 = find_garbling(g, k)
    assert c1 is not None and c2 is not None
    chained = compose(c2, c1)
    assert compose(chained, f) == k


def test_sufficiency_witness_shape_and_equation(rod_f, rod_g, rod_c, rod_m):
    h, alpha = sufficiency_witness(rod_f, rod_g, rod_c, rod_m)
    report = verify_sufficiency(h, alpha, rod_f, rod_g, rod_m)
    assert report == {
        "factorizes": True,
        "left_marginal": True,
        "right_marginal_as": True,
    }
    # h = (id (x) c) o copy o f, columns pair x with c(.|x)
    x = rod_f.cod
    expect = compose(compose(tensor(identity(RATIONAL, x), rod_c), copy(RATIONAL, x)), rod_f)
    assert h == expect
    assert marginalize(h, "left") == rod_f


def test_sufficiency_witness_identity_garbling():
    r = corpus.rng("suff-id")
    theta = corpus.labeled_set("t", 2)
    x = corpus.labeled_set("x", 3)
    f = corpus.random_kernel(r, theta, x)
    m = corpus.random_prior(r, theta)
    h, alpha = sufficiency_witness(f, f, identity(RATIONAL, x), m)
    assert h == compose(copy(RATIONAL, x), f)
    report = verify_sufficiency(h, alpha, f, f, m)
    assert all(report.values())


def test_sufficiency_witness_rejects_bad_garbling(rod_f, rod_g, rod_m):
    bad = from_function(RATIONAL, rod_f.cod, rod_g.cod, lambda x: "pass")
    with pytest.raises(WitnessError):
        sufficiency_witness(rod_f, rod_g, bad, rod_m)


def test_conditional_independence_witness_rod(rod_f, rod_g, rod_c, rod_m):
    h, _ = sufficiency_witness(rod_f, rod_g, rod_c, rod_m)
    w = conditional_independence_witness(h, rod_m)
    report = verify_conditional_independence(w, rod_f, rod_g, rod_m)
    assert report == {
        "prior_marginal": True,
        "chain_factorization": True,
        "observation_part": True,
        "outcome_part": True,
    }
    # extracted post-processing closes the loop back to a garbling
    assert ase(compose(w.cprime, rod_f), rod_g, rod_m)


def test_conditional_independence_witness_independent_legs():
    r = corpus.rng("ci-indep")
    theta = corpus.labeled_set("t", 2)
    x = corpus.labeled_set("x", 2)
    y = corpus.labeled_set("y", 2)
    f = corpus.random_kernel(r, theta, x)
    m = corpus.random_prior(r, theta)
    q = corpus.random_dist(r, y)
    cconst = Kernel(RATIONAL, x, y, {xl: q for xl in x.labels})
    g = compose(cconst, f)
    h, _ = sufficiency_witness(f, g, cconst, m)
    w = conditional_independence_witness(h, m)
    report = verify_conditional_independence(w, f, g, m)
    assert all(report.values())


def test_conditional_independence_detects_direct_dependence():
    # Y drawn from Theta directly, not through X: the chain condition fails
    theta = AB
    x = FiniteSet(["x"])
    y = CD
    f = from_function(RATIONAL, theta, x, lambda t: "x")
    g = from_function(RATIONAL, theta, y, lambda t: "c" if t == "a" else "d")
    h = compose(
        tensor(f, g),
        copy(RATIONAL, theta),
    )
    m = state(uniform(RATIONAL, theta))
    w = conditional_independence_witness(h, m)
    report = verify_conditional_independence(w, f, g, m)
    assert report["prior_marginal"]
    assert report["observation_part"]
    assert report["outcome_part"]
    assert not report["chain_factorization"]


def test_sufficiency_three_conditions_agree_on_sample():
    agree = 0
    for i in range(40):
        inst = corpus.bss_instance(3000 + i)
        c = find_garbling_as(inst.f, inst.g, inst.m)
        if c is None:
            continue
        agree += 1
        h, alpha = sufficiency_witness(inst.f, inst.g, c, inst.m)
        assert all(verify_sufficiency(h, alpha, inst.f, inst.g, inst.m).values())
        w = conditional_independence_witness(h, inst.m)
        assert all(verify_conditional_independence(w, inst.f, inst.g, inst.m).values())
        assert ase(compose(w.cprime, inst.f), inst.g, inst.m)
    assert agree >= 10  # the constructed half guarantees plenty of feasible cases
