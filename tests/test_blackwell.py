from decimal import Decimal
from fractions import Fraction

import pytest

from semistoch import (
    Dilation,
    ShapeError,
    FinDist,
    FiniteSet,
    Kernel,
    MetaDist,
    Point,
    RATIONAL,
    WitnessError,
    ase,
    barycenter,
    bayesian_inverse,
    bss_check,
    compose,
    derive_partial_evaluation,
    dilation_to_garbling,
    find_dilation,
    find_garbling,
    flatten,
    from_function,
    garbling_to_dilation,
    identity,
    is_dilation,
    meta_of_state,
    point_of,
    recovery_map,
    sharp,
    standard_experiment,
    standard_measure,
    state,
    transport,
    uniform,
    uniform_prior,
    verify_samp_is_bayesian_inverse,
)

import corpus

THETA = ("safe", "faulty")
P_SHARED = Point(THETA, (Fraction(8, 13), Fraction(5, 13)))
P_FAIL_F = Point(THETA, (Fraction(1, 11), Fraction(10, 11)))
P_FAIL_G = Point(THETA, (Fraction(28, 83), Fraction(55, 83)))
HALF_POINT = Point(THETA, (Fraction(1, 2), Fraction(1, 2)))


def rod_dilation():
    return Dilation(
        (
            (
                P_FAIL_G,
                MetaDist.from_pairs(
                    [(P_SHARED, Fraction(39, 83)), (P_FAIL_F, Fraction(44, 83))]
                ),
            ),
            (P_SHARED, MetaDist.from_pairs([(P_SHARED, Fraction(1))])),
        )
    )


def identity_dilation(md: MetaDist) -> Dilation:
    return Dilation(
        tuple((pt, MetaDist.from_pairs([(pt, Fraction(1))])) for pt in md.support)
    )


def test_metadist_merges_duplicate_points():
    md = MetaDist.from_pairs(
        [(P_SHARED, Fraction(1, 4)), (P_SHARED, Fraction(1, 4)), (P_FAIL_F, Fraction(1, 2))]
    )
    assert md.weight(P_SHARED) == Fraction(1, 2)
    assert len(md.support) == 2


def test_metadist_validation():
    with pytest.raises(ShapeError):
        MetaDist.from_pairs([(P_SHARED, Fraction(1, 2))])
    with pytest.raises(ShapeError):
        MetaDist.from_pairs([(P_SHARED, Fraction(3, 2)), (P_FAIL_F, Fraction(-1, 2))])
    other_base = Point(("x", "y"), (Fraction(1), Fraction(0)))
    with pytest.raises(ShapeError):
        MetaDist.from_pairs([(P_SHARED, Fraction(1, 2)), (other_base, Fraction(1, 2))])


@pytest.mark.parametrize("weight", [0.5, "1/2", Decimal("0.5")],
                         ids=["float", "string", "decimal"])
def test_metadist_from_pairs_rejects_inexact_weights(weight):
    with pytest.raises(ShapeError):
        MetaDist.from_pairs([(P_SHARED, weight), (P_FAIL_F, weight)])


def test_metadist_weight_off_support_is_zero(rod_f, rod_m):
    md = standard_measure(rod_f, rod_m)
    assert md.weight(P_FAIL_G) == 0
    assert md.weight(HALF_POINT) == 0


def test_standard_measure_is_a_findist(rod_f, rod_m):
    md = standard_measure(rod_f, rod_m)
    assert isinstance(md, FinDist)
    assert md.base.labels == md.support == (P_FAIL_F, P_SHARED)
    assert md.theta == THETA
    assert md == FinDist(RATIONAL, FiniteSet([P_FAIL_F, P_SHARED]), dict(md.entries))


def test_dilation_rejects_a_repeated_source():
    row = MetaDist.from_pairs([(P_SHARED, Fraction(1))])
    with pytest.raises(ShapeError):
        Dilation(((P_SHARED, row), (P_SHARED, row)))


def test_dilation_sorts_its_sources():
    t = rod_dilation()
    assert Dilation(reversed(t.rows)) == t
    assert t.dom.labels == (P_FAIL_G, P_SHARED)
    assert t.cod.labels == (P_FAIL_F, P_SHARED)


def test_find_dilation_is_a_kernel(rod_f, rod_g, rod_m):
    t = find_dilation(standard_measure(rod_f, rod_m), standard_measure(rod_g, rod_m))
    assert isinstance(t, Kernel)
    assert t == rod_dilation()


def test_transport_is_composition(rod_f, rod_g, rod_m):
    # Kleisli composition of the dilation with the state of ghat.
    pairs = [(rod_f, rod_g, rod_m)]
    pairs += [(inst.f, inst.g, inst.m) for inst in corpus.bss_corpus(200)]
    feasible = 0
    for f, g, m in pairs:
        fhat, ghat = standard_measure(f, m), standard_measure(g, m)
        t = find_dilation(fhat, ghat)
        if t is None:
            continue
        feasible += 1
        pushed = compose(t, state(FinDist(RATIONAL, t.dom, ghat.weights)))
        assert MetaDist.from_pairs(pushed.column(()).items()) == transport(t, ghat) == fhat
    assert feasible > 100


def test_standard_experiment_rod_points(rod_f, rod_m):
    fhat = standard_experiment(rod_f, rod_m)
    pts = set(fhat.cod.labels)
    assert pts == {P_SHARED, P_FAIL_F}
    # the kernel sends each hypothesis to its posterior distribution
    assert fhat.weight(P_SHARED, "safe") == Fraction(24, 25)
    assert fhat.weight(P_FAIL_F, "safe") == Fraction(1, 25)


def test_standard_experiment_deterministic_injective():
    theta = FiniteSet(["t1", "t2"])
    x = FiniteSet(["x1", "x2"])
    f = from_function(RATIONAL, theta, x, lambda t: "x1" if t == "t1" else "x2")
    m = uniform_prior(theta)
    fhat = standard_experiment(f, m)
    vertices = {
        Point(("t1", "t2"), (Fraction(1), Fraction(0))),
        Point(("t1", "t2"), (Fraction(0), Fraction(1))),
    }
    assert set(fhat.cod.labels) == vertices
    from semistoch import is_deterministic

    assert is_deterministic(fhat)


def test_standard_experiment_uninformative_collapses_to_prior():
    theta = FiniteSet(["t1", "t2"])
    x = FiniteSet(["x"])
    f = from_function(RATIONAL, theta, x, lambda t: "x")
    m = state(FinDist(RATIONAL, theta, {"t1": Fraction(1, 3), "t2": Fraction(2, 3)}))
    fhat = standard_experiment(f, m)
    assert fhat.cod.labels == (Point(("t1", "t2"), (Fraction(1, 3), Fraction(2, 3))),)
    md = standard_measure(f, m)
    assert md.support == fhat.cod.labels
    assert md.weight(fhat.cod.labels[0]) == 1


def test_standard_measures_rod_exact(rod_f, rod_g, rod_m):
    fhat_m = standard_measure(rod_f, rod_m)
    assert fhat_m.support == (P_FAIL_F, P_SHARED)
    assert fhat_m.weight(P_SHARED) == Fraction(39, 50)
    assert fhat_m.weight(P_FAIL_F) == Fraction(11, 50)
    ghat_m = standard_measure(rod_g, rod_m)
    assert ghat_m.weight(P_SHARED) == Fraction(117, 200)
    assert ghat_m.weight(P_FAIL_G) == Fraction(83, 200)


def test_standard_measure_is_pushforward_of_prior(rod_f, rod_m):
    fhat = standard_experiment(rod_f, rod_m)
    assert meta_of_state(compose(fhat, rod_m)) == standard_measure(rod_f, rod_m)


def test_barycenter_basics():
    assert barycenter(MetaDist.from_pairs([(P_SHARED, Fraction(1))])) == P_SHARED
    v1 = Point(THETA, (Fraction(1), Fraction(0)))
    v2 = Point(THETA, (Fraction(0), Fraction(1)))
    md = MetaDist.from_pairs([(v1, Fraction(1, 2)), (v2, Fraction(1, 2))])
    assert barycenter(md) == HALF_POINT


def test_barycenter_of_standard_measure_is_prior(rod_f, rod_g, rod_m):
    assert barycenter(standard_measure(rod_f, rod_m)) == HALF_POINT
    assert barycenter(standard_measure(rod_g, rod_m)) == HALF_POINT
    for i in range(25):
        inst = corpus.bss_instance(4000 + i)
        md = standard_measure(inst.f, inst.m)
        assert barycenter(md) == point_of(
            __import__("semistoch").state_dist(inst.m)
        )


def test_is_dilation_rod_rows(rod_g, rod_m):
    ghat_m = standard_measure(rod_g, rod_m)
    t = rod_dilation()
    assert is_dilation(t, ghat_m)
    # 39/83 * 8/13 + 44/83 * 1/11 = 28/83 and 39/83 * 5/13 + 44/83 * 10/11 = 55/83
    assert barycenter(t.row(P_FAIL_G)) == P_FAIL_G


def test_is_dilation_rejects_perturbed_row(rod_g, rod_m):
    ghat_m = standard_measure(rod_g, rod_m)
    bad = Dilation(
        (
            (
                P_FAIL_G,
                MetaDist.from_pairs(
                    [
                        (P_SHARED, Fraction(39, 83) + Fraction(1, 1000)),
                        (P_FAIL_F, Fraction(44, 83) - Fraction(1, 1000)),
                    ]
                ),
            ),
            (P_SHARED, MetaDist.from_pairs([(P_SHARED, Fraction(1))])),
        )
    )
    assert not is_dilation(bad, ghat_m)


def test_dilation_coverage_gap_raises(rod_g, rod_m):
    ghat_m = standard_measure(rod_g, rod_m)
    partial = Dilation(((P_SHARED, MetaDist.from_pairs([(P_SHARED, Fraction(1))])),))
    with pytest.raises(WitnessError):
        is_dilation(partial, ghat_m)


def test_identity_dilation_is_dilation(rod_f, rod_m):
    md = standard_measure(rod_f, rod_m)
    t = identity_dilation(md)
    assert is_dilation(t, md)
    assert transport(t, md) == md


def test_transport_rod(rod_f, rod_g, rod_m):
    fhat_m = standard_measure(rod_f, rod_m)
    ghat_m = standard_measure(rod_g, rod_m)
    t = rod_dilation()
    assert transport(t, ghat_m) == fhat_m
    # mass onto the shared posterior: 117/200 + 83/200 * 39/83 = 39/50
    assert transport(t, ghat_m).weight(P_SHARED) == Fraction(39, 50)


def test_find_dilation_rod(rod_f, rod_g, rod_m):
    fhat_m = standard_measure(rod_f, rod_m)
    ghat_m = standard_measure(rod_g, rod_m)
    t = find_dilation(fhat_m, ghat_m)
    assert t is not None
    assert is_dilation(t, ghat_m)
    assert transport(t, ghat_m) == fhat_m
    # this instance has a unique dilation, the one from the worked example
    assert t.row(P_FAIL_G).weight(P_SHARED) == Fraction(39, 83)
    assert t.row(P_FAIL_G).weight(P_FAIL_F) == Fraction(44, 83)


def test_find_dilation_verifies_solver_assignment(monkeypatch, rod_f, rod_g, rod_m):
    import semistoch.comparison as comparison

    monkeypatch.setattr(comparison, "find_feasible",
                        lambda system: {name: Fraction(1) for name in system.variables})
    with pytest.raises(WitnessError):
        find_dilation(standard_measure(rod_f, rod_m), standard_measure(rod_g, rod_m))


def test_find_dilation_reverse_is_infeasible(rod_f, rod_g, rod_m):
    fhat_m = standard_measure(rod_f, rod_m)
    ghat_m = standard_measure(rod_g, rod_m)
    assert find_dilation(ghat_m, fhat_m) is None


def test_find_dilation_identity_case(rod_f, rod_m):
    md = standard_measure(rod_f, rod_m)
    t = find_dilation(md, md)
    assert t is not None
    assert is_dilation(t, md)
    assert transport(t, md) == md


def test_find_dilation_from_barycenter_delta(rod_f, rod_m):
    p_hat = standard_measure(rod_f, rod_m)
    q_hat = MetaDist.from_pairs([(HALF_POINT, Fraction(1))])
    t = find_dilation(p_hat, q_hat)
    assert t is not None
    assert t.row(HALF_POINT) == p_hat


def test_derive_partial_evaluation_rod(rod_f, rod_g, rod_m):
    fhat_m = standard_measure(rod_f, rod_m)
    ghat_m = standard_measure(rod_g, rod_m)
    t = rod_dilation()
    r = derive_partial_evaluation(t, ghat_m)
    assert flatten(r) == fhat_m
    assert MetaDist.from_pairs((barycenter(row), w) for row, w in r.items()) == ghat_m


def test_derive_partial_evaluation_identity(rod_f, rod_m):
    md = standard_measure(rod_f, rod_m)
    r = derive_partial_evaluation(identity_dilation(md), md)
    assert flatten(r) == md
    assert MetaDist.from_pairs((barycenter(row), w) for row, w in r.items()) == md


def test_recovery_map_rod(rod_f, rod_m):
    r = recovery_map(rod_f, rod_m)
    fhat = standard_experiment(rod_f, rod_m)
    assert ase(compose(r, fhat), rod_f, rod_m)


def test_recovery_map_special_shapes():
    theta = FiniteSet(["t1", "t2"])
    x = FiniteSet(["x1", "x2"])
    m = uniform_prior(theta)
    inj = from_function(RATIONAL, theta, x, lambda t: "x1" if t == "t1" else "x2")
    r = recovery_map(inj, m)
    assert ase(compose(r, standard_experiment(inj, m)), inj, m)
    const = from_function(RATIONAL, theta, x, lambda t: "x1")
    rc = recovery_map(const, m)
    assert rc.column(rc.dom.labels[0]) == dirac_like(const)


def dirac_like(const):
    return const.column(const.dom.labels[0])


def test_experiment_dominates_its_standard_experiment(rod_f, rod_m):
    # f is more informative than f-hat: post-processing by sharp(f-dagger)
    fhat = standard_experiment(rod_f, rod_m)
    c = sharp(bayesian_inverse(rod_f, rod_m))
    assert compose(c, rod_f) == fhat
    assert find_garbling(rod_f, fhat) is not None
    # and f-hat recovers f almost surely: equally informative given the prior
    r = recovery_map(rod_f, rod_m)
    assert ase(compose(r, fhat), rod_f, rod_m)


def test_garbling_to_dilation_rod(rod_f, rod_g, rod_c, rod_m):
    ghat_m = standard_measure(rod_g, rod_m)
    fhat_m = standard_measure(rod_f, rod_m)
    t = garbling_to_dilation(rod_c, rod_f, rod_g, rod_m)
    assert is_dilation(t, ghat_m)
    assert transport(t, ghat_m) == fhat_m


def test_garbling_to_dilation_identity(rod_f, rod_m):
    fhat_m = standard_measure(rod_f, rod_m)
    t = garbling_to_dilation(identity(RATIONAL, rod_f.cod), rod_f, rod_f, rod_m)
    assert is_dilation(t, fhat_m)
    assert transport(t, fhat_m) == fhat_m


def test_garbling_to_dilation_rejects_non_garbling(rod_f, rod_g, rod_m):
    bad = from_function(RATIONAL, rod_f.cod, rod_g.cod, lambda x: "pass")
    with pytest.raises(WitnessError):
        garbling_to_dilation(bad, rod_f, rod_g, rod_m)


def test_dilation_to_garbling_rod(rod_f, rod_g, rod_m):
    c = dilation_to_garbling(rod_dilation(), rod_f, rod_g, rod_m)
    assert ase(compose(c, rod_f), rod_g, rod_m)


def test_dilation_to_garbling_identity(rod_f, rod_m):
    md = standard_measure(rod_f, rod_m)
    c = dilation_to_garbling(identity_dilation(md), rod_f, rod_f, rod_m)
    assert ase(compose(c, rod_f), rod_f, rod_m)


def test_dilation_to_garbling_rejects_non_dilation(rod_f, rod_g, rod_m):
    ghat_m = standard_measure(rod_g, rod_m)
    rows = tuple(
        (pt, MetaDist.from_pairs([(ghat_m.support[0], Fraction(1))]))
        for pt in ghat_m.support
    )
    with pytest.raises(WitnessError):
        dilation_to_garbling(Dilation(rows), rod_f, rod_g, rod_m)


def test_bss_check_rod(rod_f, rod_g, rod_m):
    report = bss_check(rod_f, rod_g, rod_m)
    assert report.garbling_feasible and report.dilation_feasible
    assert report.agree
    assert report.full_support
    assert report.plain_garbling is not None
    assert compose(report.plain_garbling, rod_f) == rod_g


def test_bss_check_full_support_solves_the_garbling_once(monkeypatch, rod_f, rod_g, rod_m):
    import semistoch.comparison as comparison
    from semistoch.feasibility import find_feasible

    calls = []

    def counted(system):
        calls.append(system)
        return find_feasible(system)

    monkeypatch.setattr(comparison, "find_feasible", counted)
    report = bss_check(rod_f, rod_g, rod_m)
    assert report.full_support
    assert len(calls) == 2  # the almost-sure garbling and the dilation
    assert report.plain_garbling == report.garbling


def test_bss_check_infeasible_pair():
    theta = FiniteSet(["t1", "t2"])
    f = from_function(RATIONAL, theta, FiniteSet(["x"]), lambda t: "x")
    g = identity(RATIONAL, theta)
    report = bss_check(f, g, uniform_prior(theta))
    assert not report.garbling_feasible
    assert not report.dilation_feasible
    assert report.agree
    assert report.garbling is None and report.dilation is None


def test_bss_check_partial_support_prior():
    theta = FiniteSet(["t1", "t2", "t3"])
    r = corpus.rng("bss-partial")
    f = corpus.random_kernel(r, theta, FiniteSet(["x1", "x2"]))
    g = corpus.random_kernel(r, theta, FiniteSet(["y1", "y2"]))
    m = state(
        FinDist(
            RATIONAL,
            theta,
            {"t1": Fraction(1, 2), "t2": Fraction(1, 2), "t3": Fraction(0)},
        )
    )
    report = bss_check(f, g, m)
    assert not report.full_support
    assert report.plain_garbling is None
    assert report.agree


def test_verify_samp_is_bayesian_inverse(rod_f, rod_m):
    assert verify_samp_is_bayesian_inverse(rod_f, rod_m)
    theta = FiniteSet(["t1", "t2"])
    x = FiniteSet(["x1", "x2"])
    m = uniform_prior(theta)
    inj = from_function(RATIONAL, theta, x, lambda t: "x1" if t == "t1" else "x2")
    assert verify_samp_is_bayesian_inverse(inj, m)
    const = from_function(RATIONAL, theta, x, lambda t: "x1")
    assert verify_samp_is_bayesian_inverse(const, m)
