"""The two dilation maps, against reference versions that rebuild per use.

``garbling_to_dilation`` and ``dilation_to_garbling`` build each
experiment's posterior assignment ``sharp(bayesian_inverse(k, m))`` once
and derive the standard measure and the recovery map from it.  The
reference functions below are the plain forms, which build the posterior
assignment again for every standard experiment, standard measure and
recovery map they use.  Both must give equal kernels, and each map makes
four Bayesian inversions per call.
"""

import pytest

import semistoch.blackwell as blackwell
from semistoch import (RATIONAL, Dilation, WitnessError, ase, bayesian_inverse, compose,
                       dilation_to_garbling, find_dilation, find_garbling_as, from_function,
                       garbling_to_dilation, identity, is_dilation, meta_of_state,
                       recovery_map, sharp, standard_experiment, standard_measure, state,
                       transport)
from semistoch.blackwell import _extend_kernel, _restrict

import corpus


def reference_standard_experiment(f, m):
    return compose(sharp(bayesian_inverse(f, m)), f)


def reference_standard_measure(f, m):
    return meta_of_state(compose(reference_standard_experiment(f, m), m))


def reference_recovery_map(f, m):
    return bayesian_inverse(sharp(bayesian_inverse(f, m)), compose(f, m))


def reference_garbling_to_dilation(c, f, g, m):
    if not ase(compose(c, f), g, m):
        raise WitnessError("channel does not convert f into g almost surely")
    f_hat = reference_standard_experiment(f, m)
    c_hat = compose(sharp(bayesian_inverse(g, m)), compose(c, reference_recovery_map(f, m)))
    t_dag = bayesian_inverse(c_hat, compose(f_hat, m))
    return Dilation((point, t_dag.column(point))
                    for point in reference_standard_measure(g, m).support)


def reference_dilation_to_garbling(t, f, g, m):
    g_hat_m = reference_standard_measure(g, m)
    f_hat_m = reference_standard_measure(f, m)
    if not is_dilation(t, g_hat_m):
        raise WitnessError("rows do not average back to their sources")
    if transport(t, g_hat_m) != f_hat_m:
        raise WitnessError("dilation does not transport the standard measures")
    t_k = _restrict(t, g_hat_m)
    t_dag = bayesian_inverse(t_k, state(g_hat_m))
    sharp_f_dag = sharp(bayesian_inverse(f, m))
    r_g = reference_recovery_map(g, m)
    lifted = _extend_kernel(t_dag, sharp_f_dag.cod)
    include = from_function(RATIONAL, t_k.dom, r_g.dom, lambda p: p)
    c = compose(r_g, compose(include, compose(lifted, sharp_f_dag)))
    if not ase(compose(c, f), g, m):
        raise WitnessError("extracted channel failed verification")
    return c


def assert_maps_match(c, f, g, m):
    for k in (f, g):
        assert standard_experiment(k, m) == reference_standard_experiment(k, m)
        assert standard_measure(k, m) == reference_standard_measure(k, m)
        assert recovery_map(k, m) == reference_recovery_map(k, m)
    t = garbling_to_dilation(c, f, g, m)
    assert t == reference_garbling_to_dilation(c, f, g, m)
    found = find_dilation(standard_measure(f, m), standard_measure(g, m))
    for dilation in (t, found):
        assert (dilation_to_garbling(dilation, f, g, m)
                == reference_dilation_to_garbling(dilation, f, g, m))


def test_rod_maps_match_the_reference(rod_c, rod_f, rod_g, rod_m):
    assert_maps_match(rod_c, rod_f, rod_g, rod_m)
    assert_maps_match(identity(RATIONAL, rod_f.cod), rod_f, rod_f, rod_m)


def test_corpus_maps_match_the_reference():
    matched = 0
    for inst in corpus.bss_corpus(40):
        c = find_garbling_as(inst.f, inst.g, inst.m)
        if c is None:
            continue
        try:
            assert_maps_match(c, inst.f, inst.g, inst.m)
        except AssertionError as exc:
            raise AssertionError(f"{inst.tag}: maps differ") from exc
        matched += 1
    assert matched >= 20


@pytest.fixture
def inversions(monkeypatch):
    """Count the Bayesian inversions the dilation maps make."""
    calls = []

    def counted(f, prior):
        calls.append(f)
        return bayesian_inverse(f, prior)

    monkeypatch.setattr(blackwell, "bayesian_inverse", counted)
    return calls


def test_each_map_inverts_four_times_on_the_rod(inversions, rod_c, rod_f, rod_g, rod_m):
    t = garbling_to_dilation(rod_c, rod_f, rod_g, rod_m)
    assert len(inversions) == 4
    inversions.clear()
    dilation_to_garbling(t, rod_f, rod_g, rod_m)
    assert len(inversions) == 4
