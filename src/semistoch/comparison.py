"""Comparison of experiments by garbling, and the sufficiency equivalence.

An experiment is a kernel out of a common hypothesis set.  One experiment
is at least as informative as another when some stochastic post-processing
(a garbling) converts it into the other, either exactly or almost surely
with respect to a prior.  Witness synthesis reduces to exact rational
linear feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from . import findist as fd
from .conditioning import ase, conditional
from .errors import CapabilityError, ShapeError, WitnessError
from .feasibility import LinearSystem, find_feasible, verify
from .findist import FinDist, FiniteSet
from .kernel import (Kernel, compose, copy, discard, identity, joint, marginalize,
                     state, state_dist, tensor)
from .semiring import RATIONAL, same_semiring


def _require_rational(*kernels: Kernel) -> None:
    for k in kernels:
        if k.semiring.name != "rational":
            raise CapabilityError("witness synthesis works over rational weights")


def _check_experiments(f: Kernel, g: Kernel) -> None:
    same_semiring(f.semiring, g.semiring)
    if f.dom != g.dom:
        raise ShapeError("experiments must share the hypothesis set")


def _var(y, x) -> str:
    return f"c[{y!r}|{x!r}]"


def garbling_system(f: Kernel, g: Kernel, support) -> LinearSystem:
    """Feasibility system for a channel c with (c . f)(y|t) = g(y|t) on support.

    One variable per (output, input) pair of the channel, one normalization
    row per input, and one transfer row per (output, hypothesis in support).
    """
    x_labels, y_labels = f.cod.labels, g.cod.labels
    names = [[_var(y, x) for y in y_labels] for x in x_labels]
    system = LinearSystem(name for row in names for name in row)
    one, zero = Fraction(1), Fraction(0)
    for row in names:
        system.add_equality(dict.fromkeys(row, one), one)
    for theta in support:
        f_col, g_col = f.column(theta).weights, g.column(theta).weights
        for j, y in enumerate(y_labels):
            system.add_equality({row[j]: f_col.get(x, zero) for row, x in zip(names, x_labels)},
                                g_col.get(y, zero))
    return system


def solve_channel(system: LinearSystem, dom: FiniteSet, cod: FiniteSet) -> Optional[Kernel]:
    """The rational channel dom -> cod that solves system, or None if none does.

    The system's variables are the channel weights, input-major: the weight
    of the j-th output at the i-th input is variable ``i * len(cod) + j``.
    The solver's assignment is checked against the system exactly before
    it is read back.
    """
    if len(system.variables) != len(dom) * len(cod):
        raise ShapeError("channel system needs one variable per (input, output) pair")
    solution = find_feasible(system)
    if solution is None:
        return None
    if not verify(system, solution):
        raise WitnessError("solver returned an assignment that fails its system")
    values = [solution[name] for name in system.variables]
    n = len(cod)
    return Kernel(RATIONAL, dom, cod,
                  {x: FinDist(RATIONAL, cod, dict(zip(cod.labels, values[i * n:(i + 1) * n])))
                   for i, x in enumerate(dom.labels)})


def _solve_garbling(f: Kernel, g: Kernel, support) -> Optional[Kernel]:
    return solve_channel(garbling_system(f, g, support), f.cod, g.cod)


def find_garbling(f: Kernel, g: Kernel) -> Optional[Kernel]:
    """A channel c with c . f == g exactly, or None if no such channel exists."""
    _check_experiments(f, g)
    _require_rational(f, g)
    return _solve_garbling(f, g, f.dom.labels)


def find_garbling_as(f: Kernel, g: Kernel, m: Kernel) -> Optional[Kernel]:
    """A channel c with c . f == g almost surely wrt the prior m, or None."""
    _check_experiments(f, g)
    _require_rational(f, g, m)
    prior = state_dist(m)
    if prior.base != f.dom:
        raise ShapeError("prior must be a state on the hypothesis set")
    return _solve_garbling(f, g, prior.support)


def uniform_prior(theta: FiniteSet) -> Kernel:
    return state(fd.uniform(RATIONAL, theta))


def find_garbling_bayes(f: Kernel, g: Kernel) -> Optional[Kernel]:
    """Prior-free Bayesian comparison via the full-support uniform prior.

    With full support, almost-sure equality collapses to exact equality, so
    this has the same verdict as find_garbling.
    """
    _check_experiments(f, g)
    _require_rational(f, g)
    return find_garbling_as(f, g, uniform_prior(f.dom))


def sufficiency_witness(f: Kernel, g: Kernel, c: Kernel, m: Kernel) -> Tuple[Kernel, Kernel]:
    """Package a garbling as a sufficient-statistic witness.

    Given c with c . f == g almost surely wrt m, returns (h, alpha) where
    ``h = (id (x) c) . copy . f`` is a joint experiment with marginals f and
    (almost surely) g, and ``alpha = (id (x) c) . copy`` reconstructs h from
    its own first marginal: ``h = alpha . marginal_left(h)``.
    """
    _check_experiments(f, g)
    if not ase(compose(c, f), g, m):
        raise WitnessError("channel does not convert f into g almost surely")
    sr = f.semiring
    x_set = f.cod
    alpha = compose(tensor(identity(sr, x_set), c), copy(sr, x_set))
    h = compose(alpha, f)
    return h, alpha


def verify_sufficiency(h: Kernel, alpha: Kernel, f: Kernel, g: Kernel, m: Kernel) -> Dict[str, bool]:
    """Check the three sufficient-statistic equations exactly.

    ``factorizes``: alpha applied to h's first marginal rebuilds h.
    ``left_marginal``: h's first marginal is f on the nose.
    ``right_marginal_as``: h's second marginal is g almost surely wrt m.
    """
    h_left = marginalize(h, "left")
    h_right = marginalize(h, "right")
    return {
        "factorizes": compose(alpha, h_left) == h,
        "left_marginal": h_left == f,
        "right_marginal_as": ase(h_right, g, m),
    }


@dataclass(frozen=True)
class CondIndepWitness:
    """Joint state over hypothesis (x) observation (x) outcome, factored.

    ``mu`` is the joint; ``n`` its observation marginal; ``k`` and ``cprime``
    condition the hypothesis and the outcome on the observation.  When mu
    displays conditional independence, mu rebuilds from (n, k, cprime) by
    copying the observation three ways.
    """

    mu: Kernel
    n: Kernel
    k: Kernel
    cprime: Kernel


def conditional_independence_witness(h: Kernel, m: Kernel) -> CondIndepWitness:
    """Build the joint state of (m, h) and its chain decomposition.

    ``h : Theta -> X (x) Y`` and a prior m on Theta give
    ``mu = (id (x) h) . copy . m`` over Theta (x) X (x) Y; the decomposition
    conditions everything on X.
    """
    same_semiring(h.semiring, m.semiring)
    theta = h.dom
    if state_dist(m).base != theta:
        raise ShapeError("prior must be a state on the domain of h")
    mu = joint(m, h)
    mu_xy = marginalize(mu, "right")
    n = marginalize(mu_xy, "left")
    mu_tx = joint(m, marginalize(h, "left"))
    k = conditional(mu_tx, wrt="right")
    cprime = conditional(mu_xy, wrt="left")
    return CondIndepWitness(mu=mu, n=n, k=k, cprime=cprime)


def verify_conditional_independence(w: CondIndepWitness, f: Kernel, g: Kernel,
                                    m: Kernel) -> Dict[str, bool]:
    """Check the four conditions that make mu a valid comparison witness.

    (a) hypothesis marginal of mu is the prior; (b) mu factors as a chain
    through the observation; (c) the hypothesis-observation part of mu is
    the joint of (m, f); (d) the hypothesis-outcome part is the joint of
    (m, g).
    """
    sr = w.mu.semiring
    theta = f.dom
    x_set, y_set = f.cod, g.cod

    mu_theta = compose(tensor(identity(sr, theta),
                              tensor(discard(sr, x_set), discard(sr, y_set))), w.mu)
    cond_a = mu_theta == m

    triple = compose(tensor(copy(sr, x_set), identity(sr, x_set)), copy(sr, x_set))
    rebuilt = compose(tensor(w.k, tensor(identity(sr, x_set), w.cprime)),
                      compose(triple, w.n))
    cond_b = rebuilt == w.mu

    mu_tx = compose(tensor(identity(sr, theta),
                           tensor(identity(sr, x_set), discard(sr, y_set))), w.mu)
    cond_c = mu_tx == joint(m, f)

    mu_ty = compose(tensor(identity(sr, theta),
                           tensor(discard(sr, x_set), identity(sr, y_set))), w.mu)
    cond_d = mu_ty == joint(m, g)

    return {"prior_marginal": cond_a, "chain_factorization": cond_b,
            "observation_part": cond_c, "outcome_part": cond_d}
