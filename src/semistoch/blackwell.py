"""Standard experiments and measures, dilations, and their equivalence.

The standard experiment of ``f`` against a prior sends each hypothesis to
the posterior point of the observation it generates; pushing the prior
through it gives the standard measure, a ``FinDist`` over posterior points
(an element of P(P(Theta))).  A dilation is a ``Kernel`` from posterior
points to distributions over posterior points whose rows average back to
their sources.  Transport along a dilation is composition, and the
barycenter is composition with ``samp``.  Informativeness between
experiments is mirrored by transport between standard measures; both
directions of that equivalence are constructed explicitly here, and
dilation synthesis reduces to exact feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple

from . import findist as fd
from .conditioning import Point, ase, bayesian_inverse, point_of, samp_on, sharp
from .errors import DistributionError, ShapeError, WitnessError
from .feasibility import LinearSystem
from .findist import FinDist, FiniteSet
from .kernel import Kernel, compose, copy, from_function, identity, state, state_dist, tensor
from .comparison import find_garbling_as, solve_channel
from .semiring import RATIONAL


class MetaDist(FinDist):
    """Rational distribution over posterior points that share a base.

    The base is the support in point order, so equal measures compare equal.
    """

    __slots__ = ()

    def __init__(self, weights: Mapping[Point, Fraction]):
        if len({point.base for point in weights}) > 1:
            raise ShapeError("points must share a base")
        super().__init__(RATIONAL, FiniteSet(sorted(weights)), weights)

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[Point, Fraction]]) -> MetaDist:
        """Merge repeated points and drop zero weights."""
        acc: Dict[Point, Fraction] = {}
        for point, weight in pairs:
            weight = RATIONAL.check(weight)
            if weight != 0:
                acc[point] = acc.get(point, Fraction(0)) + weight
        try:
            return MetaDist(acc)
        except DistributionError as exc:
            raise ShapeError(str(exc)) from exc

    @property
    def entries(self) -> Tuple[Tuple[Point, Fraction], ...]:
        return tuple(self.weights.items())

    @property
    def theta(self) -> tuple:
        """The hypothesis labels the points are distributions over."""
        return self.support[0].base

    def weight(self, point: Point) -> Fraction:
        return self.weights.get(point, Fraction(0))


def meta_of_state(s: Kernel) -> MetaDist:
    """Read a state over a point-labelled set as a meta-distribution."""
    dist = state_dist(s)
    if not all(isinstance(label, Point) for label in dist.support):
        raise ShapeError("state is not over posterior points")
    return MetaDist(dist.weights)


def barycenter(md: FinDist) -> Point:
    """Average of a distribution over points: composition with samp."""
    return point_of(state_dist(compose(samp_on(md.base.labels), state(md))))


class Dilation(Kernel):
    """Kernel from source points to distributions over target points.

    A dilation for a meta-distribution q assigns to every point in the
    support of q a row whose barycenter is that point; transporting q along
    the rows yields another meta-distribution over the same base.  The
    domain is the sorted set of sources, the codomain the sorted union of
    the row supports.
    """

    __slots__ = ()

    def __init__(self, rows: Iterable[Tuple[Point, FinDist]]):
        rows = tuple(rows)
        by_source = dict(rows)
        if len(by_source) != len(rows):
            raise ShapeError("duplicate source point")
        cod = FiniteSet(sorted({target for _, row in rows for target in row.support}))
        super().__init__(RATIONAL, FiniteSet(sorted(by_source)), cod,
                         {source: FinDist(RATIONAL, cod, row.weights)
                          for source, row in rows})

    @property
    def rows(self) -> Tuple[Tuple[Point, MetaDist], ...]:
        return tuple((source, self.row(source)) for source in self.dom.labels)

    def row(self, point: Point) -> MetaDist:
        if point not in self.dom:
            raise WitnessError(f"dilation has no row at {point!r}")
        return MetaDist(self.columns[point].weights)


def _restrict(t: Dilation, md: MetaDist) -> Dilation:
    """The rows of t at the support of md, a kernel out of md's base."""
    return Dilation((point, t.row(point)) for point in md.support)


def is_dilation(t: Dilation, wrt: MetaDist) -> bool:
    """Every support point of wrt has a row whose barycenter is the point."""
    return all(barycenter(t.row(point)) == point for point in wrt.support)


def transport(t: Dilation, md: MetaDist) -> MetaDist:
    """Push a meta-distribution through the rows of a dilation."""
    return meta_of_state(compose(_restrict(t, md), state(md)))


def standard_experiment(f: Kernel, m: Kernel) -> Kernel:
    """Kernel from hypotheses to the posterior points of their observations."""
    return compose(sharp(bayesian_inverse(f, m)), f)


def standard_measure(f: Kernel, m: Kernel) -> MetaDist:
    """Distribution of the posterior point under the prior."""
    return meta_of_state(compose(standard_experiment(f, m), m))


def _dvar(i: int, j: int) -> str:
    return f"t[{i}|{j}]"


def dilation_system(p_hat: MetaDist, q_hat: MetaDist) -> LinearSystem:
    """Feasibility system for a dilation transporting q_hat onto p_hat.

    Variables t[i|j] give the row at the i-th source point of q_hat,
    supported on the points of p_hat (transport forces all row mass onto
    them).  Rows must normalize, average back to their source, and carry
    q_hat onto p_hat.
    """
    if p_hat.theta != q_hat.theta:
        raise ShapeError("meta-distributions must share a hypothesis base")
    sources, targets = q_hat.support, p_hat.support
    rows = [[_dvar(i, j) for j, _ in enumerate(targets)] for i, _ in enumerate(sources)]
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


def find_dilation(p_hat: MetaDist, q_hat: MetaDist) -> Optional[Dilation]:
    """A dilation witnessing second-order dominance of q_hat over p_hat."""
    t = solve_channel(dilation_system(p_hat, q_hat), q_hat.base, p_hat.base)
    return None if t is None else Dilation(t.columns.items())


def derive_partial_evaluation(t: Dilation, q_hat: MetaDist) -> FinDist:
    """Reading of a dilation as a partially evaluated double distribution.

    Pushes q_hat forward along its rows of t, all over one codomain;
    ``findist.flatten`` of the result is the transported measure and pushing
    each row to its barycenter recovers q_hat.
    """
    on_q = _restrict(t, q_hat)
    rows = FiniteSet(dict.fromkeys(on_q.columns.values()))
    return fd.pushforward(on_q.column, q_hat, rows)


def recovery_map(f: Kernel, m: Kernel) -> Kernel:
    """Channel from posterior points back to observations.

    The inverse of the posterior assignment against the outcome
    distribution; composing it after the standard experiment returns f
    almost surely wrt the prior.
    """
    return bayesian_inverse(sharp(bayesian_inverse(f, m)), compose(f, m))


def _extend_kernel(k: Kernel, new_dom: FiniteSet) -> Kernel:
    """Add default (uniform) columns for domain labels k does not cover."""
    for label in k.dom.labels:
        if label not in new_dom:
            raise ShapeError("extension must contain the original domain")
    fill = fd.uniform(RATIONAL, k.cod)
    columns = {label: (k.columns[label] if label in k.dom else fill)
               for label in new_dom.labels}
    return Kernel(RATIONAL, new_dom, k.cod, columns)


def garbling_to_dilation(c: Kernel, f: Kernel, g: Kernel, m: Kernel) -> Dilation:
    """Turn an almost-sure garbling into a dilation between standard measures.

    Lifts c to a channel on posterior points via the recovery map of f and
    the posterior assignment of g, then inverts that channel against the
    standard measure of f.  The result transports the standard measure of g
    onto that of f and averages back to its sources.
    """
    if not ase(compose(c, f), g, m):
        raise WitnessError("channel does not convert f into g almost surely")
    f_hat = standard_experiment(f, m)
    c_hat = compose(sharp(bayesian_inverse(g, m)), compose(c, recovery_map(f, m)))
    t_dag = bayesian_inverse(c_hat, compose(f_hat, m))
    return Dilation((point, t_dag.column(point)) for point in standard_measure(g, m).support)


def dilation_to_garbling(t: Dilation, f: Kernel, g: Kernel, m: Kernel) -> Kernel:
    """Extract an almost-sure garbling from a dilation between standard measures.

    Inverts the dilation rows against the standard measure of g, feeds them
    the posterior assignment of f, and returns through the recovery map of
    g.  The composite converts f into g almost surely wrt m.
    """
    g_hat_m = standard_measure(g, m)
    f_hat_m = standard_measure(f, m)
    if not is_dilation(t, g_hat_m):
        raise WitnessError("rows do not average back to their sources")
    if transport(t, g_hat_m) != f_hat_m:
        raise WitnessError("dilation does not transport the standard measures")
    t_k = _restrict(t, g_hat_m)
    t_dag = bayesian_inverse(t_k, state(g_hat_m))
    sharp_f_dag = sharp(bayesian_inverse(f, m))
    r_g = recovery_map(g, m)
    lifted = _extend_kernel(t_dag, sharp_f_dag.cod)
    include = from_function(RATIONAL, t_k.dom, r_g.dom, lambda p: p)
    c = compose(r_g, compose(include, compose(lifted, sharp_f_dag)))
    if not ase(compose(c, f), g, m):
        raise WitnessError("extracted channel failed verification")
    return c


@dataclass(frozen=True)
class BssReport:
    """Joint verdict of garbling synthesis and dilation synthesis."""

    f_hat_m: MetaDist
    g_hat_m: MetaDist
    garbling: Optional[Kernel]
    dilation: Optional[Dilation]
    full_support: bool

    @property
    def plain_garbling(self) -> Optional[Kernel]:
        """The exact garbling, reported on a full-support prior (see bss_check)."""
        return self.garbling if self.full_support else None

    @property
    def garbling_feasible(self) -> bool:
        return self.garbling is not None

    @property
    def dilation_feasible(self) -> bool:
        return self.dilation is not None

    @property
    def agree(self) -> bool:
        return self.garbling_feasible == self.dilation_feasible


def bss_check(f: Kernel, g: Kernel, m: Kernel) -> BssReport:
    """Run both synthesis routes and report whether their verdicts match.

    With a full-support prior the plain (exact) garbling verdict is also
    reported.  It coincides with the almost-sure one in that case: the
    support lists every hypothesis in base order, so both solve the same
    system, and the almost-sure witness is reused.
    """
    garbling = find_garbling_as(f, g, m)
    f_hat_m = standard_measure(f, m)
    g_hat_m = standard_measure(g, m)
    dilation = find_dilation(f_hat_m, g_hat_m)
    full = len(state_dist(m).support) == len(f.dom)
    return BssReport(f_hat_m=f_hat_m, g_hat_m=g_hat_m, garbling=garbling,
                     dilation=dilation, full_support=full)


def verify_samp_is_bayesian_inverse(f: Kernel, m: Kernel) -> bool:
    """Sampling inverts the standard experiment against the prior, exactly."""
    f_hat = standard_experiment(f, m)
    theta = f.dom
    points = f_hat.cod
    smp = samp_on(points.labels)
    lhs = compose(tensor(identity(RATIONAL, theta), f_hat),
                  compose(copy(RATIONAL, theta), m))
    rhs = compose(tensor(smp, identity(RATIONAL, points)),
                  compose(copy(RATIONAL, points), compose(f_hat, m)))
    return lhs == rhs