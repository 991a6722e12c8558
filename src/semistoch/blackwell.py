"""Standard experiments and measures, dilations, and their equivalence.

The standard experiment of ``f`` against a prior sends each hypothesis to
the posterior point of the observation it generates; pushing the prior
through it gives the standard measure, a distribution over posterior
points.  Informativeness between experiments is then mirrored by mass
transport between standard measures along dilations: barycenter-preserving
channels on points.  Both directions of that equivalence are constructed
explicitly here, and dilation synthesis reduces to exact feasibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from . import findist as fd
from .conditioning import Point, ase, bayesian_inverse, point_of, samp_on, sharp
from .errors import CapabilityError, ShapeError, WitnessError
from .feasibility import LinearSystem, find_feasible, verify
from .findist import FinDist, FiniteSet, unit_set
from .kernel import Kernel, compose, copy, from_function, identity, state, state_dist, tensor
from .comparison import find_garbling_as
from .semiring import RATIONAL


@dataclass(frozen=True)
class MetaDist:
    """Finitely supported rational distribution over posterior points."""

    entries: Tuple[Tuple[Point, Fraction], ...]

    def __post_init__(self):
        if not self.entries:
            raise ShapeError("a meta-distribution needs at least one point")
        base = self.entries[0][0].base
        seen = set()
        total = Fraction(0)
        for point, weight in self.entries:
            if point.base != base:
                raise ShapeError("points must share a base")
            if point in seen:
                raise ShapeError("points must be distinct")
            seen.add(point)
            if weight <= 0:
                raise ShapeError("stored weights must be positive")
            total += weight
        if total != 1:
            raise ShapeError("weights must sum to one")
        if list(self.entries) != sorted(self.entries, key=lambda e: e[0]):
            raise ShapeError("entries must be sorted by point")

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[Point, Fraction]]) -> "MetaDist":
        acc: Dict[Point, Fraction] = {}
        for point, weight in pairs:
            weight = Fraction(weight)
            if weight != 0:
                acc[point] = acc.get(point, Fraction(0)) + weight
        return MetaDist(tuple(sorted(acc.items(), key=lambda e: e[0])))

    @property
    def support(self) -> Tuple[Point, ...]:
        return tuple(point for point, _ in self.entries)

    def weight(self, point: Point) -> Fraction:
        for p, w in self.entries:
            if p == point:
                return w
        return Fraction(0)

    @property
    def base(self) -> tuple:
        return self.entries[0][0].base


def meta_of_state(s: Kernel) -> MetaDist:
    """Read a state over a point-labelled set as a meta-distribution."""
    dist = state_dist(s)
    pairs = []
    for label, weight in dist.items():
        if not isinstance(label, Point):
            raise ShapeError("state is not over posterior points")
        pairs.append((label, weight))
    return MetaDist.from_pairs(pairs)


def barycenter(md: MetaDist) -> Point:
    """Average the support points with their weights."""
    base = md.base
    sums = [Fraction(0)] * len(base)
    for point, weight in md.entries:
        for i, value in enumerate(point.weights):
            sums[i] += weight * value
    return Point(base, tuple(sums))


@dataclass(frozen=True)
class Dilation:
    """Rows of point-distributions indexed by source points.

    A dilation for a meta-distribution q assigns to every point in the
    support of q a row whose barycenter is that point; transporting q along
    the rows yields another meta-distribution over the same base.
    """

    rows: Tuple[Tuple[Point, MetaDist], ...]

    def __post_init__(self):
        seen = set()
        for source, _ in self.rows:
            if source in seen:
                raise ShapeError("duplicate source point")
            seen.add(source)
        if list(self.rows) != sorted(self.rows, key=lambda e: e[0]):
            raise ShapeError("rows must be sorted by source point")

    @property
    def sources(self) -> Tuple[Point, ...]:
        return tuple(point for point, _ in self.rows)

    def row(self, point: Point) -> MetaDist:
        for p, row in self.rows:
            if p == point:
                return row
        raise WitnessError(f"dilation has no row at {point!r}")


def is_dilation(t: Dilation, wrt: MetaDist) -> bool:
    """Every support point of wrt has a row whose barycenter is the point."""
    for point, _ in wrt.entries:
        if barycenter(t.row(point)) != point:
            return False
    return True


def transport(t: Dilation, md: MetaDist) -> MetaDist:
    """Push a meta-distribution through the rows of a dilation."""
    pairs: List[Tuple[Point, Fraction]] = []
    for point, weight in md.entries:
        for target, share in t.row(point).entries:
            pairs.append((target, weight * share))
    return MetaDist.from_pairs(pairs)


@dataclass(frozen=True)
class MetaMetaDist:
    """Distribution over meta-distributions; the partial-evaluation shape."""

    entries: Tuple[Tuple[MetaDist, Fraction], ...]

    def flatten(self) -> MetaDist:
        pairs: List[Tuple[Point, Fraction]] = []
        for row, weight in self.entries:
            for point, share in row.entries:
                pairs.append((point, weight * share))
        return MetaDist.from_pairs(pairs)

    def push_barycenter(self) -> MetaDist:
        return MetaDist.from_pairs((barycenter(row), weight) for row, weight in self.entries)


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
    if p_hat.base != q_hat.base:
        raise ShapeError("meta-distributions must share a hypothesis base")
    sources = q_hat.support
    targets = p_hat.support
    names = [_dvar(i, j) for i in range(len(sources)) for j in range(len(targets))]
    system = LinearSystem(names)
    for i, source in enumerate(sources):
        system.add_equality({_dvar(i, j): Fraction(1) for j in range(len(targets))},
                            Fraction(1))
        for pos in range(len(source.weights)):
            coeffs = {_dvar(i, j): targets[j].weights[pos] for j in range(len(targets))
                      if targets[j].weights[pos] != 0}
            system.add_equality(coeffs, source.weights[pos])
    for j in range(len(targets)):
        coeffs = {_dvar(i, j): q_hat.weight(sources[i]) for i in range(len(sources))}
        system.add_equality(coeffs, p_hat.weight(targets[j]))
    return system


def find_dilation(p_hat: MetaDist, q_hat: MetaDist) -> Optional[Dilation]:
    """A dilation witnessing second-order dominance of q_hat over p_hat."""
    system = dilation_system(p_hat, q_hat)
    solution = find_feasible(system)
    if solution is None:
        return None
    if not verify(system, solution):
        raise WitnessError("solver returned an assignment that fails the dilation system")
    sources = q_hat.support
    targets = p_hat.support
    rows = []
    for i, source in enumerate(sources):
        row = MetaDist.from_pairs((targets[j], solution[_dvar(i, j)])
                                  for j in range(len(targets)))
        rows.append((source, row))
    return Dilation(tuple(sorted(rows, key=lambda e: e[0])))


def derive_partial_evaluation(t: Dilation, q_hat: MetaDist) -> MetaMetaDist:
    """Reading of a dilation as a partially evaluated double distribution.

    Weights the row at each support point of q_hat by that point's mass;
    flattening recovers the transported measure and pushing along the
    barycenter recovers q_hat.
    """
    acc: Dict[MetaDist, Fraction] = {}
    for point, weight in q_hat.entries:
        row = t.row(point)
        acc[row] = acc.get(row, Fraction(0)) + weight
    entries = tuple(sorted(acc.items(), key=lambda e: e[0].entries))
    return MetaMetaDist(entries)


def recovery_map(f: Kernel, m: Kernel) -> Kernel:
    """Channel from posterior points back to observations.

    The inverse of the posterior assignment against the outcome
    distribution; composing it after the standard experiment returns f
    almost surely wrt the prior.
    """
    return bayesian_inverse(sharp(bayesian_inverse(f, m)), compose(f, m))


def dilation_kernel(t: Dilation, sources: Sequence[Point]) -> Kernel:
    """Rows of a dilation packaged as a kernel between point sets."""
    sources = tuple(sources)
    targets = sorted({target for source in sources for target, _ in t.row(source).entries})
    dom = FiniteSet(sources)
    cod = FiniteSet(targets)
    columns = {}
    for source in sources:
        row = t.row(source)
        columns[source] = FinDist(RATIONAL, cod, dict(row.entries))
    return Kernel(RATIONAL, dom, cod, columns)


def _extend_kernel(k: Kernel, new_dom: FiniteSet) -> Kernel:
    """Add default (uniform) columns for domain labels k does not cover."""
    for label in k.dom.labels:
        if label not in new_dom:
            raise ShapeError("extension must contain the original domain")
    fill = fd.uniform(RATIONAL, k.cod)
    columns = {label: (k.columns[label] if label in k.dom else fill)
               for label in new_dom.labels}
    return Kernel(RATIONAL, new_dom, k.cod, columns)


def _inclusion(sub: FiniteSet, sup: FiniteSet) -> Kernel:
    for label in sub.labels:
        if label not in sup:
            raise ShapeError(f"label {label!r} missing from the larger set")
    return from_function(RATIONAL, sub, sup, lambda a: a)


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
    rows = []
    for point, _ in standard_measure(g, m).entries:
        column = t_dag.column(point)
        row = MetaDist.from_pairs((label, weight) for label, weight in column.items())
        rows.append((point, row))
    return Dilation(tuple(sorted(rows, key=lambda e: e[0])))


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
    sources = g_hat_m.support
    t_k = dilation_kernel(t, sources)
    t_dag = bayesian_inverse(t_k, state(FinDist(RATIONAL, t_k.dom, dict(g_hat_m.entries))))
    sharp_f_dag = sharp(bayesian_inverse(f, m))
    r_g = recovery_map(g, m)
    lifted = _extend_kernel(t_dag, sharp_f_dag.cod)
    c = compose(r_g, compose(_inclusion(t_k.dom, r_g.dom), compose(lifted, sharp_f_dag)))
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
    plain_garbling: Optional[Kernel]
    full_support: bool

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
    plain = garbling if full else None
    return BssReport(f_hat_m=f_hat_m, g_hat_m=g_hat_m, garbling=garbling,
                     dilation=dilation, plain_garbling=plain, full_support=full)


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