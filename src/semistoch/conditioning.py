"""Conditionals, Bayesian inversion, almost-sure equality, and sharp/sampling.

The constructions here are the workhorses for comparing experiments:
conditioning a joint on one output factor, inverting a kernel against a
prior, testing equality almost surely with respect to a reference kernel,
and moving between kernels and their deterministic counterparts valued in
distribution points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from . import findist as fd
from .errors import CapabilityError, DistributionError, ShapeError
from .findist import FinDist, FiniteSet, atoms, join_atoms, product_set, split_set
from .kernel import (Kernel, compose, copy, from_function, identity, marginalize,
                     state_dist, swap, tensor)
from .semiring import DIVISION, ORDERED_IDEMPOTENT, RATIONAL, same_semiring


def conditional(f: Kernel, wrt: str = "left") -> Kernel:
    """Condition a kernel into a product on one of its output factors.

    For ``f : A -> X (x) Y`` and ``wrt='left'`` returns ``k : X (x) A -> Y``
    with ``f(x, y | a) = k(y | x, a) * marginal(x | a)`` for every a, x, y;
    ``wrt='right'`` conditions on Y instead.  Columns the equation does not
    determine (zero marginal) default to the uniform distribution when the
    semiring divides, and to a point mass at the first codomain label under
    the ordered-idempotent rule.
    """
    if wrt not in ("left", "right"):
        raise ValueError(f"wrt must be 'left' or 'right', got {wrt!r}")
    sr = f.semiring
    strategy = sr.conditional_strategy
    if strategy not in (DIVISION, ORDERED_IDEMPOTENT):
        raise CapabilityError(f"{sr.name} does not support conditionals")
    left, right = split_set(f.cod)
    cond_set, out_set = (left, right) if wrt == "left" else (right, left)
    new_dom = product_set(cond_set, f.dom)
    columns: Dict = {}
    for a in f.dom.labels:
        grouped: Dict = {x: {} for x in cond_set.labels}
        for label, value in f.column(a).items():
            l, r = fd.split_label(label, left.arity)
            x, y = (l, r) if wrt == "left" else (r, l)
            grouped[x][y] = value
        for x in cond_set.labels:
            key = join_atoms(atoms(x) + atoms(a))
            outcomes = grouped[x]
            marg = sr.sum(outcomes.values())
            if sr.is_zero(marg):
                if strategy == DIVISION:
                    columns[key] = fd.uniform(sr, out_set)
                else:
                    columns[key] = fd.dirac(sr, out_set, out_set.labels[0])
            elif strategy == DIVISION:
                shares = {}
                for y, value in outcomes.items():
                    q = sr.try_div(value, marg)
                    if q is None:
                        raise CapabilityError(f"{sr.name} cannot divide {sr.format(value)} "
                                              f"by {sr.format(marg)}")
                    shares[y] = q
                columns[key] = FinDist(sr, out_set, shares)
            else:
                # Ordered-idempotent rule: weights strictly below the marginal
                # pass through; weights equal to it saturate to one.
                shares = {y: (sr.one if sr.eq(value, marg) else value)
                          for y, value in outcomes.items()}
                columns[key] = FinDist(sr, out_set, shares)
    return Kernel(sr, new_dom, out_set, columns)


def bayesian_inverse(f: Kernel, prior: Kernel) -> Kernel:
    """Inverse of ``f : A -> X`` against a prior state on A.

    Returns ``k : X -> A`` with ``prior(a) * f(x | a) = (f . prior)(x) * k(a | x)``
    for all a, x.  Columns at outcomes of zero marginal probability follow the
    conditional's default.
    """
    same_semiring(f.semiring, prior.semiring)
    if state_dist(prior).base != f.dom:
        raise ShapeError("prior must be a state on the domain of f")
    sr = f.semiring
    a_set = f.dom
    joint = compose(tensor(identity(sr, a_set), f), compose(copy(sr, a_set), prior))
    return conditional(joint, wrt="right")


def ase(f: Kernel, g: Kernel, wrt: Kernel) -> bool:
    """Almost-sure equality of parallel kernels relative to a reference.

    ``f, g : X -> Y`` agree wrt ``h : A -> X`` when pairing each with a copy
    of its input and precomposing with h yields equal kernels.  Over rational
    weights this means the columns agree wherever h puts mass.  Other
    semirings can absorb the difference: over the trilattice eps * 1 and
    eps * eps are both eps, so columns that differ only by where they put
    1 and eps agree at an input h charges with eps.
    """
    same_semiring(f.semiring, g.semiring)
    same_semiring(f.semiring, wrt.semiring)
    if f.dom != g.dom or f.cod != g.cod:
        raise ShapeError("almost-sure equality needs parallel kernels")
    if wrt.cod != f.dom:
        raise ShapeError("reference kernel must land in the common domain")
    sr = f.semiring
    dup = compose(copy(sr, f.dom), wrt)

    def paired(k: Kernel) -> Kernel:
        return compose(tensor(k, identity(sr, f.dom)), dup)

    return paired(f) == paired(g)


def dominates(mu: Kernel, nu: Kernel) -> bool:
    """Support inclusion of states: every outcome mu charges, nu charges."""
    if mu.semiring.name != "rational" or nu.semiring.name != "rational":
        raise CapabilityError("domination is defined for rational-weighted states")
    d_mu, d_nu = state_dist(mu), state_dist(nu)
    if d_mu.base != d_nu.base:
        raise ShapeError("states must share a base")
    return set(d_mu.support) <= set(d_nu.support)


@dataclass(frozen=True, order=True)
class Point:
    """A rational probability vector over an ordered base, used as a label."""

    base: tuple
    weights: Tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.base) != len(self.weights):
            raise DistributionError("point length mismatch")
        if not all(isinstance(w, (int, Fraction)) for w in self.weights):
            raise DistributionError(f"point weights must be exact rationals, got {self.weights!r}")
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        if any(w < 0 for w in self.weights):
            raise DistributionError("point weights must be nonnegative")
        if sum(self.weights) != 1:
            raise DistributionError("point weights must sum to one")
        # Points are dict and set keys everywhere; hash their Fractions once.
        object.__setattr__(self, "_hash", hash((self.base, self.weights)))

    def __hash__(self) -> int:
        return self._hash

    def weight(self, label) -> Fraction:
        return self.weights[self.base.index(label)]

    def text(self) -> str:
        return ",".join(str(w) for w in self.weights)

    def __repr__(self) -> str:
        return f"Point({self.text()})"


def point_of(dist: FinDist) -> Point:
    """Canonical full-length vector of a rational distribution."""
    if dist.semiring.name != "rational":
        raise CapabilityError("points are rational probability vectors")
    return Point(dist.base.labels, tuple(dist.weight(l) for l in dist.base.labels))


def point_dist(point: Point) -> FinDist:
    base = FiniteSet(point.base)
    weights = {l: w for l, w in zip(point.base, point.weights) if w != 0}
    return FinDist(RATIONAL, base, weights)


def sharp(f: Kernel) -> Kernel:
    """Deterministic kernel sending each input to its column as a point.

    The codomain is the sorted set of distinct columns of f, each encoded
    as a Point over cod(f).
    """
    if f.semiring.name != "rational":
        raise CapabilityError("sharp needs rational weights")
    by_input = {a: point_of(f.column(a)) for a in f.dom.labels}
    points = FiniteSet(sorted(set(by_input.values())))
    return from_function(RATIONAL, f.dom, points, lambda a: by_input[a])


def samp_on(points: Sequence[Point]) -> Kernel:
    """Sampling kernel: each point label maps to the distribution it names."""
    points = tuple(points)
    if not points:
        raise ShapeError("samp needs at least one point")
    base = points[0].base
    if any(p.base != base for p in points):
        raise ShapeError("points must share a base")
    return Kernel(RATIONAL, FiniteSet(points), FiniteSet(base),
                  {p: point_dist(p) for p in points})


def doubling(f: Kernel, given: str = "left") -> Kernel:
    """Two conditionally independent draws of one output factor.

    For ``f : A -> X (x) Y`` and ``given='left'`` the result ``A -> X (x) Y (x) Y``
    draws X and Y jointly from f, then a second Y from the conditional at the
    same X.  Different valid conditionals give the same answer because zero
    marginals kill every term they could influence.
    """
    sr = f.semiring
    x_set, y_set = split_set(f.cod)
    a_set = f.dom
    k = conditional(f, wrt=given)
    base = compose(tensor(f, identity(sr, a_set)), copy(sr, a_set))  # A -> X.Y.A
    if given == "left":
        dup = tensor(copy(sr, x_set), tensor(identity(sr, y_set), identity(sr, a_set)))
        perm = tensor(identity(sr, x_set), tensor(swap(sr, x_set, y_set), identity(sr, a_set)))
        feed = tensor(identity(sr, x_set), tensor(identity(sr, y_set), k))
    else:
        dup = tensor(identity(sr, x_set), tensor(copy(sr, y_set), identity(sr, a_set)))
        perm = tensor(identity(sr, x_set), swap(sr, y_set, product_set(y_set, a_set)))
        feed = tensor(identity(sr, x_set), tensor(k, identity(sr, y_set)))
    return compose(feed, compose(perm, compose(dup, base)))


def is_deterministic_given(f: Kernel, given: str = "left") -> bool:
    """Whether one output factor is a deterministic function of the other.

    Holds exactly when doubling the chosen factor agrees with copying it.
    """
    sr = f.semiring
    left, right = split_set(f.cod)
    doubled = doubling(f, given=given)
    if given == "left":
        copied = compose(tensor(identity(sr, left), copy(sr, right)), f)
    else:
        copied = compose(tensor(copy(sr, left), identity(sr, right)), f)
    return doubled == copied


def partial_adjunct(f: Kernel) -> Kernel:
    """Internalize the Y-conditional of ``f : A -> X (x) Y`` as point outputs.

    Returns ``A -> X (x) P`` where P consists of the conditional's columns as
    points; composing with ``id (x) samp`` recovers f exactly, and the point
    coordinate is a deterministic function of the X coordinate.
    """
    sr = f.semiring
    left, right = split_set(f.cod)
    a_set = f.dom
    k_sharp = sharp(conditional(f, wrt="left"))
    f_x = marginalize(f, "left")
    pick_x = compose(tensor(f_x, identity(sr, a_set)), copy(sr, a_set))  # A -> X.A
    dup_x = tensor(copy(sr, left), identity(sr, a_set))                  # X.A -> X.X.A
    feed = tensor(identity(sr, left), k_sharp)                           # X.(X.A) -> X.P
    return compose(feed, compose(dup_x, pick_x))
