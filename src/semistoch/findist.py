"""Finite label sets and finitely supported normalized distributions.

Labels are atoms (usually strings; posterior points and distributions also
occur as atoms) or flat tuples of atoms.  Products of sets flatten their
labels left-associatively, with the empty tuple as the unique label of the
monoidal unit, so the tensor is strictly associative and unital on labels.
A product set remembers its two factors for marginalization and
conditioning.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

from .errors import CapabilityError, DistributionError, ShapeError
from .semiring import Semiring, same_semiring

Label = Any


def atoms(label: Label) -> tuple:
    """View a label as its tuple of atoms; bare atoms count as one."""
    return label if isinstance(label, tuple) else (label,)


def join_atoms(parts: Iterable) -> Label:
    parts = tuple(parts)
    return parts[0] if len(parts) == 1 else parts


class FiniteSet:
    """Ordered finite set of distinct labels of uniform arity."""

    __slots__ = ("labels", "factors", "arity", "_index")

    def __init__(self, labels: Iterable[Label],
                 factors: Optional[Tuple["FiniteSet", "FiniteSet"]] = None):
        self.labels = tuple(labels)
        if not self.labels:
            raise DistributionError("a finite set needs at least one label")
        arities = {len(atoms(label)) for label in self.labels}
        if len(arities) != 1:
            raise DistributionError("labels must all have the same arity")
        self.arity = arities.pop()
        self._index: Dict[Label, int] = {}
        for label in self.labels:
            if label in self._index:
                raise DistributionError(f"duplicate label {label!r}")
            self._index[label] = len(self._index)
        if factors is not None:
            left, right = factors
            if left.arity + right.arity != self.arity:
                raise DistributionError("factor arities do not add up")
        self.factors = factors

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return iter(self.labels)

    def __contains__(self, label: Label) -> bool:
        return label in self._index

    def index(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError as exc:
            raise ShapeError(f"label {label!r} not in set") from exc

    def __eq__(self, other) -> bool:
        # Factor bookkeeping is presentation, not identity.
        return isinstance(other, FiniteSet) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        shown = ", ".join(repr(l) for l in self.labels[:4])
        if len(self.labels) > 4:
            shown += ", ..."
        return f"FiniteSet({shown})"


def unit_set() -> FiniteSet:
    """The monoidal unit: one element labelled by the empty tuple."""
    return FiniteSet([()])


def product_set(left: FiniteSet, right: FiniteSet) -> FiniteSet:
    """Cartesian product in row-major order with flattened tuple labels."""
    labels = [join_atoms(atoms(a) + atoms(b)) for a in left.labels for b in right.labels]
    return FiniteSet(labels, factors=(left, right))


def split_set(product: FiniteSet) -> Tuple[FiniteSet, FiniteSet]:
    if product.factors is None:
        raise ShapeError("set is not a recorded binary product")
    return product.factors


def split_label(label: Label, left_arity: int) -> Tuple[Label, Label]:
    parts = atoms(label)
    return join_atoms(parts[:left_arity]), join_atoms(parts[left_arity:])


class FinDist:
    """Normalized distribution with finite support over a finite set.

    Weights live in the given semiring, sum exactly to one, and zero
    weights are never stored.  Instances are immutable and hashable, so a
    distribution can itself serve as a label atom.
    """

    __slots__ = ("semiring", "base", "weights", "_hash")

    def __init__(self, semiring: Semiring, base: FiniteSet, weights: Mapping[Label, Any]):
        unknown = [l for l in weights if l not in base]
        if unknown:
            raise DistributionError(f"weight on labels outside the base: {unknown!r}")
        clean: Dict[Label, Any] = {}
        for label in sorted(weights, key=base.index):  # canonical iteration order
            value = semiring.check(weights[label])
            if not semiring.is_zero(value):
                clean[label] = value
        if not semiring.eq(semiring.sum(clean.values()), semiring.one):
            raise DistributionError(
                f"weights must sum to one ({semiring.format(semiring.sum(clean.values()))} over {semiring.name})")
        self.semiring = semiring
        self.base = base
        self.weights = clean
        self._hash = None

    def weight(self, label: Label) -> Any:
        if label not in self.base:
            raise ShapeError(f"label {label!r} not in base")
        return self.weights.get(label, self.semiring.zero)

    @property
    def support(self) -> tuple:
        return tuple(self.weights)

    def items(self):
        return self.weights.items()

    def __eq__(self, other) -> bool:
        return (isinstance(other, FinDist)
                and self.semiring.name == other.semiring.name
                and self.base == other.base
                and self.weights == other.weights)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.semiring.name, self.base.labels,
                               frozenset(self.weights.items())))
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{l!r}: {self.semiring.format(v)}" for l, v in self.weights.items())
        return f"FinDist({{{body}}})"


def dirac(semiring: Semiring, base: FiniteSet, label: Label) -> FinDist:
    """Point mass at one label."""
    if label not in base:
        raise ShapeError(f"label {label!r} not in base")
    return FinDist(semiring, base, {label: semiring.one})


def pushforward(fn, p: FinDist, cod: FiniteSet) -> FinDist:
    """Image distribution along a function on labels.

    ``fn`` must send every support label of ``p`` into ``cod``; weights of
    labels with a common image add up.
    """
    acc: Dict[Label, Any] = {}
    sr = p.semiring
    for label, value in p.items():
        target = fn(label)
        if target not in cod:
            raise ShapeError(f"pushforward image {target!r} not in codomain")
        acc[target] = sr.add(acc.get(target, sr.zero), value)
    return FinDist(sr, cod, acc)


def flatten(phi: FinDist) -> FinDist:
    """Average a distribution whose labels are themselves distributions."""
    sr = phi.semiring
    base = None
    acc: Dict[Label, Any] = {}
    for inner, outer_weight in phi.items():
        if not isinstance(inner, FinDist):
            raise ShapeError("flatten needs distribution-valued labels")
        same_semiring(sr, inner.semiring)
        if base is None:
            base = inner.base
        elif inner.base != base:
            raise ShapeError("inner distributions live over different bases")
        for label, value in inner.items():
            acc[label] = sr.add(acc.get(label, sr.zero), sr.mul(outer_weight, value))
    if base is None:
        raise DistributionError("flatten of an empty distribution")
    return FinDist(sr, base, acc)


def product(p: FinDist, q: FinDist) -> FinDist:
    """Independent product: weight of (x, y) is p(x) * q(y)."""
    same_semiring(p.semiring, q.semiring)
    return _product_on(product_set(p.base, q.base), p, q)


def _product_on(base: FiniteSet, p: FinDist, q: FinDist) -> FinDist:
    """Product of p and q over an already built product of their bases."""
    sr = p.semiring
    acc = {}
    for x, px in p.items():
        for y, qy in q.items():
            acc[join_atoms(atoms(x) + atoms(y))] = sr.mul(px, qy)
    return FinDist(sr, base, acc)


def _projection(product: FiniteSet, side: str) -> Tuple[FiniteSet, Callable[[Label], Label]]:
    """The kept factor of a recorded product and the label map onto it."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    left, right = split_set(product)
    if side == "left":
        return left, lambda label: split_label(label, left.arity)[0]
    return right, lambda label: split_label(label, left.arity)[1]


def marginal(p: FinDist, side: str) -> FinDist:
    """Sum out one factor of a distribution over a recorded product."""
    keep, project = _projection(p.base, side)
    return pushforward(project, p, keep)


def uniform(semiring: Semiring, base: FiniteSet) -> FinDist:
    """Equal share of one for every label, when the semiring can divide."""
    total = semiring.sum(semiring.one for _ in base.labels)
    share = semiring.try_div(semiring.one, total)
    if share is None:
        raise CapabilityError(f"{semiring.name} has no uniform distribution on {len(base)} labels")
    return FinDist(semiring, base, {label: share for label in base.labels})
