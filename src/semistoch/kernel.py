"""Markov kernels between finite sets, with semiring-valued weights.

A kernel assigns to every domain label a normalized distribution over the
codomain.  States are kernels out of the unit.  Composition, tensor and
the copy/discard/swap structure maps make the usual string-diagram
constructions directly expressible; equality of kernels is exact and
column-wise.

The columns of a tensor are built when they are first read, and kept.  A
string-diagram composite such as ``compose(tensor(k, identity), copy)``
reads only the columns its inner kernel puts mass on, so it builds only
those.  Every column, built up front or on first read, passes the same
checks before it is stored.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from . import findist as fd
from .errors import ShapeError
from .findist import (FinDist, FiniteSet, atoms, join_atoms, product_set, split_label,
                      unit_set)
from .semiring import Semiring, same_semiring

Label = Any


class Kernel:
    """Map ``dom -> cod`` sending each domain label to a distribution.

    ``build``, when given, makes the column at a domain label the first
    time it is read; the given ``columns`` may then cover part of the
    domain or none of it.
    """

    __slots__ = ("semiring", "dom", "cod", "_columns", "_build")

    def __init__(self, semiring: Semiring, dom: FiniteSet, cod: FiniteSet,
                 columns: Mapping[Label, FinDist],
                 build: Optional[Callable[[Label], FinDist]] = None):
        missing = [] if build is not None else [a for a in dom.labels if a not in columns]
        extra = [a for a in columns if a not in dom]
        if missing or extra:
            raise ShapeError(f"columns must cover the domain exactly "
                             f"(missing {missing!r}, extra {extra!r})")
        self.semiring = semiring
        self.dom = dom
        self.cod = cod
        self._build = build
        self._columns = {a: self._checked(a, columns[a])
                         for a in dom.labels if a in columns}

    def _checked(self, a: Label, col: FinDist) -> FinDist:
        if not isinstance(col, FinDist):
            raise ShapeError(f"column at {a!r} is not a distribution")
        same_semiring(self.semiring, col.semiring)
        if col.base != self.cod:
            raise ShapeError(f"column at {a!r} lives over the wrong codomain")
        return col

    def column(self, a: Label) -> FinDist:
        try:
            return self._columns[a]
        except KeyError as exc:
            if self._build is None or a not in self.dom:
                raise ShapeError(f"label {a!r} not in domain") from exc
        col = self._columns[a] = self._checked(a, self._build(a))
        return col

    @property
    def columns(self) -> Dict[Label, FinDist]:
        """Every column in ``dom`` order, building the ones not yet read."""
        if len(self._columns) < len(self.dom):
            self._columns = {a: self.column(a) for a in self.dom.labels}
        return self._columns

    def weight(self, x: Label, a: Label) -> Any:
        return self.column(a).weight(x)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Kernel)
                and self.semiring.name == other.semiring.name
                and self.dom == other.dom
                and self.cod == other.cod
                and self.columns == other.columns)

    __hash__ = None  # mutable-free but not used as a key

    def __repr__(self) -> str:
        return f"Kernel({len(self.dom)} -> {len(self.cod)} over {self.semiring.name})"


def from_function(semiring: Semiring, dom: FiniteSet, cod: FiniteSet,
                  fn: Callable[[Label], Label]) -> Kernel:
    """Deterministic kernel: each label maps to a point mass at its image.

    Labels with the same image share one (immutable) point mass.
    """
    images = {a: fn(a) for a in dom.labels}
    diracs = {b: fd.dirac(semiring, cod, b) for b in dict.fromkeys(images.values())}
    return Kernel(semiring, dom, cod, {a: diracs[b] for a, b in images.items()})


def state(dist: FinDist) -> Kernel:
    """Package a distribution as a kernel out of the unit."""
    return Kernel(dist.semiring, unit_set(), dist.base, {(): dist})


def state_dist(s: Kernel) -> FinDist:
    if s.dom != unit_set():
        raise ShapeError("not a state: domain is not the unit")
    return s.column(())


def identity(semiring: Semiring, x: FiniteSet) -> Kernel:
    return from_function(semiring, x, x, lambda a: a)


def copy(semiring: Semiring, x: FiniteSet) -> Kernel:
    """Comonoid comultiplication: a |-> (a, a)."""
    return from_function(semiring, x, product_set(x, x),
                         lambda a: join_atoms(atoms(a) + atoms(a)))


def discard(semiring: Semiring, x: FiniteSet) -> Kernel:
    """Comonoid counit: everything maps to the unit."""
    return from_function(semiring, x, unit_set(), lambda a: ())


def swap(semiring: Semiring, x: FiniteSet, y: FiniteSet) -> Kernel:
    """Symmetry x (x) y -> y (x) x."""
    xy = product_set(x, y)
    yx = product_set(y, x)

    def flip(label):
        parts = atoms(label)
        return join_atoms(parts[x.arity:] + parts[:x.arity])

    return from_function(semiring, xy, yx, flip)


def compose(g: Kernel, f: Kernel) -> Kernel:
    """Chapman-Kolmogorov composite g after f."""
    same_semiring(f.semiring, g.semiring)
    if f.cod != g.dom:
        raise ShapeError("composition mismatch: cod of inner != dom of outer")
    sr = f.semiring
    columns = {}
    for a in f.dom.labels:
        acc: Dict[Label, Any] = {}
        for y, wy in f.column(a).items():
            for z, wz in g.column(y).items():
                acc[z] = sr.add(acc.get(z, sr.zero), sr.mul(wy, wz))
        columns[a] = FinDist(sr, g.cod, acc)
    return Kernel(sr, f.dom, g.cod, columns)


def tensor(f: Kernel, g: Kernel) -> Kernel:
    """Parallel composite on the product of domains and codomains.

    The column at (a, b) is the product of f's column at a and g's at b.
    It is built and checked the first time it is read.
    """
    same_semiring(f.semiring, g.semiring)
    dom = product_set(f.dom, g.dom)
    cod = product_set(f.cod, g.cod)

    def build(label: Label) -> FinDist:
        a, b = split_label(label, f.dom.arity)
        return fd._product_on(cod, f.column(a), g.column(b))

    return Kernel(f.semiring, dom, cod, {}, build)


def joint(m: Kernel, k: Kernel) -> Kernel:
    """The state ``(id (x) k) . copy . m`` over dom(k) (x) cod(k), for m a state on dom(k)."""
    sr = k.semiring
    return compose(tensor(identity(sr, k.dom), k), compose(copy(sr, k.dom), m))


def marginalize(f: Kernel, side: str) -> Kernel:
    """Column-wise marginal onto one factor of a product codomain."""
    keep, project = fd._projection(f.cod, side)
    return Kernel(f.semiring, f.dom, keep,
                  {a: fd.pushforward(project, col, keep) for a, col in f.columns.items()})


def is_deterministic(f: Kernel) -> bool:
    """Copy-preservation: copy . f == (f (x) f) . copy.

    Over an entire semiring this forces point-mass columns; over a
    semiring with zero divisors it can hold for genuinely spread columns.
    """
    sr = f.semiring
    lhs = compose(copy(sr, f.cod), f)
    rhs = compose(tensor(f, f), copy(sr, f.dom))
    return lhs == rhs


def state_is_dirac(s: Kernel) -> bool:
    dist = state_dist(s)
    return len(dist.weights) == 1 and s.semiring.eq(next(iter(dist.weights.values())),
                                                    s.semiring.one)

