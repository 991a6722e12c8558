"""Markov kernels between finite sets, with semiring-valued weights.

A kernel assigns to every domain label a normalized distribution over the
codomain.  States are kernels out of the unit.  Composition, tensor and
the copy/discard/swap structure maps make the usual string-diagram
constructions directly expressible; equality of kernels is exact and
column-wise.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional

from . import findist as fd
from .errors import ShapeError
from .findist import FinDist, FiniteSet, atoms, join_atoms, product_set, split_set, unit_set
from .semiring import Semiring, same_semiring

Label = Any


class Kernel:
    """Map ``dom -> cod`` sending each domain label to a distribution."""

    __slots__ = ("semiring", "dom", "cod", "columns")

    def __init__(self, semiring: Semiring, dom: FiniteSet, cod: FiniteSet,
                 columns: Mapping[Label, FinDist]):
        missing = [a for a in dom.labels if a not in columns]
        extra = [a for a in columns if a not in dom]
        if missing or extra:
            raise ShapeError(f"columns must cover the domain exactly "
                             f"(missing {missing!r}, extra {extra!r})")
        clean: Dict[Label, FinDist] = {}
        for a in dom.labels:
            col = columns[a]
            if not isinstance(col, FinDist):
                raise ShapeError(f"column at {a!r} is not a distribution")
            same_semiring(semiring, col.semiring)
            if col.base != cod:
                raise ShapeError(f"column at {a!r} lives over the wrong codomain")
            clean[a] = col
        self.semiring = semiring
        self.dom = dom
        self.cod = cod
        self.columns = clean

    def column(self, a: Label) -> FinDist:
        try:
            return self.columns[a]
        except KeyError as exc:
            raise ShapeError(f"label {a!r} not in domain") from exc

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
    """Deterministic kernel: each label maps to a point mass at its image."""
    return Kernel(semiring, dom, cod,
                  {a: fd.dirac(semiring, cod, fn(a)) for a in dom.labels})


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
    """Parallel composite on the product of domains and codomains."""
    same_semiring(f.semiring, g.semiring)
    dom = product_set(f.dom, g.dom)
    cod = product_set(f.cod, g.cod)
    columns = {}
    for a in f.dom.labels:
        fa = f.column(a)
        for b in g.dom.labels:
            columns[join_atoms(atoms(a) + atoms(b))] = fd._product_on(cod, fa, g.column(b))
    return Kernel(f.semiring, dom, cod, columns)


def marginalize(f: Kernel, side: str) -> Kernel:
    """Column-wise marginal onto one factor of a product codomain."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    left, right = split_set(f.cod)
    keep = left if side == "left" else right
    sr = f.semiring
    columns = {}
    for a in f.dom.labels:
        acc: Dict[Label, Any] = {}
        for label, value in f.column(a).items():
            l, r = fd.split_label(label, left.arity)
            part = l if side == "left" else r
            acc[part] = sr.add(acc.get(part, sr.zero), value)
        columns[a] = FinDist(sr, keep, acc)
    return Kernel(sr, f.dom, keep, columns)


def recast(f: Kernel, dom: Optional[FiniteSet] = None, cod: Optional[FiniteSet] = None) -> Kernel:
    """Replace dom/cod by label-identical sets (factor bookkeeping only)."""
    new_dom = dom if dom is not None else f.dom
    new_cod = cod if cod is not None else f.cod
    if new_dom.labels != f.dom.labels or new_cod.labels != f.cod.labels:
        raise ShapeError("recast must preserve labels exactly")
    columns = {a: FinDist(f.semiring, new_cod, f.column(a).weights) for a in f.dom.labels}
    return Kernel(f.semiring, new_dom, new_cod, columns)


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

