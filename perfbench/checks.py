"""Exact answer checks, independent of the library's own arithmetic.

Witnesses are read back into ``Fraction`` matrices (or parsed from the
CLI's JSON) and checked against the generator's matrices, so a bug in
``compose`` or in the solver cannot hide itself.  Each function returns
a bool; none of them is timed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from instances import Matrix, tv


def read_matrix(k, dom: Sequence, cod: Sequence) -> Optional[Matrix]:
    """Weights of a library kernel as columns, or None on a label mismatch."""
    if list(k.dom.labels) != list(dom) or list(k.cod.labels) != list(cod):
        return None
    return [[k.weight(b, a) for b in cod] for a in dom]


def is_channel(c: Matrix) -> bool:
    return all(all(w >= 0 for w in col) and sum(col) == 1 for col in c)


def garbles(c: Optional[Matrix], f: Matrix, g: Matrix, support: Sequence[int]) -> bool:
    """c is a channel and sum_x f(x|t) c(y|x) == g(y|t) for every t in support."""
    if c is None or len(c) != len(f[0]) or not is_channel(c):
        return False
    for t in support:
        for y in range(len(g[t])):
            if sum((f[t][x] * c[x][y] for x in range(len(c))), Fraction(0)) != g[t][y]:
                return False
    return True


def certifies(f: Matrix, g: Matrix, cert: Tuple[int, int], support: Sequence[int]) -> bool:
    """The pair lies in the support and g separates it further than f does."""
    a, b = cert
    return a in support and b in support and tv(g[a], g[b]) > tv(f[a], f[b])


def support_of(prior: Sequence[Fraction]) -> List[int]:
    return [i for i, w in enumerate(prior) if w]


def matrix_from_json(doc, dom: Sequence[str], cod: Sequence[str]) -> Optional[Matrix]:
    if doc is None or doc.get("dom") != list(dom) or doc.get("cod") != list(cod):
        return None
    cols = doc["columns"]
    return [[Fraction(cols[a].get(b, "0")) for b in cod] for a in dom]


def _vec(strings) -> List[Fraction]:
    return [Fraction(s) for s in strings]


def measure_from_json(doc) -> List[Tuple[Tuple[Fraction, ...], Fraction]]:
    return [(tuple(_vec(p)), Fraction(w)) for p, w in zip(doc["points"], doc["weights"])]


def standard_measure_ok(entries, prior: Sequence[Fraction]) -> bool:
    """Points are distributions, weights sum to one, barycenter is the prior."""
    if sum(w for _, w in entries) != 1 or any(w <= 0 for _, w in entries):
        return False
    if any(sum(p) != 1 or min(p) < 0 for p, _ in entries):
        return False
    bary = [sum((w * p[i] for p, w in entries), Fraction(0)) for i in range(len(prior))]
    return bary == list(prior)


def dilation_json_ok(doc) -> bool:
    """A ``bss --json`` dilation averages back and carries g's measure onto f's.

    Rows sit at the points of the standard measure of g (the sources); each
    row is a distribution over points of the standard measure of f whose
    average is its source, and the rows transport g's weights onto f's.
    """
    dil = doc["dilation"]
    q = measure_from_json(doc["standard_measure_g"])
    p = dict(measure_from_json(doc["standard_measure_f"]))
    sources = [tuple(_vec(s)) for s in dil["sources"]]
    targets = [tuple(_vec(t)) for t in dil["targets"]]
    rows = [_vec(r) for r in dil["rows"]]
    if sources != [point for point, _ in q] or not set(targets) <= set(p):
        return False
    moved = {t: Fraction(0) for t in p}
    for (source, q_weight), row in zip(q, rows):
        if any(w < 0 for w in row) or sum(row) != 1:
            return False
        for i, coord in enumerate(source):
            if sum((w * t[i] for w, t in zip(row, targets)), Fraction(0)) != coord:
                return False
        for w, t in zip(row, targets):
            moved[t] += q_weight * w
    return moved == p


def metadist_entries(md) -> List[Tuple[Tuple[Fraction, ...], Fraction]]:
    """A library standard measure as (point coordinates, weight) pairs."""
    return [(tuple(point.weights), weight) for point, weight in md.entries]


# -- other semirings ---------------------------------------------------------

def tri_value(lib, level: int):
    return (lib.TRI_ZERO, lib.TRI_EPS, lib.TRI_ONE)[level]


def sr_ops(kind: str):
    """(zero, add, mul) on plain values: trilattice levels or rational pairs."""
    if kind == "tri":
        return 0, max, min
    zero = (Fraction(0), Fraction(0))
    return (zero, lambda a, b: (a[0] + b[0], a[1] + b[1]),
            lambda a, b: (a[0] * b[0], a[1] * b[1]))


def plain(kind: str, value):
    return value.level if kind == "tri" else tuple(value)


def compose_oracle(kind: str, g: Matrix, f: Matrix) -> Matrix:
    zero, add, mul = sr_ops(kind)
    out = []
    for col in f:
        acc = [zero] * len(g[0])
        for y, w in enumerate(col):
            for z, v in enumerate(g[y]):
                acc[z] = add(acc[z], mul(w, v))
        out.append(acc)
    return out


def tensor_oracle(kind: str, f: Matrix, g: Matrix) -> Matrix:
    _, _, mul = sr_ops(kind)
    return [[mul(w, v) for w in fa for v in gb] for fa in f for gb in g]


def deterministic_answer(kind: str, f: Matrix) -> bool:
    """Copy preservation over max/min, or componentwise over the pair semiring."""
    if kind == "tri":
        return all(sum(1 for w in col if w) == 1 for col in f)
    return all(sum(1 for w in col if w[i]) == 1 for col in f for i in (0, 1))


def disintegrates(kind: str, joint: Matrix, cond: Matrix, nx: int, ny: int) -> bool:
    """joint(x, y | a) == cond(y | x, a) * marginal(x | a) over the trilattice.

    ``cond`` has one column per (x, a) in row-major order.
    """
    zero, add, mul = sr_ops(kind)
    for a, col in enumerate(joint):
        for x in range(nx):
            marg = zero
            for y in range(ny):
                marg = add(marg, col[x * ny + y])
            k = cond[x * len(joint) + a]
            if any(mul(k[y], marg) != col[x * ny + y] for y in range(ny)):
                return False
    return True
