"""Seeded instance generator with known answers.

Kernels are plain column matrices of ``Fraction`` (``cols[a][x]`` is the
weight of outcome x under input a), so every known answer here is computed
without the library.  Feasible comparisons are built as ``g = c0 . f``;
infeasible ones are redrawn until they carry a total-variation certificate:
a hypothesis pair, inside the prior's support, that g separates further
than f does.  No garbling can increase that distance, so the certificate
proves infeasibility on its own.

Nothing here reads the environment; the same seed gives the same instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Matrix = List[List[Fraction]]

# (theta, X, Y) sizes and the denominator of the channel c0 in g = c0 . f.
# At 6x12x12 a random two-valued channel makes one garbling solve range from
# 0.7 s to 5 s and one dilation from 0.2 s to 9 s, more than one run can
# average, so that rung uses a deterministic channel (a merge of outcomes).
RUNGS = {
    "3x4x4": ((3, 4, 4), 2),
    "4x8x8": ((4, 8, 8), 2),
    "6x12x12": ((6, 12, 12), 1),
}
F_DEN = 4          # denominator of the experiment f
GX_DEN = 2         # denominator of redrawn infeasible targets


def rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{seed}/{tag}")


def labels(prefix: str, n: int) -> List[str]:
    return [f"{prefix}{i}" for i in range(n)]


def composition(r: random.Random, total: int, parts: int) -> List[int]:
    cuts = sorted(r.randint(0, total) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def random_matrix(r: random.Random, n_dom: int, n_cod: int, den: int) -> Matrix:
    return [[Fraction(k, den) for k in composition(r, den, n_cod)] for _ in range(n_dom)]


def mat_compose(c: Matrix, f: Matrix) -> Matrix:
    """(c . f)[a][y] = sum_x f[a][x] * c[x][y]."""
    n_y = len(c[0])
    out = []
    for col in f:
        acc = [Fraction(0)] * n_y
        for x, w in enumerate(col):
            if w:
                for y, v in enumerate(c[x]):
                    if v:
                        acc[y] += w * v
        out.append(acc)
    return out


def tv(p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    return sum((abs(a - b) for a, b in zip(p, q)), Fraction(0)) / 2


def tv_certificate(f: Matrix, g: Matrix, support: Sequence[int]) -> Optional[Tuple[int, int]]:
    """First hypothesis pair in support with TV under g > TV under f."""
    for i, a in enumerate(support):
        for b in support[i + 1:]:
            if tv(g[a], g[b]) > tv(f[a], f[b]):
                return a, b
    return None


def is_point_mass_matrix(m: Matrix) -> bool:
    return all(sum(1 for w in col if w) == 1 for col in m)


@dataclass
class Instance:
    """One experiment f with a feasible and an infeasible target.

    ``g = c0 . f``; ``gx`` admits no garbling from f, as ``cert`` (a pair of
    hypothesis indices inside both priors' supports) proves.  ``full`` is a
    full-support prior and ``part`` a partial one.
    """

    name: str
    theta: List[str]
    x: List[str]
    y: List[str]
    f: Matrix
    c0: Matrix
    g: Matrix
    gx: Matrix
    cert: Tuple[int, int]
    full: List[Fraction]
    part: List[Fraction]


def random_prior(r: random.Random, n: int, support: Sequence[int]) -> List[Fraction]:
    den = r.randint(len(support), 2 * len(support))
    parts = [1 + k for k in composition(r, den - len(support), len(support))]
    weights = [Fraction(0)] * n
    for i, k in zip(support, parts):
        weights[i] = Fraction(k, den)
    return weights


def make_instance(seed: int, rung: str, index: int) -> Instance:
    (nt, nx, ny), c_den = RUNGS[rung]
    r = rng(seed, f"{rung}/{index}")
    while True:
        # When f separates every pair completely (TV 1), no target can carry
        # a certificate; draw f again.
        f = random_matrix(r, nt, nx, F_DEN)
        if any(tv(f[a], f[b]) < 1 for a in range(nt) for b in range(a + 1, nt)):
            break
    c0 = random_matrix(r, nx, ny, c_den)
    g = mat_compose(c0, f)
    while True:
        gx = random_matrix(r, nt, ny, GX_DEN)
        cert = tv_certificate(f, gx, range(nt))
        if cert is not None:
            break
    others = [i for i in range(nt) if i not in cert]
    extra = r.sample(others, r.randint(0, len(others) - 1))
    support = sorted(set(cert) | set(extra))
    return Instance(name=f"{rung}-{index}", theta=labels("t", nt), x=labels("x", nx),
                    y=labels("y", ny), f=f, c0=c0, g=g, gx=gx, cert=cert,
                    full=random_prior(r, nt, range(nt)), part=random_prior(r, nt, support))


def det_given_instance(seed: int, sizes: Tuple[int, int, int], index: int):
    """A joint experiment h : theta -> X (x) Y with a known det-given-left answer.

    ``h(x, y | t) = f(x | t) c(y | x)``; Y is a function of X on the support
    exactly when c is a point mass at every observation f reaches.
    """
    nt, nx, ny = sizes
    r = rng(seed, f"detgiven/{nt}x{nx}x{ny}/{index}")
    f = random_matrix(r, nt, nx, F_DEN)
    c = random_matrix(r, nx, ny, 1 if index % 2 == 0 else 2)
    return (labels("t", nt), labels("x", nx), labels("y", ny),
            joint_matrix(f, c), det_given_answer(f, c))


def joint_matrix(f: Matrix, c: Matrix) -> Matrix:
    """Columns of theta -> X (x) Y in row-major (x, y) order."""
    return [[col[x] * v for x in range(len(c)) for v in c[x]] for col in f]


def det_given_answer(f: Matrix, c: Matrix) -> bool:
    reached = {x for col in f for x, w in enumerate(col) if w}
    return all(sum(1 for w in c[x] if w) == 1 for x in reached)


# -- library objects and file documents -------------------------------------

def to_kernel(lib, cols: Matrix, dom: Sequence, cod, semiring=None):
    """Library kernel from columns; ``cod`` may be a label list or a FiniteSet."""
    sr = semiring or lib.RATIONAL
    dom_set = lib.FiniteSet(dom)
    cod_set = cod if isinstance(cod, lib.FiniteSet) else lib.FiniteSet(cod)
    columns = {a: lib.FinDist(sr, cod_set, {b: w for b, w in zip(cod_set.labels, col)
                                            if w != sr.zero})
               for a, col in zip(dom, cols)}
    return lib.Kernel(sr, dom_set, cod_set, columns)


def to_prior(lib, weights: Sequence[Fraction], theta: Sequence[str]):
    base = lib.FiniteSet(theta)
    return lib.state(lib.FinDist(lib.RATIONAL, base,
                                 {t: w for t, w in zip(theta, weights) if w}))


def kernel_doc(cols: Matrix, dom: Sequence[str], cod: Sequence) -> dict:
    keys = [",".join(b) if isinstance(b, tuple) else b for b in cod]
    return {"dom": list(dom),
            "cod": [list(b) if isinstance(b, tuple) else b for b in cod],
            "columns": {a: {k: str(w) for k, w in zip(keys, col) if w}
                        for a, col in zip(dom, cols)}}


def experiment_doc(inst: Instance, joint=None) -> dict:
    doc = {
        "semiring": "rational",
        "theta": inst.theta,
        "kernels": {
            "f": kernel_doc(inst.f, inst.theta, inst.x),
            "g": kernel_doc(inst.g, inst.theta, inst.y),
            "gx": kernel_doc(inst.gx, inst.theta, inst.y),
            "c": kernel_doc(inst.c0, inst.x, inst.y),
        },
        "priors": {
            "full": {t: str(w) for t, w in zip(inst.theta, inst.full) if w},
            "part": {t: str(w) for t, w in zip(inst.theta, inst.part) if w},
        },
    }
    if joint is not None:
        cod = [(x, y) for x in inst.x for y in inst.y]
        doc["kernels"]["h"] = kernel_doc(joint, inst.theta, cod)
    return doc
