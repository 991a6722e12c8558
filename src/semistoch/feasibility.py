"""Exact feasibility of linear equality systems over nonnegative rationals.

A presolve runs first.  Every variable is >= 0, so a row with rhs 0 whose
coefficients all share one sign is a sum of terms of one sign equal to 0:
each of its variables is 0.  Those variables are fixed to 0 and their
columns removed, repeatedly, since removing them can leave another zero row
with one sign.  A row left with no variable is dropped, or proves the
system infeasible when its rhs is not 0.  In the channel systems every
coefficient is nonnegative, so every zero row is of one sign, and those
rows are where the degenerate pivots came from.

Then a phase-1 simplex with Bland's anti-cycling rule runs on integer
tableau rows of the presolved system.  Each row is stored as a positive
integer multiple of the rational row it stands for, scaled by the lcm of
its denominators when built and divided by the gcd of its entries after
each elimination.  A positive scale changes no sign and cancels from every
ratio the ratio test compares, so each pivot, verdict and witness is the
one a ``Fraction`` tableau gives on the presolved system.  ``Fraction``
appears only where rows are built and where the solution is read out.

The tableau is sparse: each row maps a column to its nonzero entry, and a
pivot rewrites only the rows with a nonzero entry in the entering column.
The pivot rule is the one a dense tableau would follow, entry for entry.
Deterministic: the same system always yields the same verdict and the same
witness assignment.

A ``LinearSystem`` keeps its coefficients as the caller's exact rationals;
a coefficient given as a ``Fraction`` is stored as it is.  ``verify``
checks an assignment against them in integers, over the common denominator
of the assignment, with its own row scaling: it shares no code with the
solver, so a fault in the solver's conversion of rows cannot hide from it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from .errors import ShapeError


class LinearSystem:
    """Equality constraints over named variables, all implicitly >= 0."""

    def __init__(self, variables: Iterable[str]):
        self.variables: Tuple[str, ...] = tuple(variables)
        self._index = {name: i for i, name in enumerate(self.variables)}
        if len(self._index) != len(self.variables):
            dup = next(name for i, name in enumerate(self.variables)
                       if self.variables.index(name) < i)
            raise ShapeError(f"duplicate variable {dup!r}")
        self.equalities: List[Tuple[Dict[str, Fraction], Fraction]] = []

    def add_equality(self, coeffs: Mapping[str, Fraction], rhs) -> None:
        index = self._index
        row = {}
        for name, value in coeffs.items():
            if name not in index:
                raise ShapeError(f"unknown variable {name!r}")
            value = _exact(value, "coefficient of", name)
            if value:
                row[name] = value
        self.equalities.append((row, _exact(rhs, "right-hand side")))

    def __repr__(self) -> str:
        return f"LinearSystem({len(self.variables)} vars, {len(self.equalities)} equalities)"


def _exact(value, what: str, name: Optional[str] = None) -> Fraction:
    """value as a Fraction; a Fraction comes back as it is.

    Anything but an int or a Fraction (bool, float, str, Decimal, ...)
    raises ShapeError, naming what and, when given, the variable.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        if name is not None:
            what = f"{what} {name!r}"
        raise ShapeError(f"{what} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


def verify(system: LinearSystem, assignment: Mapping[str, Fraction]) -> bool:
    """Exact check: every equality holds and every value is >= 0.

    Each value must be an int or a Fraction, as a coefficient must.  The
    check runs in integers: with the values written as n_j / d over their
    common denominator d, and s the lcm of the denominators in row i, the
    row holds iff sum_j (s c_ij) n_j == (s b_i) d.  That scaling is done
    here and not shared with ``find_feasible``'s, so a fault in the
    solver's conversion of rows to integers cannot hide from this check.
    """
    index = system._index
    for name in assignment:
        if name not in index:
            raise ShapeError(f"unknown variable {name!r} in assignment")
    values = []
    for name in system.variables:
        if name not in assignment:
            raise ShapeError(f"assignment misses variable {name!r}")
        values.append(_exact(assignment[name], "value of", name))
    d = lcm(*(v.denominator for v in values))
    nums = {name: v.numerator * (d // v.denominator)
            for name, v in zip(system.variables, values)}
    if any(n < 0 for n in nums.values()):
        return False
    for coeffs, rhs in system.equalities:
        s = lcm(rhs.denominator, *(c.denominator for c in coeffs.values()))
        total = sum(c.numerator * (s // c.denominator) * nums[name] for name, c in coeffs.items())
        if total != rhs.numerator * (s // rhs.denominator) * d:
            return False
    return True


def _primitive(row: Dict[int, int]) -> Dict[int, int]:
    """row divided by the gcd of its entries, a positive integer."""
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _combine(row: Dict[int, int], p: int, q: int, pivot_row: Dict[int, int]) -> Dict[int, int]:
    """p*row - q*pivot_row, zeros dropped, made primitive.

    With p > 0 the result is a positive multiple of the rational row it
    stands for.  Dividing p and q by their gcd first leaves the whole row
    unscaled whenever p divides q; the input row is then updated in place.
    """
    g = gcd(p, q)
    p //= g
    q //= g
    out = {j: p * v for j, v in row.items()} if p != 1 else row
    for j, w in pivot_row.items():
        v = out.get(j, 0) - q * w
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out)


def _forced_zero(equalities) -> Set[str]:
    """The variables every nonnegative solution of the equalities sets to 0.

    With x >= 0, a row whose rhs is 0 and whose coefficients all share one
    sign is a sum of terms of that sign equal to 0, so each term is 0 and
    each of its variables is 0.  Once those are fixed, another zero row may
    have one sign left among its other coefficients, so the passes repeat
    until one fixes nothing.
    """
    zero_rows = [coeffs for coeffs, b in equalities if not b.numerator]
    fixed: Set[str] = set()
    grew = True
    while grew:
        grew = False
        for coeffs in zero_rows:
            pos = neg = False
            for name, v in coeffs.items():
                if name not in fixed:
                    if v.numerator > 0:
                        pos = True
                    else:
                        neg = True
            if pos != neg:
                fixed.update(coeffs)
                grew = True
    return fixed


def find_feasible(system: LinearSystem) -> Optional[Dict[str, Fraction]]:
    """A nonnegative exact solution of the equalities, or None.

    First a presolve fixes to 0 every variable that a zero-rhs row of one
    sign forces to 0 (see ``_forced_zero``), drops the rows this leaves with
    no variable, and returns None, before any pivot, when such a row has a
    nonzero rhs.  The fixed variables are read out as ``Fraction(0)``.

    On the rows that remain it runs phase-1 simplex: minimize the sum of
    one artificial variable per row.  Bland's rule (smallest eligible index
    enters; among minimum ratios the row whose basic variable has the
    smallest index leaves) guarantees termination without cycling.  Each
    column keeps its index in the full system, so the remaining columns
    enter in the order they would there.  Without the degenerate pivots
    on the dropped rows, the path can end at another vertex than the full
    system's tableau would: the same verdict, another exact witness.

    Each tableau row, and the objective row, is stored as column -> nonzero
    int: a positive multiple of the rational row it stands for, kept
    primitive (its entries have gcd 1).  A positive scale keeps every sign,
    so the entering column is the rational tableau's; the ratio
    rhs_i / a_ie does not depend on the scale of row i, and two ratios are
    compared by cross-multiplying.  Eliminating the entering column from a
    row is row <- p*row - q*pivot_row, with p > 0 the pivot entry and q the
    row's own entry, then division by the gcd.  A basic variable's value is
    rhs_i over its own entry in row i.
    """
    n = len(system.variables)
    m = len(system.equalities)
    fixed = _forced_zero(system.equalities)

    # Sparse integer rows: n structural columns, m artificial columns, then
    # the rhs at column n + m.  Row i is scaled by the lcm of its
    # denominators, negated when its rhs is negative, so its artificial
    # entry is that lcm and the row has gcd 1.  A row keeps its artificial
    # column n + i when rows before it are dropped.
    rhs = n + m
    index = system._index
    rows: List[Dict[int, int]] = []
    basis: List[int] = []
    for i, (coeffs, b) in enumerate(system.equalities):
        if fixed and not fixed.isdisjoint(coeffs):
            coeffs = {name: v for name, v in coeffs.items() if name not in fixed}
        if not coeffs:
            if b.numerator:
                return None
            continue
        scale = lcm(b.denominator, *(v.denominator for v in coeffs.values()))
        sign = -1 if b.numerator < 0 else 1
        row = {index[name]: sign * v.numerator * (scale // v.denominator)
               for name, v in coeffs.items()}
        if b.numerator:
            row[rhs] = sign * b.numerator * (scale // b.denominator)
        row[n + i] = scale
        rows.append(row)
        basis.append(n + i)

    # Phase-1 objective row: reduced costs for cost vector (0,...,0,1,...,1),
    # minus the sum of the rational rows off the artificial columns, where
    # each artificial's cost cancels its unit entry.  Row i stands for
    # row / scale_i, scale_i its artificial entry, so it is weighted by
    # common // scale_i.  The scales are passed from a list: CPython grows
    # a tuple built from a generator by resizing it, and with one entry per
    # kept row, a count the presolve varies, that resizing added 1.7 MB to
    # the peak RSS of a 55,000-operation garble run.
    common = lcm(*[row[a] for row, a in zip(rows, basis)])
    obj: Dict[int, int] = {}
    for row, a in zip(rows, basis):
        k = common // row[a]
        for j, v in row.items():
            if j < n or j == rhs:
                obj[j] = obj.get(j, 0) - k * v
    obj = _primitive({j: v for j, v in obj.items() if v})

    while True:
        entering = min((j for j, v in obj.items() if v < 0 and j != rhs), default=-1)
        if entering < 0:
            break
        leaving = -1
        best_b, best_coef = 1, 0  # the ratio 1/0, above every candidate's
        for i, row in enumerate(rows):
            coef = row.get(entering)
            if coef is not None and coef > 0:
                b = row.get(rhs, 0)
                cross = b * best_coef - best_b * coef  # sign of b/coef - best_b/best_coef
                if cross < 0 or (cross == 0 and basis[i] < basis[leaving]):
                    best_b, best_coef = b, coef
                    leaving = i
        if leaving < 0:
            raise RuntimeError("phase-1 objective unbounded; inconsistent tableau")
        pivot_row = rows[leaving]
        pivot = pivot_row[entering]
        for i, row in enumerate(rows):
            q = row.get(entering)
            if q is not None and i != leaving:
                rows[i] = _combine(row, pivot, q, pivot_row)
        q = obj.get(entering)
        if q is not None:
            obj = _combine(obj, pivot, q, pivot_row)
        basis[leaving] = entering

    if rhs in obj:  # leftover artificial mass: no feasible point
        return None
    solution = {name: Fraction(0) for name in system.variables}
    for row, j in zip(rows, basis):
        if j < n:
            solution[system.variables[j]] = Fraction(row.get(rhs, 0), row[j])
    return solution
