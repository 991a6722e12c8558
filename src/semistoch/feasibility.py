"""Exact feasibility of linear equality systems over nonnegative rationals.

Phase-1 simplex on Fraction arithmetic with Bland's anti-cycling rule.
The tableau is sparse: each row maps a column to its nonzero entry, so a
pivot touches only the nonzeros of the pivot row, and only in the rows
with a nonzero entry in the entering column.  The pivot rule is the one a
dense tableau would follow, entry for entry.  Deterministic: the same
system always yields the same verdict and the same witness assignment.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .errors import ShapeError


class LinearSystem:
    """Equality constraints over named variables, all implicitly >= 0."""

    def __init__(self, variables: Iterable[str]):
        self.variables: Tuple[str, ...] = tuple(variables)
        seen = set()
        for name in self.variables:
            if name in seen:
                raise ShapeError(f"duplicate variable {name!r}")
            seen.add(name)
        self._index = {name: i for i, name in enumerate(self.variables)}
        self.equalities: List[Tuple[Dict[str, Fraction], Fraction]] = []

    def add_equality(self, coeffs: Mapping[str, Fraction], rhs) -> None:
        row = {}
        for name, value in coeffs.items():
            if name not in self._index:
                raise ShapeError(f"unknown variable {name!r}")
            value = Fraction(value)
            if value != 0:
                row[name] = value
        self.equalities.append((row, Fraction(rhs)))

    def __repr__(self) -> str:
        return f"LinearSystem({len(self.variables)} vars, {len(self.equalities)} equalities)"


def verify(system: LinearSystem, assignment: Mapping[str, Fraction]) -> bool:
    """Exact check: every equality holds and every value is >= 0."""
    for name in assignment:
        if name not in system._index:
            raise ShapeError(f"unknown variable {name!r} in assignment")
    values = {}
    for name in system.variables:
        if name not in assignment:
            raise ShapeError(f"assignment misses variable {name!r}")
        values[name] = Fraction(assignment[name])
    if any(v < 0 for v in values.values()):
        return False
    for coeffs, rhs in system.equalities:
        total = sum((c * values[name] for name, c in coeffs.items()), Fraction(0))
        if total != rhs:
            return False
    return True


def _eliminate(row: Dict[int, Fraction], factor: Fraction, pivot_row: Dict[int, Fraction]) -> None:
    """row -= factor * pivot_row, in place, dropping entries that become zero."""
    neg = -factor
    for j, w in pivot_row.items():
        v = row.get(j)
        if v is None:
            row[j] = neg * w
        else:
            v += neg * w
            if v:
                row[j] = v
            else:
                del row[j]


def find_feasible(system: LinearSystem) -> Optional[Dict[str, Fraction]]:
    """A nonnegative exact solution of the equalities, or None.

    Runs phase-1 simplex: minimize the sum of one artificial variable per
    row.  Bland's rule (smallest eligible index enters; among minimum
    ratios the row whose basic variable has the smallest index leaves)
    guarantees termination without cycling.
    """
    n = len(system.variables)
    m = len(system.equalities)
    if m == 0:
        return {name: Fraction(0) for name in system.variables}

    # Sparse tableau rows, column -> nonzero entry: n structural columns,
    # m artificial columns, then the rhs at column n + m.
    rhs = n + m
    rows: List[Dict[int, Fraction]] = []
    for i, (coeffs, b) in enumerate(system.equalities):
        row = {system._index[name]: value for name, value in coeffs.items()}
        if b != 0:
            row[rhs] = b
        if b < 0:
            row = {j: -v for j, v in row.items()}
        row[n + i] = Fraction(1)
        rows.append(row)
    basis = [n + i for i in range(m)]

    # Phase-1 objective row: reduced costs for cost vector (0,...,0,1,...,1).
    # Each artificial column's cost cancels its unit entry, leaving zero.
    obj: Dict[int, Fraction] = {}
    for row in rows:
        for j, v in row.items():
            if j < n or j == rhs:
                obj[j] = obj.get(j, 0) - v
    obj = {j: v for j, v in obj.items() if v}

    while True:
        entering = min((j for j, v in obj.items() if v < 0 and j != rhs), default=-1)
        if entering < 0:
            break
        leaving = -1
        best: Optional[Fraction] = None
        for i, row in enumerate(rows):
            coef = row.get(entering)
            if coef is not None and coef > 0:
                ratio = row.get(rhs, 0) / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("phase-1 objective unbounded; inconsistent tableau")
        pivot_row = rows[leaving]
        pivot = pivot_row[entering]
        if pivot != 1:
            pivot_row = rows[leaving] = {j: v / pivot for j, v in pivot_row.items()}
        for i, row in enumerate(rows):
            if i != leaving and entering in row:
                _eliminate(row, row[entering], pivot_row)
        if entering in obj:
            _eliminate(obj, obj[entering], pivot_row)
        basis[leaving] = entering

    if rhs in obj:  # leftover artificial mass: no feasible point
        return None
    solution = {name: Fraction(0) for name in system.variables}
    for i in range(m):
        if basis[i] < n:
            solution[system.variables[basis[i]]] = rows[i].get(rhs, Fraction(0))
    return solution
