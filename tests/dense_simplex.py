"""Dense phase-1 simplex, kept as a differential oracle for the sparse solver.

This is the library's original ``find_feasible``: a dense ``Fraction``
tableau that rewrites every entry of every row on each pivot.  By default
it first runs the same presolve as the sparse solver, written here a second
time and over ``Fraction``: every variable of a zero-rhs row whose unfixed
coefficients share one sign is fixed to 0, to a fixed point, and a row left
with no variable is dropped, or makes the system infeasible when its rhs is
not 0.  The sparse solver in ``semistoch.feasibility`` follows the same
pivot rule on the same presolved rows, so on any system both must return
the same verdict and the identical solution.

``presolve=False`` runs the tableau on the full system, as the library did
before the presolve.  Its pivots and witness can differ from the presolved
ones, but its verdict cannot.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Set

from semistoch import LinearSystem


def forced_zero(system: LinearSystem) -> Set[str]:
    """The variables a zero-rhs row of one sign fixes to 0, to a fixed point."""
    fixed: Set[str] = set()
    while True:
        new = set()
        for coeffs, rhs in system.equalities:
            signs = {value > 0 for name, value in coeffs.items() if name not in fixed}
            if rhs == 0 and len(signs) == 1:
                new.update(name for name in coeffs if name not in fixed)
        if not new:
            return fixed
        fixed |= new


def find_feasible(system: LinearSystem, presolve: bool = True) -> Optional[Dict[str, Fraction]]:
    """A nonnegative exact solution of the equalities, or None.

    Runs phase-1 simplex: minimize the sum of one artificial variable per
    row.  Bland's rule (smallest eligible index enters; among minimum
    ratios the row whose basic variable has the smallest index leaves)
    guarantees termination without cycling.  With ``presolve``, the
    variables of ``forced_zero`` get no tableau entry and the rows left
    empty are dropped; every column, artificial ones too, keeps its index
    in the full system.
    """
    n = len(system.variables)
    m = len(system.equalities)
    fixed = forced_zero(system) if presolve else set()

    # Tableau rows: n structural columns, m artificial columns, then rhs.
    rows: List[List[Fraction]] = []
    basis: List[int] = []
    for i, (coeffs, rhs) in enumerate(system.equalities):
        kept = {name: value for name, value in coeffs.items() if name not in fixed}
        if presolve and not kept:
            if rhs != 0:
                return None
            continue
        row = [Fraction(0)] * (n + m + 1)
        for name, value in kept.items():
            row[system._index[name]] = value
        row[n + m] = rhs
        if rhs < 0:
            row = [-v for v in row]
        row[n + i] = Fraction(1)
        rows.append(row)
        basis.append(n + i)

    # Phase-1 objective row: reduced costs for cost vector (0,...,0,1,...,1).
    # A dropped row's artificial column is empty and its reduced cost 1.
    obj = [Fraction(0)] * (n + m + 1)
    for j in range(n + m):
        col_sum = sum((row[j] for row in rows), Fraction(0))
        cost = Fraction(0) if j < n else Fraction(1)
        obj[j] = cost - col_sum
    obj[n + m] = -sum((row[n + m] for row in rows), Fraction(0))

    while True:
        entering = -1
        for j in range(n + m):
            if obj[j] < 0:
                entering = j
                break
        if entering < 0:
            break
        leaving = -1
        best: Optional[Fraction] = None
        for i, row in enumerate(rows):
            coef = row[entering]
            if coef > 0:
                ratio = row[n + m] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("phase-1 objective unbounded; inconsistent tableau")
        pivot = rows[leaving][entering]
        rows[leaving] = [v / pivot for v in rows[leaving]]
        for i in range(len(rows)):
            if i != leaving and rows[i][entering] != 0:
                factor = rows[i][entering]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[leaving])]
        if obj[entering] != 0:
            factor = obj[entering]
            obj = [v - factor * w for v, w in zip(obj, rows[leaving])]
        basis[leaving] = entering

    if -obj[n + m] != 0:  # leftover artificial mass: no feasible point
        return None
    solution = {name: Fraction(0) for name in system.variables}
    for row, j in zip(rows, basis):
        if j < n:
            solution[system.variables[j]] = row[n + m]
    return solution
