"""Dense phase-1 simplex, kept as a differential oracle for the sparse solver.

This is the library's original ``find_feasible``: a dense ``Fraction``
tableau that rewrites every entry of every row on each pivot.  The sparse
solver in ``semistoch.feasibility`` follows the same pivot rule, so on any
system both must return the same verdict and the identical solution.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional

from semistoch import LinearSystem


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

    # Tableau rows: n structural columns, m artificial columns, then rhs.
    rows: List[List[Fraction]] = []
    for i, (coeffs, rhs) in enumerate(system.equalities):
        row = [Fraction(0)] * (n + m + 1)
        for name, value in coeffs.items():
            row[system._index[name]] = value
        row[n + m] = rhs
        if rhs < 0:
            row = [-v for v in row]
        row[n + i] = Fraction(1)
        rows.append(row)
    basis = [n + i for i in range(m)]

    # Phase-1 objective row: reduced costs for cost vector (0,...,0,1,...,1).
    obj = [Fraction(0)] * (n + m + 1)
    for j in range(n + m + 1):
        col_sum = sum((rows[i][j] for i in range(m)), Fraction(0))
        cost = Fraction(0) if j < n else Fraction(1)
        obj[j] = cost - col_sum
    obj[n + m] = -sum((rows[i][n + m] for i in range(m)), Fraction(0))

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
        for i in range(m):
            coef = rows[i][entering]
            if coef > 0:
                ratio = rows[i][n + m] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            raise RuntimeError("phase-1 objective unbounded; inconsistent tableau")
        pivot = rows[leaving][entering]
        rows[leaving] = [v / pivot for v in rows[leaving]]
        for i in range(m):
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
    for i in range(m):
        if basis[i] < n:
            solution[system.variables[basis[i]]] = rows[i][n + m]
    return solution
