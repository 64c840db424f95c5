"""Minimal dense LP facility.

A two-phase tableau simplex with no module state, sized for the small
dense programs this package generates (tens of variables, tens of
constraints). It is deterministic: identical input bytes produce the
identical optimal vertex, which matters because downstream attainment
flags read slack values off whichever optimum is returned.

The one entry point is ``maximize``: a dense LP over nonnegative variables
with inequality and equality rows, returning a vertex optimum. Every LP
takes one path, one without rows too. Its tableau has a row per
constraint, then row ``m`` holding the phase's objective, and the columns
``[x | slacks | rhs]``, a slack per inequality row. An equality row, or a
row negated (exactly) to ``>=`` by a negative right-hand side, starts the
phase-1 basis on an artificial: a label after the slacks' that never
enters, so only the re-check builds its unit column. The basis is an int
array of one label per row. The ratio test reads only rows with a positive
entry in the entering column. The vertex's last bits depend on the order
of float operations, which is kept: a pivot updates row ``m`` by the same
products and subtractions as the other rows; the phase-1 objective sums
the artificial rows and the phase-2 one is reduced by one basic row at a
time, both in row order.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

_ENTER_TOL = 1e-9
_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    FAILED = "failed"


@dataclass
class DenseResult:
    status: LpStatus
    x: np.ndarray | None = None
    objective: float | None = None


def _pivot(T, basis, r, j):
    """Pivot on ``T[r, j]``, updating the objective row with the others."""
    row = T[r]
    row /= row[j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.multiply.outer(col, row)
    basis[r] = j


def _run_phase(T, basis, max_iter):
    """Pivot until no column of ``T``, ``[x | slacks | rhs]``, has positive
    reduced cost; an artificial is a basis label that never enters, and
    only the re-check builds its unit column. Dantzig entering rule with
    first-index tie-break; falls back to Bland's rule after ``max_iter // 2``
    pivots to rule out cycling, and fails after ``max_iter + 1``. Leaving
    row breaks ratio ties on the smallest basic-variable index."""
    red, rhs = T[-1, :-1], T[:-1, -1]  # views, updated by each pivot
    for it in range(max_iter + 1):
        if it < max_iter // 2:
            j = red.argmax()
            if red[j] <= _ENTER_TOL:
                return "optimal"
        else:
            cand = (red > _ENTER_TOL).nonzero()[0]
            if not cand.size:
                return "optimal"
            j = cand[0]
        col = T[:-1, j]
        rows = (col > _PIVOT_TOL).nonzero()[0]
        if not rows.size:
            return "unbounded"
        ratios = rhs[rows] / col[rows]
        tied = rows[ratios <= np.minimum.reduce(ratios) + 1e-12]
        r = tied[0] if tied.size == 1 else tied[basis[tied].argmin()]
        _pivot(T, basis, r, j)
    return "failed"


def _rows(A, b, n):
    """``(A, b)`` as ``(k, n)`` and ``(k,)`` float arrays; ``None`` or empty
    gives ``k = 0``."""
    if A is None or len(A) == 0:
        return np.zeros((0, n)), np.zeros(0)
    return np.asarray(A, dtype=float).reshape(-1, n), np.asarray(b, dtype=float).ravel()


def maximize(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> DenseResult:
    """Maximize ``c @ x`` over ``x >= 0`` subject to ``A_ub x <= b_ub`` and
    ``A_eq x == b_eq``. Returns a vertex optimum."""
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    A_ub, b_ub = _rows(A_ub, b_ub, n)
    A_eq, b_eq = _rows(A_eq, b_eq, n)
    k, m = len(b_ub), len(b_ub) + len(b_eq)

    # rows with a negative right-hand side are negated; <= rows become >=
    flip = (b_ub < 0).nonzero()[0]
    art_rows = np.concatenate((flip, np.arange(k, m)))
    art_start = n + k  # the first artificial's label
    ncols = art_start + len(art_rows)  # every label, artificials included

    def tableau():
        T = np.zeros((m + 1, art_start + 1))
        T[:k, :n], T[k:m, :n] = A_ub, A_eq
        T[:k, -1], T[k:m, -1] = b_ub, b_eq
        neg = (T[:m, -1] < 0).nonzero()[0]
        if neg.size:  # fancy-index writes cost microseconds even when empty
            T[neg, :n] = -T[neg, :n]
            T[neg, -1] = -T[neg, -1]
        T[:k, n:art_start] = np.eye(k)
        if flip.size:
            T[flip, n + flip] = -1.0
        return T

    T = tableau()
    basis = np.arange(n, n + m)  # a <= row's slack is column n + row
    basis[art_rows] = np.arange(art_start, ncols)  # a >= or == row starts on its artificial
    max_iter = 200 * (m + ncols)
    obj = T[-1]

    # phase 1: maximize minus the sum of artificials
    if len(art_rows):
        obj[:] = T[art_rows].sum(axis=0)
        if _run_phase(T, basis, max_iter) == "failed":
            return DenseResult(LpStatus.FAILED)
        if sum(T[:-1, -1][basis >= art_start]) > 1e-8:
            return DenseResult(LpStatus.INFEASIBLE)
        # drive residual artificials out (degenerate rows); obj is not read
        for i in (basis >= art_start).nonzero()[0]:
            nz = (np.abs(T[i, :-1]) > _PIVOT_TOL).nonzero()[0]
            if nz.size:
                _pivot(T, basis, i, nz[0])
            else:
                T[i, :] = 0.0  # redundant constraint

    # phase 2, reduced row by row (see the module docstring)
    obj[:] = 0.0
    obj[:n] = c
    for i, j in enumerate(basis.tolist()):
        if j < art_start and obj[j] != 0.0:
            obj -= obj[j] * T[i]
    status = _run_phase(T, basis, max_iter)
    if status != "optimal":
        return DenseResult(LpStatus(status))  # unbounded or failed

    def infeasible(xs):
        return ((xs < -_FEAS_TOL).any() or (A_ub @ xs - b_ub > _FEAS_TOL).any()
                or (np.abs(A_eq @ xs - b_eq) > _FEAS_TOL).any())

    x = np.zeros(ncols)
    x[basis] = T[:-1, -1]
    # independent re-check: the tableau is never refactorized, so a vertex
    # pushed off the rows by rounding is solved afresh from them and checked
    if infeasible(x[:n]):
        T = tableau()[:-1]
        cols = np.hstack((T[:, :-1], np.eye(m)[:, art_rows]))  # an artificial's is a unit column
        try:
            x[basis] = np.linalg.solve(cols[:, basis], T[:, -1])
        except np.linalg.LinAlgError:  # singular basis
            return DenseResult(LpStatus.FAILED)
        if infeasible(x[:n]):
            return DenseResult(LpStatus.FAILED)
    return DenseResult(LpStatus.OPTIMAL, x[:n].copy(), float(c @ x[:n]))
