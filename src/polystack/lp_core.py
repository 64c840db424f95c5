"""Minimal dense LP facility.

A two-phase tableau simplex, sized for the small dense programs this
package generates (tens of variables, tens of constraints). The solver is
deterministic: identical input bytes produce the identical optimal vertex,
which matters because downstream attainment flags read slack values off
whichever optimum is returned.

The one entry point is ``maximize``: a dense LP over nonnegative variables
with inequality and equality rows, returning a vertex optimum.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

_ENTER_TOL = 1e-9
_PIVOT_TOL = 1e-9
_FEAS_TOL = 1e-7

# counts calls into the simplex core; used by tests asserting LP budgets
_counter_lock = threading.Lock()
_solve_count = 0


def lp_solve_count() -> int:
    return _solve_count


def reset_lp_solve_count() -> None:
    global _solve_count
    with _counter_lock:
        _solve_count = 0


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


def _pivot(T, obj, basis, r, j):
    piv = T[r, j]
    T[r] = T[r] / piv
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r])
    obj -= obj[j] * T[r]
    basis[r] = j


def _run_phase(T, obj, basis, allowed, max_iter):
    """Pivot until no allowed column has positive reduced cost.

    Dantzig entering rule with first-index tie-break; falls back to Bland's
    rule after ``max_iter // 2`` iterations to rule out cycling. Leaving row
    breaks ratio ties on the smallest basic-variable index.
    """
    m = T.shape[0]
    ncols = T.shape[1] - 1
    it = 0
    bland_after = max_iter // 2
    while True:
        red = obj[:ncols]
        if it < bland_after:
            vals = np.where(allowed, red, -np.inf)
            j = int(np.argmax(vals))
            if vals[j] <= _ENTER_TOL:
                return "optimal"
        else:
            cand = np.nonzero(allowed & (red > _ENTER_TOL))[0]
            if cand.size == 0:
                return "optimal"
            j = int(cand[0])
        col = T[:m, j]
        pos = col > _PIVOT_TOL
        if not pos.any():
            return "unbounded"
        ratios = np.where(pos, T[:m, -1] / np.where(pos, col, 1.0), np.inf)
        rmin = ratios.min()
        tied = np.nonzero(ratios <= rmin + 1e-12)[0]
        r = int(tied[np.argmin(np.asarray(basis)[tied])])
        _pivot(T, obj, basis, r, j)
        it += 1
        if it > max_iter:
            return "failed"


def maximize(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None) -> DenseResult:
    """Maximize ``c @ x`` over ``x >= 0`` subject to ``A_ub x <= b_ub`` and
    ``A_eq x == b_eq``. Returns a vertex optimum."""
    global _solve_count
    with _counter_lock:
        _solve_count += 1

    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    rows = []
    rels = []  # +1: <=, 0: ==, -1: >=
    rhs = []
    if A_ub is not None and len(A_ub) > 0:
        A_ub = np.asarray(A_ub, dtype=float).reshape(-1, n)
        b_ub = np.asarray(b_ub, dtype=float).ravel()
        for i in range(A_ub.shape[0]):
            rows.append(A_ub[i])
            rels.append(1)
            rhs.append(b_ub[i])
    if A_eq is not None and len(A_eq) > 0:
        A_eq = np.asarray(A_eq, dtype=float).reshape(-1, n)
        b_eq = np.asarray(b_eq, dtype=float).ravel()
        for i in range(A_eq.shape[0]):
            rows.append(A_eq[i])
            rels.append(0)
            rhs.append(b_eq[i])
    m = len(rows)
    if m == 0:
        # only x >= 0: bounded iff no positive objective coefficient
        if (c > _ENTER_TOL).any():
            return DenseResult(LpStatus.UNBOUNDED)
        return DenseResult(LpStatus.OPTIMAL, np.zeros(n), 0.0)

    A = np.array(rows, dtype=float)
    b = np.array(rhs, dtype=float)
    rel = np.array(rels, dtype=int)
    neg = b < 0
    A[neg] = -A[neg]
    b[neg] = -b[neg]
    rel[neg] = -rel[neg]

    n_slack = int((rel != 0).sum())
    art_rows = [i for i in range(m) if rel[i] != 1]
    n_art = len(art_rows)
    ncols = n + n_slack + n_art

    T = np.zeros((m, ncols + 1))
    T[:, :n] = A
    T[:, -1] = b
    basis = [0] * m
    si = 0
    for i in range(m):
        if rel[i] != 0:
            T[i, n + si] = 1.0 if rel[i] == 1 else -1.0
            if rel[i] == 1:
                basis[i] = n + si
            si += 1
    for k, i in enumerate(art_rows):
        T[i, n + n_slack + k] = 1.0
        basis[i] = n + n_slack + k

    max_iter = 200 * (m + ncols)
    art_start = n + n_slack

    # phase 1: maximize minus the sum of artificials
    if n_art:
        obj = np.zeros(ncols + 1)
        for i in art_rows:
            obj[:ncols] += T[i, :ncols]
            obj[-1] += T[i, -1]
        obj[art_start:ncols] = 0.0
        allowed = np.ones(ncols, dtype=bool)
        allowed[art_start:] = False
        status = _run_phase(T, obj, basis, allowed, max_iter)
        if status == "failed":
            return DenseResult(LpStatus.FAILED)
        infeas = sum(T[i, -1] for i in range(m) if basis[i] >= art_start)
        if infeas > 1e-8:
            return DenseResult(LpStatus.INFEASIBLE)
        # drive residual artificials out of the basis (degenerate rows)
        for i in range(m):
            if basis[i] >= art_start:
                nz = np.nonzero(np.abs(T[i, :art_start]) > _PIVOT_TOL)[0]
                if nz.size:
                    dummy = np.zeros(ncols + 1)
                    _pivot(T, dummy, basis, i, int(nz[0]))
                else:
                    T[i, :] = 0.0  # redundant constraint

    # phase 2
    obj = np.zeros(ncols + 1)
    obj[:n] = c
    for i in range(m):
        if basis[i] < art_start and obj[basis[i]] != 0.0:
            coef = obj[basis[i]]
            obj -= coef * T[i]
    allowed = np.ones(ncols, dtype=bool)
    allowed[art_start:] = False
    status = _run_phase(T, obj, basis, allowed, max_iter)
    if status == "unbounded":
        return DenseResult(LpStatus.UNBOUNDED)
    if status == "failed":
        return DenseResult(LpStatus.FAILED)

    x = np.zeros(ncols)
    for i in range(m):
        x[basis[i]] = T[i, -1]
    xs = x[:n]
    # independent feasibility re-check; a violated vertex is a solver failure
    if (xs < -_FEAS_TOL).any():
        return DenseResult(LpStatus.FAILED)
    if A_ub is not None and len(A_ub) > 0:
        if (A_ub @ xs - np.asarray(b_ub).ravel() > _FEAS_TOL).any():
            return DenseResult(LpStatus.FAILED)
    if A_eq is not None and len(A_eq) > 0:
        if (np.abs(A_eq @ xs - np.asarray(b_eq).ravel()) > _FEAS_TOL).any():
            return DenseResult(LpStatus.FAILED)
    return DenseResult(LpStatus.OPTIMAL, xs.copy(), float(c @ xs))
