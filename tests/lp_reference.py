"""The two-phase simplex of ``lp_core`` before its pivots were streamlined,
kept verbatim as the reference that ``test_lp_core`` holds the current
kernel to: the rewrite keeps every floating-point operation and its order,
so both must return the same status, the same ``x`` bytes and the same
objective on every LP. pytest does not collect this file.
"""

import numpy as np

from polystack.lp_core import _ENTER_TOL, _FEAS_TOL, _PIVOT_TOL, DenseResult, LpStatus


def _pivot(T, obj, basis, r, j):
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= col[:, None] * T[r]
    obj -= obj[j] * T[r]
    basis[r] = j


def _run_phase(T, obj, basis, ncols, max_iter):
    """Pivot until no column before ``ncols`` has positive reduced cost.

    ``ncols`` is the index of the first artificial column: in both phases
    only ``x`` and slack columns may enter. Dantzig entering rule with
    first-index tie-break; falls back to Bland's rule after ``max_iter // 2``
    pivots to rule out cycling, and fails after ``max_iter + 1``. Leaving
    row breaks ratio ties on the smallest basic-variable index.
    """
    for it in range(max_iter + 1):
        red = obj[:ncols]
        if it < max_iter // 2:
            j = int(np.argmax(red))
            if red[j] <= _ENTER_TOL:
                return "optimal"
        else:
            cand = np.nonzero(red > _ENTER_TOL)[0]
            if cand.size == 0:
                return "optimal"
            j = int(cand[0])
        rows = np.nonzero(T[:, j] > _PIVOT_TOL)[0]
        if rows.size == 0:
            return "unbounded"
        ratios = T[rows, -1] / T[rows, j]
        tied = rows[ratios <= ratios.min() + 1e-12]
        r = int(tied[np.argmin(basis[tied])])
        _pivot(T, obj, basis, r, j)
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
    m = len(b_ub) + len(b_eq)

    # rows with a negative right-hand side are flipped; <= rows become >=
    b = np.concatenate((b_ub, b_eq))
    sign = np.where(b < 0, -1, 1)
    rel = np.repeat([1, 0], (len(b_ub), len(b_eq))) * sign  # +1: <=, 0: ==, -1: >=

    slack_rows = np.nonzero(rel)[0]
    art_rows = np.nonzero(rel != 1)[0]
    art_start = n + len(slack_rows)
    ncols = art_start + len(art_rows)
    slack_cols = np.arange(n, art_start)
    art_cols = np.arange(art_start, ncols)

    def tableau():
        T = np.zeros((m, ncols + 1))
        T[:, :n] = np.vstack((A_ub, A_eq)) * sign[:, None]
        T[:, -1] = b * sign
        T[slack_rows, slack_cols] = rel[slack_rows]
        T[art_rows, art_cols] = 1.0
        return T

    T = tableau()
    basis = np.empty(m, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols  # a >= row starts on its artificial

    max_iter = 200 * (m + ncols)

    # phase 1: maximize minus the sum of artificials
    if len(art_rows):
        obj = T[art_rows].sum(axis=0)
        obj[art_start:ncols] = 0.0
        if _run_phase(T, obj, basis, art_start, max_iter) == "failed":
            return DenseResult(LpStatus.FAILED)
        if sum(T[basis >= art_start, -1]) > 1e-8:
            return DenseResult(LpStatus.INFEASIBLE)
        # drive residual artificials out of the basis (degenerate rows);
        # these pivots also update obj, which is not read again
        for i in np.nonzero(basis >= art_start)[0]:
            nz = np.nonzero(np.abs(T[i, :art_start]) > _PIVOT_TOL)[0]
            if nz.size:
                _pivot(T, obj, basis, i, int(nz[0]))
            else:
                T[i, :] = 0.0  # redundant constraint

    # phase 2, reduced row by row (see the module docstring)
    obj = np.zeros(ncols + 1)
    obj[:n] = c
    for i, j in enumerate(basis.tolist()):
        if j < art_start and obj[j] != 0.0:
            obj -= obj[j] * T[i]
    status = _run_phase(T, obj, basis, art_start, max_iter)
    if status != "optimal":
        return DenseResult(LpStatus(status))  # unbounded or failed

    def infeasible(xs):
        return ((xs < -_FEAS_TOL).any() or (A_ub @ xs - b_ub > _FEAS_TOL).any()
                or (np.abs(A_eq @ xs - b_eq) > _FEAS_TOL).any())

    x = np.zeros(ncols)
    x[basis] = T[:, -1]
    # independent feasibility re-check. The tableau is never refactorized,
    # so a vertex that rounding pushed off the rows is solved afresh from
    # the original rows with the final basis, then checked once more.
    if infeasible(x[:n]):
        T = tableau()
        try:
            x[basis] = np.linalg.solve(T[:, basis], T[:, -1])
        except np.linalg.LinAlgError:  # singular basis
            return DenseResult(LpStatus.FAILED)
        if infeasible(x[:n]):
            return DenseResult(LpStatus.FAILED)
    return DenseResult(LpStatus.OPTIMAL, x[:n].copy(), float(c @ x[:n]))
