import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from polystack import lp_core
from polystack.apx_solver import solve_plfe_apx
from polystack.instance_gen import CnfFormula, random_oltpg, sat_to_pg_olfe
from polystack.lp_core import LpStatus, maximize
from polystack.olfe_solver import solve_olfe
from polystack.plfe_exact import solve_plfe

import lp_reference
from test_golden import _rounded_tree


@pytest.fixture
def pivots(monkeypatch):
    """Counts the calls of ``lp_core._pivot`` in ``pivots[0]``, wrapping it
    as ``perfbench/spans.py`` does to count pivots."""
    count = [0]
    pivot = lp_core._pivot

    def counted(*args):
        count[0] += 1
        pivot(*args)

    monkeypatch.setattr(lp_core, "_pivot", counted)
    return count


def test_simple_bounded():
    res = maximize(np.array([1.0]), A_ub=[[1.0]], b_ub=[1.0])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(1.0)
    assert res.x[0] == pytest.approx(1.0)


def test_infeasible():
    res = maximize(np.array([1.0]), A_ub=[[1.0]], b_ub=[-1.0])
    assert res.status is LpStatus.INFEASIBLE


def test_unbounded():
    res = maximize(np.array([1.0]))
    assert res.status is LpStatus.UNBOUNDED


def test_rowless_lp_without_positive_cost_is_zero():
    # no rows: the general path pivots nowhere and stops at x = 0
    res = maximize(np.array([-1.0, 0.0]))
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == 0.0
    assert (res.x == 0.0).all()


def test_eps_margin_program(pivots):
    # max eps s.t. eps <= s1 - s2, s1 + s2 = 1, s >= 0, eps <= 1
    c = np.array([0.0, 0.0, 1.0])
    A_ub = [[-1.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
    b_ub = [0.0, 1.0]
    A_eq = [[1.0, 1.0, 0.0]]
    res = maximize(c, A_ub, b_ub, A_eq, [1.0])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(1.0)
    assert res.x[:2] == pytest.approx([1.0, 0.0])
    assert pivots[0] > 0  # every pivot goes through the module's _pivot


def test_equality_constraints():
    res = maximize(np.array([1.0, 2.0]), A_eq=[[1.0, 1.0]], b_eq=[3.0])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(6.0)


def test_degenerate_redundant_rows():
    # duplicated equality rows force artificials to be driven out
    res = maximize(
        np.array([1.0, 1.0]),
        A_ub=[[1.0, 0.0]],
        b_ub=[2.0],
        A_eq=[[1.0, 1.0], [1.0, 1.0]],
        b_eq=[1.0, 1.0],
    )
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(1.0)


@pytest.mark.parametrize("module", [lp_core, lp_reference], ids=["lp_core", "lp_reference"])
def test_drifted_vertex_with_basic_artificial_is_solved_afresh(monkeypatch, module):
    # the duplicated equality row leaves an artificial basic on a zeroed
    # row; every pivot then nudges its row's right-hand side, so the vertex
    # leaves the rows and is solved afresh with that artificial's unit column
    pivot = module._pivot

    def drifted(*args):
        pivot(*args)
        args[0][args[-2], -1] += 1e-6  # T[r, -1] in both signatures

    monkeypatch.setattr(module, "_pivot", drifted)
    solved, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda B, rhs: solved.append(B.tolist()) or solve(B, rhs))
    res = module.maximize([1.0, 2.0], [[1.0, 0.0]], [2.0], [[1.0, 1.0], [1.0, 1.0]], [1.0, 1.0])
    # one re-solve; the basis's last label is the artificial of the third row
    assert solved == [[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 1.0]]]
    assert res.status is LpStatus.OPTIMAL
    assert res.x.tobytes() == np.array([0.0, 1.0]).tobytes()
    assert repr(res.objective) == "2.0"


@pytest.mark.parametrize("seed", range(40))
def test_matches_scipy_on_random_lps(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    k = int(rng.integers(1, 10))
    c = rng.normal(size=n)
    A_ub = rng.normal(size=(k, n))
    b_ub = rng.uniform(0.5, 2.0, size=k)
    A_eq = np.ones((1, n))
    b_eq = [1.0]
    ours = maximize(c, A_ub, b_ub, A_eq, b_eq)
    ref = linprog(-c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0, None))
    if ref.status == 2:
        assert ours.status is LpStatus.INFEASIBLE
    elif ref.status == 3:
        assert ours.status is LpStatus.UNBOUNDED
    else:
        assert ours.status is LpStatus.OPTIMAL
        assert ours.objective == pytest.approx(-ref.fun, abs=1e-7)
        # feasibility of our vertex
        assert (A_ub @ ours.x <= b_ub + 1e-7).all()
        assert ours.x.sum() == pytest.approx(1.0)


def test_determinism():
    rng = np.random.default_rng(3)
    c = rng.normal(size=5)
    A_ub = rng.normal(size=(6, 5))
    b_ub = rng.uniform(0.5, 2.0, size=6)
    r1 = maximize(c, A_ub, b_ub, np.ones((1, 5)), [1.0])
    r2 = maximize(c, A_ub, b_ub, np.ones((1, 5)), [1.0])
    assert r1.status is r2.status
    assert (r1.x == r2.x).all()


def test_bland_fallback_ends_beale_cycle(pivots):
    # Beale's LP cycles under Dantzig's rule; only the switch to Bland's rule
    # after max_iter // 2 pivots reaches the optimum
    c = [0.75, -20.0, 0.5, -6.0]
    A_ub = [[0.25, -8.0, -1.0, 9.0], [0.5, -12.0, -0.5, 3.0], [0.0, 0.0, 1.0, 0.0]]
    res = maximize(c, A_ub, [0.0, 0.0, 1.0])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(1.25)
    assert res.x == pytest.approx([1.0, 0.0, 1.0, 0.0])
    max_iter = 200 * (3 + 4 + 3)  # rows + structural and slack columns
    assert pivots[0] > max_iter // 2


def test_arguments_are_not_written():
    # any write to a read-only argument raises
    def frozen(values):
        a = np.array(values, dtype=float)
        a.flags.writeable = False
        return a

    # x0 + x1 >= 1 (a negative right-hand side), x0 <= 2, x0 + 2 x1 == 3
    c = frozen([1.0, 1.0])
    A_ub, b_ub = frozen([[-1.0, -1.0], [1.0, 0.0]]), frozen([-1.0, 2.0])
    A_eq, b_eq = frozen([[1.0, 2.0]]), frozen([3.0])
    res = maximize(c, A_ub, b_ub, A_eq, b_eq)
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(2.5)
    assert res.x == pytest.approx([2.0, 0.5])


def _run_solvers():
    """Runs PLFE, OLFE and apx on four random trees and a tree with tied
    rows, and pure-olfe on a 3-clause SAT game."""
    trees = [random_oltpg(n, m, seed) for n, m, seed in ((4, 6, 0), (5, 4, 0), (3, 8, 1), (6, 4, 0))]
    for game in trees + [_rounded_tree()]:
        solve_plfe(game)
        solve_olfe(game)
        solve_plfe_apx(game)
    solve_olfe(sat_to_pg_olfe(CnfFormula(3, ((1, 2, 3), (-1, 2, 3), (1, -2, -3))), 0.01))


def test_solver_lps_match_highs(lp_calls):
    _run_solvers()
    # the search's margin and bound LPs start at a feasible slack basis, so an
    # empty region reads eps <= 0 rather than INFEASIBLE; every LP here ends
    # optimal, and test_degenerate_random_lps_match_highs covers the others
    assert {res.status for _, _, res in lp_calls} == {LpStatus.OPTIMAL}
    statuses = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
    tol = lp_core._FEAS_TOL
    for i, (_, (c, A_ub, b_ub, A_eq, b_eq), res) in enumerate(lp_calls):
        ref = linprog(-c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        assert res.status is statuses[ref.status], i
        if res.status is not LpStatus.OPTIMAL:
            continue
        assert abs(res.objective + ref.fun) <= 1e-9 * max(1.0, abs(ref.fun)), i
        assert (res.x >= -tol).all(), i
        if A_ub is not None:
            assert (A_ub @ res.x - b_ub <= tol).all(), i
        if A_eq is not None:
            assert (np.abs(A_eq @ res.x - b_eq) <= tol).all(), i


def _degenerate_lp(rng):
    """A random LP in small integers from [-3, 3] with up to 29 columns, 44
    inequality rows and 25 equality rows, some of them repeated. Every
    right-hand side is tight or nearly tight at a known point x0 with many
    zero entries, so vertices are degenerate. One example in ten moves one
    right-hand side by 1, which often makes the LP infeasible; one in five
    leaves out the row sum(x) = sum(x0), so unbounded LPs occur."""
    n = int(rng.integers(1, 30))
    x0 = rng.integers(0, 3, n) * (rng.random(n) < 0.5)
    c = rng.integers(-3, 4, n)
    A_ub = rng.integers(-3, 4, (int(rng.integers(0, 45)), n))
    b_ub = A_ub @ x0 + rng.integers(0, 3, len(A_ub)) * (rng.random(len(A_ub)) < 0.5)
    A_eq = rng.integers(-3, 4, (int(rng.integers(0, 26)), n))
    A_eq = A_eq[rng.integers(0, len(A_eq), len(A_eq))]  # draws rows with repeats
    b_eq = A_eq @ x0
    if rng.random() < 0.1:
        rows = b_ub if len(b_ub) and rng.random() < 0.5 else b_eq
        if len(rows):
            rows[rng.integers(len(rows))] -= 1
    if rng.random() < 0.8:
        A_eq = np.vstack([A_eq, np.ones(n)])
        b_eq = np.append(b_eq, x0.sum())
    return [np.array(a, dtype=float) for a in (c, A_ub, b_ub, A_eq, b_eq)]


def test_degenerate_random_lps_match_highs():
    statuses = {0: LpStatus.OPTIMAL, 2: LpStatus.INFEASIBLE, 3: LpStatus.UNBOUNDED}
    rng = np.random.default_rng(20181)
    seen = set()
    for i in range(200):
        c, A_ub, b_ub, A_eq, b_eq = _degenerate_lp(rng)
        res = maximize(c, A_ub, b_ub, A_eq, b_eq)
        ref = linprog(-c, A_ub, b_ub, A_eq, b_eq, bounds=(0, None), method="highs")
        assert res.status is statuses[ref.status], i
        seen.add(res.status)
        if res.status is LpStatus.OPTIMAL:
            assert abs(res.objective + ref.fun) <= 1e-9 * max(1.0, abs(ref.fun)), i
    assert seen == set(statuses.values())


def _assert_same_as_reference(got, args, i):
    """``got``, the result of ``maximize(*args)``, has the status, ``x``
    bytes and objective ``repr`` of ``lp_reference.maximize(*args)``."""

    def bits(res):
        return res.status, None if res.x is None else res.x.tobytes(), repr(res.objective)

    assert bits(got) == bits(lp_reference.maximize(*args)), i


def test_degenerate_random_lps_match_reference():
    # the LPs of test_degenerate_random_lps_match_highs, bit for bit
    rng = np.random.default_rng(20181)
    for i in range(200):
        args = _degenerate_lp(rng)
        _assert_same_as_reference(maximize(*args), args, i)


def test_gaussian_lps_match_reference():
    # three LPs of each shape with 1-6 columns, 0-6 inequality and 0-2
    # equality rows, every entry standard normal: about half the rows have a
    # negative right-hand side and are negated, at every small tableau width
    rng = np.random.default_rng(0)
    shapes = itertools.product(range(1, 7), range(7), range(3), range(3))
    for i, (n, k, e, _) in enumerate(shapes):
        args = [rng.normal(size=s) for s in (n, (k, n), k, (e, n), e)]
        _assert_same_as_reference(maximize(*args), args, i)


def test_solver_lps_match_reference(lp_calls):
    _run_solvers()
    for i, (_, args, res) in enumerate(lp_calls):
        _assert_same_as_reference(res, args, i)
