import numpy as np
import pytest
from scipy.optimize import linprog

from polystack import lp_core
from polystack.lp_core import LpStatus, maximize


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


def test_eps_margin_program():
    # max eps s.t. eps <= s1 - s2, s1 + s2 = 1, s >= 0, eps <= 1
    c = np.array([0.0, 0.0, 1.0])
    A_ub = [[-1.0, 1.0, 1.0], [0.0, 0.0, 1.0]]
    b_ub = [0.0, 1.0]
    A_eq = [[1.0, 1.0, 0.0]]
    res = maximize(c, A_ub, b_ub, A_eq, [1.0])
    assert res.status is LpStatus.OPTIMAL
    assert res.objective == pytest.approx(1.0)
    assert res.x[:2] == pytest.approx([1.0, 0.0])


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


def test_solve_counter():
    lp_core.reset_lp_solve_count()
    maximize(np.array([0.0]), A_ub=[[1.0]], b_ub=[1.0])
    maximize(np.array([0.0]), A_ub=[[1.0]], b_ub=[1.0])
    assert lp_core.lp_solve_count() == 2
