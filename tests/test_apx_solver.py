import warnings

import numpy as np
import pytest

from polystack.apx_solver import solve_plfe_apx
from polystack.game_model import PolymatrixGame
from polystack.instance_gen import random_oltpg
from polystack.plfe_exact import solve_plfe

from conftest import two_player_game


def test_single_follower_matches_exact():
    for seed in range(10):
        g = random_oltpg(2, 4, seed)
        exact = solve_plfe(g)
        apx = solve_plfe_apx(g)
        # an unattained subgame supremum loses up to alpha on re-evaluation
        assert exact.value - 1e-6 - 1e-7 <= apx.result.value <= exact.value + 1e-7
        assert apx.guarantee_valid


def test_two_identical_leaves_half_ratio():
    fol = np.array([[7.0, 1.0], [2.0, 5.0]])
    lead = np.array([[4.0, 0.0], [0.0, 3.0]])
    g = PolymatrixGame(
        (1, 2, 3),
        {p: ("a", "b") for p in (1, 2)} | {3: ("x", "y")},
        3,
        {(1, 3): (fol, lead), (2, 3): (fol, lead)},
    )
    exact = solve_plfe(g)
    apx = solve_plfe_apx(g)
    # identical leaves: full value is twice the single-leaf value
    assert exact.value == pytest.approx(2 * apx.subgame_value, abs=1e-6)
    assert apx.result.value >= exact.value / 2 - 1e-6 - 1e-7


def test_ratio_bound_on_random_games():
    alpha = 1e-6
    for seed in range(30):
        n = 3 + seed % 3
        g = random_oltpg(n, 3, seed)
        exact = solve_plfe(g)
        apx = solve_plfe_apx(g, alpha=alpha)
        assert apx.result.value >= exact.value / (n - 1) - alpha - 1e-7
        assert apx.result.value <= exact.value + 1e-7
        assert apx.certified_lower_bound <= apx.result.value + 1e-7


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_rejects_non_finite_alpha(knife_edge_game, alpha):
    with pytest.raises(ValueError, match="^alpha must be positive"):
        solve_plfe_apx(knife_edge_game, alpha=alpha)


def test_lp_budget_is_polynomial(lp_calls):
    g = random_oltpg(5, 4, 9)
    solve_plfe_apx(g)
    budget = sum(3 * g.num_actions(p) for p in g.followers)
    assert 0 < len(lp_calls) <= budget


def test_negative_payoffs_void_guarantee():
    # the report alone says the guarantee is void; no warning is raised
    g = two_player_game([[1, 0], [0, 1]], [[-1, 2], [0, 1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve_plfe_apx(g)
    assert report.guarantee_valid is False


def test_best_follower_tie_breaks_low():
    fol = np.array([[1.0, 0.0], [0.0, 1.0]])
    lead = np.array([[2.0, 0.0], [0.0, 2.0]])
    g = PolymatrixGame(
        (1, 2, 3),
        {1: ("a", "b"), 2: ("a", "b"), 3: ("x", "y")},
        3,
        {(1, 3): (fol, lead), (2, 3): (fol, lead)},
    )
    assert solve_plfe_apx(g).best_follower == 1
