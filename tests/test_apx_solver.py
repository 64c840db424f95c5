import collections
import warnings

import numpy as np
import pytest

from polystack.apx_solver import ApxReport, solve_plfe_apx
from polystack.game_model import MixedStrategy, PolymatrixGame, evaluate_commitment
from polystack.instance_gen import clique_to_spg, random_oltpg
from polystack.oracles import Graph
from polystack.plfe_exact import LfeResult, solve_plfe

from conftest import two_player_game
from test_golden import _rounded_tree


def _single_follower_game(game, p):
    """Follower p against the leader, as players 1 and 2 of a game of its own."""
    own, other = game.leader_edge(p)
    return PolymatrixGame(
        (1, 2),
        {1: game.actions[p], 2: game.actions[game.leader]},
        2,
        {(1, 2): (own, other)},
    )


def _reference_apx(game, alpha=1e-6):
    """``solve_plfe_apx`` by solving each follower's game of its own in full."""
    best_p = best = None
    for p in game.followers:
        sub = solve_plfe(_single_follower_game(game, p), alpha=alpha)
        if best is None or sub.value > best.value + 1e-12:
            best_p, best = p, sub
    s_n = MixedStrategy(game.leader, best.strategy.probs)
    value, profile = evaluate_commitment(game, s_n, "pessimistic")
    result = LfeResult(value, s_n, profile, True, alpha, profiles_enumerated=best.profiles_enumerated)
    bound = best.value - (0.0 if best.attained else alpha)
    nonneg = all((game.leader_edge(p)[1] >= 0).all() for p in game.followers)
    return ApxReport(result, best_p, best.value, bound, nonneg)


def _tied_contenders_game(c, swapped=False):
    """Two followers against three leader actions. Follower 1's subgame has
    two contenders, 1 unattained and 1 - 5e-10 attained, so its value is
    1 - 5e-10; follower 2's has one, c, attained. ``swapped`` swaps the
    followers' subgames, so the tied one is searched against c."""
    br = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]])
    tied = (br, np.array([[0.0, 2.0, 0.0], [0.0, 0.0, 1 - 5e-10]]))
    single = (br, np.array([[c, c, c], [0.0, 0.0, 0.0]]))
    first, second = (single, tied) if swapped else (tied, single)
    return PolymatrixGame(
        (1, 2, 3),
        {1: ("a", "b"), 2: ("a", "b"), 3: ("x", "y", "z")},
        3,
        {(1, 3): first, (2, 3): second},
    )


def _rounded(game):
    """The game with every payoff x mapped to round(x / 25), so that
    followers' subgames tie in value."""
    edges = {key: tuple(np.round(mat / 25) for mat in mats) for key, mats in game.edges.items()}
    return PolymatrixGame(game.player_ids, game.actions, game.leader, edges)


def _reference_games():
    for kind in ("oltpg", "spg"):
        for n in range(3, 7):
            for m in range(2, 5):
                for seed in range(3):
                    game = random_oltpg(n, m, seed, kind=kind)
                    yield pytest.param(game, id=f"{kind}-{n}-{m}-{seed}")
                    yield pytest.param(_rounded(game), id=f"rounded-{kind}-{n}-{m}-{seed}")
    # later subgames are cut by their bounds, on the first two at their roots
    for args in ((6, 4, 1001), (7, 4, 1001), (10, 8, 0)):
        yield pytest.param(random_oltpg(*args), id="random-{}-{}-{}".format(*args))
    # conftest's knife_edge_game: its supremum is not attained
    yield pytest.param(two_player_game([[1, 0], [0, 1]], [[0, 1], [0, 0]]), id="knife-edge")
    yield pytest.param(_rounded_tree(), id="rounded-tree")
    yield pytest.param(clique_to_spg(Graph(4, ((1, 2), (2, 3), (3, 4)))), id="clique-P4")
    cycle = Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1)))
    yield pytest.param(clique_to_spg(cycle), id="clique-C5")
    # follower 1's value decides the winner only if read from its attained contender
    yield pytest.param(_tied_contenders_game(1 - 2.5e-10), id="tied-contenders-lose")
    yield pytest.param(_tied_contenders_game(1 - 7.5e-10), id="tied-contenders-win")
    # the tied subgame's contenders straddle the best value so far, c
    for c, outcome in ((1 - 2.5e-10, "lose"), (1 - 7.5e-10, "win")):
        game = _tied_contenders_game(c, swapped=True)
        yield pytest.param(game, id=f"tied-contenders-second-{outcome}")


@pytest.mark.parametrize("game", list(_reference_games()))
def test_matches_solving_every_subgame_in_full(game):
    # rounded tree: tied rows; cliques: tied contenders
    want, got = _reference_apx(game), solve_plfe_apx(game)
    assert got.best_follower == want.best_follower
    assert got.subgame_value == want.subgame_value
    assert got.certified_lower_bound == want.certified_lower_bound
    assert got.guarantee_valid == want.guarantee_valid
    for field in ("value", "attained", "profiles_enumerated", "profile"):
        assert getattr(got.result, field) == getattr(want.result, field), field
    assert got.result.strategy.probs.tobytes() == want.result.strategy.probs.tobytes()


@pytest.mark.parametrize(
    "game",
    [
        pytest.param(random_oltpg(6, 4, 1001), id="random-6-4-1001"),
        pytest.param(_tied_contenders_game(1 - 7.5e-10), id="tied-contenders-win"),
    ],
)
def test_only_the_winner_is_finished(lp_calls, game):
    # no losing subgame has tied contenders, so only the winning subgame
    # runs attainment and find_apx LPs: as many as its own solve, those it
    # ran to fix its value included
    report = solve_plfe_apx(game)
    apx = collections.Counter(name for name, _, _ in lp_calls)
    lp_calls.clear()
    solve_plfe(_single_follower_game(game, report.best_follower))
    alone = collections.Counter(name for name, _, _ in lp_calls)
    for kind in ("_attainment", "_find_apx"):
        assert apx[kind] == alone[kind], kind
    assert alone["_attainment"] > 0


@pytest.mark.parametrize("args", [(6, 4, 1001), (7, 4, 1001)])
def test_losing_subgames_run_no_lp(lp_calls, args):
    # follower 1's subgame wins and needs one max-min LP; every other
    # subgame's root bound, read without an LP, falls below its value. A
    # search of every subgame to its end ran 15 and 16 LPs here
    assert solve_plfe_apx(random_oltpg(*args)).best_follower == 1
    assert sorted(name for name, _, _ in lp_calls) == ["_attainment", "_max_min"]


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
