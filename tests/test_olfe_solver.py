import numpy as np
import pytest

from polystack.game_model import (
    MixedStrategy,
    PolymatrixGame,
    enumerate_pure_ne,
    evaluate_commitment,
)
from polystack.instance_gen import CnfFormula, random_oltpg, sat_to_pg_olfe
from polystack.olfe_solver import NoPureCommitmentError, solve_olfe
from polystack.plfe_exact import _Blocks, _profile_lp, solve_plfe

from conftest import two_player_game


def profile_lp(game, combo):
    """(value, strategy) of the profile's optimistic LP: the best commitment
    making it a weak pure NE; None when no commitment induces it."""
    blocks = _Blocks(game)
    rows = blocks.rows(combo)
    return None if rows is None else _profile_lp(blocks, combo, *rows)


class TestProfileLp:
    def test_feasible_profile(self, star3_game):
        got = profile_lp(star3_game, (0, 1))
        assert got is not None
        value, s = got
        assert value >= 10.0 / 3 - 1e-9  # uniform commitment is feasible

    def test_dominated_action_infeasible(self):
        g = two_player_game([[5, 5], [0, 0]], [[1, 1], [9, 9]])
        assert profile_lp(g, (1,)) is None

    def test_optimizes_leader_value(self):
        g = two_player_game([[1, 0], [0, 1]], [[4, 0], [0, 0]])
        value, s = profile_lp(g, (0,))
        assert value == pytest.approx(4.0)
        assert s.probs == pytest.approx([1.0, 0.0])


class TestSolveOlfe:
    def test_dominates_pessimistic(self):
        for seed in range(25):
            g = random_oltpg(3, 3, seed)
            o = solve_olfe(g)
            p = solve_plfe(g)
            assert o.value >= p.value - 1e-7

    @pytest.mark.parametrize("kind", ["oltpg", "spg"])
    def test_equals_pessimistic_on_tie_free_trees(self, kind):
        # random payoffs tie with probability zero, so every tie set is a
        # singleton and a profile's max-min value is its optimistic value
        for n in range(3, 6):
            for m in range(2, 5):
                for seed in range(3):
                    g = random_oltpg(n, m, seed, kind=kind)
                    o, p = solve_olfe(g), solve_plfe(g)
                    assert o.profile == p.profile, (n, m, seed)
                    assert o.value == pytest.approx(p.value, rel=0, abs=1e-8), (n, m, seed)

    def test_result_is_equilibrium(self):
        for seed in range(10):
            g = random_oltpg(3, 4, 50 + seed)
            r = solve_olfe(g)
            nes = enumerate_pure_ne(g, r.strategy, tol=1e-7)
            assert any(p == r.profile for p in nes)
            v, _ = evaluate_commitment(g, r.strategy, "optimistic")
            assert v == pytest.approx(r.value, abs=1e-7)

    def test_always_attained(self, star3_game):
        assert solve_olfe(star3_game).attained is True

    def test_general_game_without_inducible_profile(self):
        # matching pennies between the followers: no pure equilibrium ever
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        z = np.zeros((2, 1))
        g = PolymatrixGame(
            (1, 2, 3),
            {1: ("h", "t"), 2: ("h", "t"), 3: ("x",)},
            3,
            {(1, 2): (a, -a), (1, 3): (z, z), (2, 3): (z, z)},
        )
        with pytest.raises(NoPureCommitmentError):
            solve_olfe(g)

    def test_sat_reduction_gap(self):
        sat = CnfFormula(3, ((1, 2, 3), (-1, 2, 3), (1, -2, -3)))
        unsat = CnfFormula(1, ((1, 1, 1), (-1, -1, -1), (1, 1, 1)))
        assert solve_olfe(sat_to_pg_olfe(sat, 0.01)).value == pytest.approx(1.0, abs=1e-6)
        assert solve_olfe(sat_to_pg_olfe(unsat, 0.01)).value == pytest.approx(0.01, abs=1e-6)

    def test_all_zero_profile_always_inducible(self):
        cnf = CnfFormula(2, ((1, 2, 1), (-1, 2, 2), (1, -2, 1)))
        g = sat_to_pg_olfe(cnf, 0.01)
        m = g.num_actions(g.leader)
        for probs in (np.full(m, 1.0 / m), np.eye(m)[0]):
            s = MixedStrategy(g.leader, probs)
            nes = enumerate_pure_ne(g, s)
            assert {p: 0 for p in g.followers} in nes

    def test_time_limit_truncates(self):
        g = random_oltpg(5, 6, 7)
        r = solve_olfe(g, time_limit=1e-4)
        assert not r.anytime_complete
        assert r.profiles_enumerated < 6**4
        full = solve_olfe(g)
        assert full.anytime_complete and full.profiles_enumerated == 6**4
        assert full.value >= r.value - 1e-9

    def test_time_limit_truncates_general_graph(self):
        cnf = CnfFormula(3, ((1, 2, 3), (-1, 2, -3), (1, -2, 3), (-1, -2, -3), (2, 3, 1), (-2, 1, 3)))
        g = sat_to_pg_olfe(cnf, 0.01)
        r = solve_olfe(g, time_limit=1e-4)
        assert not r.anytime_complete
        assert r.profiles_enumerated < 4**6
        full = solve_olfe(g)
        assert full.anytime_complete and full.profiles_enumerated == 4**6
        assert full.value >= r.value - 1e-9
