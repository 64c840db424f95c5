import numpy as np
import pytest

from polystack.game_model import MixedStrategy, PolymatrixGame, evaluate_commitment
from polystack.instance_gen import clique_to_spg, random_oltpg
from polystack.oracles import Graph, grid_oracle, supremum_1d
from polystack.plfe_exact import (
    TieSets,
    attainment_flag,
    emptiness_check,
    find_apx,
    solve_max_min,
    solve_plfe,
)

from conftest import two_player_game


def tie_set(game, p, a_p):
    return TieSets.for_game(game).tie_set(p, a_p)


class TestTieSets:
    def test_distinct_vectors(self, star3_game):
        assert tie_set(star3_game, 1, 0) == [0]

    def test_duplicated_rows(self):
        g = two_player_game([[1, 2], [1, 2], [0, 0]], [[0, 0]] * 3)
        assert tie_set(g, 1, 0) == [0, 1]
        assert tie_set(g, 1, 1) == [0, 1]
        assert tie_set(g, 1, 2) == [2]

    def test_all_zero(self):
        g = two_player_game([[0, 0], [0, 0]], [[0, 0], [0, 0]])
        assert tie_set(g, 1, 0) == [0, 1]

    def test_bitwise_not_approximate(self):
        g = two_player_game([[0.1 + 0.2, 0], [0.3, 0]], [[0, 0], [0, 0]])
        # 0.1 + 0.2 != 0.3 in doubles, so the rows do not tie
        assert tie_set(g, 1, 0) == [0]

    def test_classes_partition_actions(self):
        for seed in range(5):
            g = random_oltpg(3, 4, seed)
            ties = TieSets.for_game(g)
            for p in g.followers:
                seen = sorted(a for group in ties.members[p] for a in group)
                assert seen == list(range(4))


class TestEmptinessCheck:
    def test_interior_profile_hits_cap(self, star3_game):
        eps, witness = emptiness_check(star3_game, {1: 0, 2: 1})
        assert eps == pytest.approx(1.0)
        assert witness is not None

    def test_single_point_region(self):
        g = two_player_game([[1, 0], [0, 1], [0.5, 0.5]], [[0, 0]] * 3)
        eps, _ = emptiness_check(g, {1: 2})
        assert eps == pytest.approx(0.0, abs=1e-12)

    def test_fully_tied_profile_unconstrained(self):
        g = two_player_game([[1, 1], [1, 1]], [[0, 0], [0, 0]])
        eps, _ = emptiness_check(g, {1: 0})
        assert eps == pytest.approx(1.0)


class TestMaxMin:
    def test_attained_case(self, plateau_game):
        v, s, zeta = solve_max_min(plateau_game, {1: 0})
        assert v == pytest.approx(1.0)
        assert set(zeta) == {(1, 1)}

    def test_supremum_case(self, knife_edge_game):
        v, s, zeta = solve_max_min(knife_edge_game, {1: 0})
        assert v == pytest.approx(0.5)
        assert s.probs == pytest.approx([0.5, 0.5])
        assert zeta[(1, 1)] == pytest.approx(0.0, abs=1e-12)

    def test_constant_tied_leader_payoffs(self):
        g = two_player_game([[1, 1], [1, 1]], [[3, 3], [3, 3]])
        v, _, zeta = solve_max_min(g, {1: 0})
        assert v == pytest.approx(3.0)
        assert zeta == {}


class TestAttainment:
    def test_knife_edge_not_attained(self, knife_edge_game):
        beta, _ = attainment_flag(knife_edge_game, {1: 0})
        assert beta is True

    def test_plateau_attained_with_full_slack(self, plateau_game):
        beta, zeta = attainment_flag(plateau_game, {1: 0})
        assert beta is False
        assert zeta[(1, 1)] == pytest.approx(1.0)

    def test_no_nontied_actions(self):
        g = two_player_game([[1, 1], [1, 1]], [[3, 0], [0, 3]])
        beta, zeta = attainment_flag(g, {1: 0})
        assert beta is False and zeta == {}


class TestFindApx:
    def test_small_alpha(self, knife_edge_game):
        s = find_apx(knife_edge_game, {1: 0}, None, 0.5, 0.01)
        assert s.probs == pytest.approx([0.51, 0.49])

    def test_quarter_alpha(self, knife_edge_game):
        s = find_apx(knife_edge_game, {1: 0}, None, 0.5, 0.25)
        assert s.probs == pytest.approx([0.75, 0.25])
        v, _ = evaluate_commitment(knife_edge_game, s, "pessimistic")
        assert v == pytest.approx(0.25)

    def test_attained_case_still_works(self, plateau_game):
        s = find_apx(plateau_game, {1: 0}, None, 1.0, 0.1)
        v, _ = evaluate_commitment(plateau_game, s, "pessimistic")
        assert v >= 1.0 - 0.1 - 1e-9

    def test_rejects_nonpositive_alpha(self, knife_edge_game):
        with pytest.raises(ValueError):
            find_apx(knife_edge_game, {1: 0}, None, 0.5, 0.0)


class TestSolvePlfe:
    def test_knife_edge_supremum(self, knife_edge_game):
        r = solve_plfe(knife_edge_game, alpha=0.01)
        assert r.value == pytest.approx(0.5)
        assert r.attained is False
        assert r.strategy.probs == pytest.approx([0.51, 0.49])
        assert r.profiles_enumerated == 2

    def test_star_beats_uniform_witness(self, star3_game):
        r = solve_plfe(star3_game)
        assert r.value >= 10.0 / 3 - 1e-9
        assert r.anytime_complete

    def test_profile_count_is_product(self):
        g = random_oltpg(4, 3, 11)
        assert solve_plfe(g).profiles_enumerated == 27

    def test_attained_consistency(self):
        for seed in range(30):
            g = random_oltpg(3, 3, seed)
            r = solve_plfe(g, alpha=1e-4)
            v, _ = evaluate_commitment(g, r.strategy, "pessimistic")
            if r.attained:
                assert abs(v - r.value) <= 1e-7
            else:
                assert v >= r.value - 1e-4 - 1e-7

    def test_dominates_sampled_commitments(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            g = random_oltpg(3, 4, seed)
            r = solve_plfe(g)
            for _ in range(200):
                s = MixedStrategy(3, rng.dirichlet(np.ones(4)))
                v, _ = evaluate_commitment(g, s, "pessimistic")
                assert r.value >= v - 1e-7

    def test_grid_lower_bound(self):
        for seed in range(10):
            g = random_oltpg(3, 3, 100 + seed)
            r = solve_plfe(g)
            assert grid_oracle(g, 8, "pessimistic").value <= r.value + 1e-7

    def test_matches_1d_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(200 + seed)
            mf = int(rng.integers(2, 6))
            g = two_player_game(
                rng.uniform(0, 100, (mf, 2)), rng.uniform(0, 100, (mf, 2))
            )
            r = solve_plfe(g)
            v, attained = supremum_1d(g)
            assert r.value == pytest.approx(v, abs=1e-6)
            assert r.attained == attained

    def test_clique_path_attained(self):
        # the sum-of-slacks vertex leaves one slack at zero; another point
        # of the optimal face makes it positive, so the value 2 is attained
        g = clique_to_spg(Graph(4, ((1, 2), (2, 3), (3, 4))))
        r = solve_plfe(g)
        assert r.value == pytest.approx(2.0, abs=1e-9)
        assert r.attained is True
        v, _ = evaluate_commitment(g, r.strategy, "pessimistic")
        assert v == pytest.approx(2.0, abs=1e-9)

    def test_strategy_passes_validate(self):
        # relabelled and perturbed random_oltpg(6, 4, 1001): the LP vertex
        # has an entry of 1.0000000000012994 before clipping
        g = random_oltpg(6, 4, 1001)
        rng = np.random.default_rng([0, 4])
        perm = {p: rng.permutation(4) for p in g.player_ids}
        order = rng.permutation(5)
        edges = {}
        for i, p in enumerate(g.followers):
            mats = [
                m[np.ix_(perm[p], perm[6])] + rng.uniform(-1, 1, m.shape)
                for m in g.edges[(p, 6)]
            ]
            edges[(g.followers[order[i]], 6)] = tuple(np.clip(m, 0, 100) for m in mats)
        h = PolymatrixGame(g.player_ids, g.actions, 6, edges)
        r = solve_plfe(h, alpha=1e-3)
        r.strategy.validate(4)
        assert r.strategy.probs.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_time_limit_truncates(self):
        g = random_oltpg(5, 6, 7)
        r = solve_plfe(g, time_limit=1e-4)
        assert not r.anytime_complete
        assert r.profiles_enumerated < 6**4
        full = solve_plfe(g)
        assert full.value >= r.value - 1e-9

    def test_rejects_general_games(self):
        z = np.zeros((2, 2))
        g = PolymatrixGame(
            (1, 2, 3),
            {p: ("a", "b") for p in (1, 2, 3)},
            3,
            {(1, 2): (z, z), (1, 3): (z, z), (2, 3): (z, z)},
        )
        from polystack.game_model import GameClassError

        with pytest.raises(GameClassError):
            solve_plfe(g)

    def test_diagnostics_present(self, knife_edge_game):
        r = solve_plfe(knife_edge_game)
        assert "raw_beta" in r.diagnostics and "robust_beta" in r.diagnostics
