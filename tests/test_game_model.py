import itertools

import numpy as np
import pytest

from polystack.game_model import (
    GameClass,
    GameClassError,
    MixedStrategy,
    PolymatrixGame,
    best_response_set,
    enumerate_pure_ne,
    evaluate_commitment,
    game_from_json_dict,
    game_to_json_dict,
    pure_utility,
    validate,
)
from polystack.instance_gen import random_oltpg

from conftest import two_player_game


def uniform(game):
    m = game.num_actions(game.leader)
    return MixedStrategy(game.leader, np.full(m, 1.0 / m))


class TestValidate:
    def test_tree_with_distinct_leader_matrices(self, star3_game):
        rep = validate(star3_game)
        assert rep.game_class is GameClass.OLTPG
        assert any("leader payoffs differ" in v for v in rep.violations)

    def test_shared_leader_matrix_is_star(self, star3_shared_game):
        rep = validate(star3_shared_game)
        assert rep.game_class is GameClass.SPG
        assert rep.violations == []

    def test_leaves_with_different_labels_are_not_a_star(self, star3_shared_game):
        g = star3_shared_game
        g = PolymatrixGame(g.player_ids, {**g.actions, 1: ("u", "v", "w")}, g.leader, g.edges)
        rep = validate(g)
        assert rep.game_class is GameClass.OLTPG
        assert rep.violations == ["leaf-players do not share one action set"]

    def test_triangle_is_general(self):
        z = np.zeros((2, 2))
        g = PolymatrixGame(
            (1, 2, 3),
            {p: ("a", "b") for p in (1, 2, 3)},
            3,
            {(1, 2): (z, z), (1, 3): (z, z), (2, 3): (z, z)},
        )
        assert validate(g).game_class is GameClass.GENERAL_PG

    def test_dimension_mismatch_is_violation_not_crash(self):
        g = PolymatrixGame(
            (1, 2),
            {1: ("a", "b"), 2: ("x", "y")},
            2,
            {(1, 2): (np.zeros((3, 2)), np.zeros((2, 2)))},
        )
        rep = validate(g)
        assert rep.game_class is GameClass.GENERAL_PG
        assert any("shape" in v for v in rep.violations)

    def test_nonfinite_entries_reported(self):
        g = PolymatrixGame(
            (1, 2),
            {1: ("a",), 2: ("x",)},
            2,
            {(1, 2): (np.array([[np.nan]]), np.zeros((1, 1)))},
        )
        assert any("non-finite" in v for v in validate(g).violations)


class TestPayoffAccess:
    def test_follower_payoff_vectors(self, star3_game):
        assert (star3_game.leader_edge(1)[0][0] == [0, 8, 8]).all()
        assert (star3_game.leader_edge(1)[0][1] == [4, 0, 4]).all()

    def test_zero_matrix_gives_zero_vector(self):
        g = two_player_game([[0, 0], [0, 0]], [[1, 2], [3, 4]])
        assert (g.leader_edge(1)[0][1] == 0).all()

    def test_pure_utility_sums_edges(self, star3_game):
        # leader against (a, b) when playing a: 9 + 0
        assert pure_utility(star3_game, 3, {1: 0, 2: 1, 3: 0}) == 9.0

    def test_pure_utility_isolated_player(self):
        g = PolymatrixGame(
            (1, 2, 3),
            {p: ("a",) for p in (1, 2, 3)},
            3,
            {(2, 3): (np.zeros((1, 1)), np.zeros((1, 1)))},
        )
        assert pure_utility(g, 1, {1: 0, 2: 0, 3: 0}) == 0.0

    def test_pure_utility_unknown_player(self, star3_game):
        with pytest.raises(KeyError):
            pure_utility(star3_game, 9, {1: 0, 2: 0, 3: 0})

    def test_edge_orientation_is_consistent(self, star3_game):
        a, b = star3_game.edge_payoffs(1, 3)
        c, d = star3_game.edge_payoffs(3, 1)  # (leader's, follower's), transposed
        assert (a == d.T).all() and (b == c.T).all()


def _zero_edges(*keys):
    return {key: (np.zeros((2, 2)), np.zeros((2, 2))) for key in keys}


# name, player ids, leader, edges, is_one_level_tree(), followers, neighbors
# of each player and edge end, validate's (class, violations)
GRAPH_CASES = [
    ("leader-self-edge", (1, 2), 2, _zero_edges((1, 2), (2, 2)), False, (1,),
     {1: [2], 2: [1, 2]}, ("general_pg", ["self-edge on player 2"])),
    ("follower-self-edge", (1, 2), 2, _zero_edges((1, 1), (1, 2)), False, (1,),
     {1: [1, 2], 2: [1]}, ("general_pg", ["self-edge on player 1"])),
    ("isolated-follower", (1, 2, 3), 3, _zero_edges((1, 3)), False, (1, 2),
     {1: [3], 2: [], 3: [1]}, ("general_pg", ["followers not connected to the leader: [2]"])),
    ("follower-edge", (1, 2, 3), 3, _zero_edges((1, 2), (1, 3), (2, 3)), False, (1, 2),
     {1: [2, 3], 2: [1, 3], 3: [1, 2]}, ("general_pg", ["edges between followers: [(1, 2)]"])),
    ("follower-edge-and-isolated", (1, 2, 3, 4), 4, _zero_edges((1, 2), (1, 4), (2, 4)), False, (1, 2, 3),
     {1: [2, 4], 2: [1, 4], 3: [], 4: [1, 2]},
     ("general_pg", ["edges between followers: [(1, 2)]", "followers not connected to the leader: [3]"])),
    # player 9 has no actions either; validate used to raise KeyError
    ("leader-edge-outside-players", (1, 2), 2, _zero_edges((1, 2), (2, 9)), False, (1,),
     {1: [2], 2: [1, 9], 9: [2]}, ("general_pg", ["edge (2,9) names unknown player 9"])),
    ("unsorted-player-ids", (3, 1, 2), 2, _zero_edges((1, 2), (2, 3)), True, (3, 1),
     {1: [2], 2: [1, 3], 3: [2]}, ("spg", [])),
    ("leader-only", (1,), 1, {}, True, (), {1: []}, ("spg", [])),
]


class TestGraphView:
    @pytest.mark.parametrize(
        "ids,leader,edges,tree,followers,neighbors,report",
        [pytest.param(*case[1:], id=case[0]) for case in GRAPH_CASES],
    )
    def test_matches_recorded_values(self, ids, leader, edges, tree, followers, neighbors, report):
        g = PolymatrixGame(ids, {p: ("a", "b") for p in ids}, leader, edges)
        assert g.is_one_level_tree() is tree
        assert g.followers == followers
        assert {p: g.neighbors(p) for p in neighbors} == neighbors
        rep = validate(g)
        assert (rep.game_class.value, rep.violations) == report

    def test_edge_outside_players_with_actions(self):
        # actions holds player 9 though player_ids does not; validate used
        # to raise GameClassError from leader_matrix
        g = PolymatrixGame((1, 2), {p: ("a", "b") for p in (1, 2, 9)}, 2, _zero_edges((1, 2), (2, 9)))
        rep = validate(g)
        want = ["edge (2,9) names unknown player 9"]
        assert (rep.game_class.value, rep.violations) == ("general_pg", want)

    def test_reversed_edge_key(self):
        # a key lists its lower id first; validate used to raise KeyError
        # from leader_edge on (2, 1)
        g = PolymatrixGame((1, 2), {1: ("a", "b"), 2: ("x", "y")}, 2, {(2, 1): (np.eye(2), np.ones((2, 2)))})
        rep = validate(g)
        want = ["edge (2,1) lists the higher id first"]
        assert (rep.game_class.value, rep.violations) == ("general_pg", want)


class TestBestResponse:
    def test_uniform_best_responses(self, star3_game):
        s = uniform(star3_game)
        assert best_response_set(star3_game, 1, s) == {0}
        assert best_response_set(star3_game, 2, s) == {1}

    def test_all_tied(self):
        g = two_player_game([[1, 1], [1, 1]], [[0, 0], [0, 0]])
        assert best_response_set(g, 1, uniform(g)) == {0, 1}

    def test_requires_tree(self):
        z = np.zeros((2, 2))
        g = PolymatrixGame(
            (1, 2, 3),
            {p: ("a", "b") for p in (1, 2, 3)},
            3,
            {(1, 2): (z, z), (1, 3): (z, z), (2, 3): (z, z)},
        )
        with pytest.raises(GameClassError):
            best_response_set(g, 1, uniform(g))


class TestEvaluateCommitment:
    def test_uniform_value(self, star3_game):
        v, prof = evaluate_commitment(star3_game, uniform(star3_game), "pessimistic")
        assert v == pytest.approx(10.0 / 3)
        assert prof == {1: 0, 2: 1}

    def test_pure_commitment(self, star3_game):
        s = MixedStrategy(3, np.array([1.0, 0.0, 0.0]))
        v, prof = evaluate_commitment(star3_game, s, "pessimistic")
        assert v == 0.0
        assert prof == {1: 2, 2: 1}

    def test_pessimistic_below_optimistic(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = random_oltpg(3, 3, int(rng.integers(10000)))
            s = MixedStrategy(3, rng.dirichlet(np.ones(3)))
            vp, _ = evaluate_commitment(g, s, "pessimistic")
            vo, _ = evaluate_commitment(g, s, "optimistic")
            assert vp <= vo + 1e-12

    def test_bad_mode(self, star3_game):
        with pytest.raises(ValueError):
            evaluate_commitment(star3_game, uniform(star3_game), "greedy")


class TestPureNe:
    def test_tree_equals_best_response_product(self):
        for seed in range(20):
            g = random_oltpg(4, 3, seed)
            rng = np.random.default_rng(seed)
            s = MixedStrategy(4, rng.dirichlet(np.ones(3)))
            got = {tuple(sorted(p.items())) for p in enumerate_pure_ne(g, s)}
            brs = [sorted(best_response_set(g, p, s)) for p in g.followers]
            want = {
                tuple(zip(g.followers, combo)) for combo in itertools.product(*brs)
            }
            assert got == want

    def test_no_pure_ne_possible(self):
        # matching-pennies flavored follower pair: no pure equilibrium
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        z = np.zeros((2, 1))
        g = PolymatrixGame(
            (1, 2, 3),
            {1: ("h", "t"), 2: ("h", "t"), 3: ("x",)},
            3,
            {(1, 2): (a, -a), (1, 3): (z, z), (2, 3): (z, z)},
        )
        s = MixedStrategy(3, np.array([1.0]))
        assert enumerate_pure_ne(g, s) == []

    def test_leader_only_game_has_the_empty_profile(self):
        g = PolymatrixGame((1,), {1: ("x", "y")}, 1, {})
        assert enumerate_pure_ne(g, uniform(g)) == [{}]


class TestJson:
    def test_round_trip(self, star3_game):
        g2, renum = game_from_json_dict(game_to_json_dict(star3_game))
        assert renum is None
        for k in star3_game.edges:
            for i in (0, 1):
                assert (star3_game.edges[k][i] == g2.edges[k][i]).all()

    def test_renumbering_moves_leader_last(self):
        data = {
            "players": [
                {"id": 7, "actions": ["a", "b"]},
                {"id": 2, "actions": ["x", "y"]},
            ],
            "leader": 7,
            "edges": [
                {"p": 2, "q": 7, "payoff_p": [[1, 2], [3, 4]], "payoff_q": [[5, 6], [7, 8]]}
            ],
        }
        g, renum = game_from_json_dict(data)
        assert renum == {2: 1, 7: 2}
        assert g.leader == 2
        assert (g.edges[(1, 2)][0] == [[1, 2], [3, 4]]).all()

    def test_duplicate_edges_rejected(self):
        data = {
            "players": [{"id": 1, "actions": ["a"]}, {"id": 2, "actions": ["x"]}],
            "leader": 2,
            "edges": [
                {"p": 1, "q": 2, "payoff_p": [[0]], "payoff_q": [[0]]},
                {"p": 1, "q": 2, "payoff_p": [[0]], "payoff_q": [[0]]},
            ],
        }
        with pytest.raises(ValueError):
            game_from_json_dict(data)


class TestMixedStrategy:
    def test_valid(self):
        MixedStrategy(1, np.array([0.25, 0.75])).validate(2)

    def test_bad_sum(self):
        with pytest.raises(ValueError):
            MixedStrategy(1, np.array([0.3, 0.3])).validate(2)

    def test_bad_length(self):
        with pytest.raises(ValueError, match=r"^strategy has shape \(1,\), expected \(2,\)$"):
            MixedStrategy(1, np.array([1.0])).validate(2)

    @pytest.mark.parametrize(
        "probs, shape",
        [(np.float64(0.5), r"\(\)"), (np.array([[0.5, 0.5]]), r"\(1, 2\)"), (np.zeros((0,)), r"\(0,\)")],
    )
    def test_bad_shape_is_named(self, probs, shape):
        # a 0-d strategy used to raise IndexError, a (1, 2) one to read "1 entries"
        with pytest.raises(ValueError, match=rf"^strategy has shape {shape}, expected \(2,\)$"):
            MixedStrategy(2, probs).validate(2)
