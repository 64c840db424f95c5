import itertools
import math

import numpy as np
import pytest

from polystack.bayesian_bridge import bg_to_polymatrix
from polystack.game_model import MixedStrategy, PolymatrixGame, evaluate_commitment
from polystack.instance_gen import CnfFormula, clique_to_spg, random_oltpg, sat_to_pg_olfe
from polystack.olfe_solver import solve_olfe
from polystack.oracles import (
    _GRID_BLOCK,
    Graph,
    GridResult,
    graph_from_json_dict,
    graph_to_json_dict,
    grid_oracle,
    max_clique_bruteforce,
    supremum_1d,
)

import oracle_reference as reference
from conftest import two_player_game
from test_bayesian_bridge import random_bg
from test_golden import _rounded_tree, _tied_tree


class TestGridOracle:
    def test_refinement_is_monotone(self):
        for seed in range(5):
            g = random_oltpg(3, 3, seed)
            v8 = grid_oracle(g, 8).value
            v16 = grid_oracle(g, 16).value
            v32 = grid_oracle(g, 32).value
            assert v8 <= v16 + 1e-12 <= v32 + 2e-12

    def test_pure_optimum_found_exactly(self):
        g = two_player_game([[5, 0], [0, 1]], [[7, 0], [0, 2]])
        res = grid_oracle(g, 4)
        assert res.value == pytest.approx(7.0)
        assert res.strategy.probs == pytest.approx([1.0, 0.0])

    def test_optimistic_at_least_pessimistic(self):
        for seed in range(5):
            g = random_oltpg(3, 3, 20 + seed)
            assert grid_oracle(g, 6, "optimistic").value >= grid_oracle(g, 6).value - 1e-12

    def test_guard_rejects_huge_grids(self):
        g = random_oltpg(2, 12, 0)
        with pytest.raises(ValueError, match="grid too large"):
            grid_oracle(g, 5000)

    def test_general_game_skips_no_equilibrium_points(self):
        # follower matching pennies: no pure equilibrium at any grid point
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        z = np.zeros((2, 2))
        g = PolymatrixGame(
            (1, 2, 3),
            {p: ("a", "b") for p in (1, 2, 3)},
            3,
            {(1, 2): (a, -a), (1, 3): (z, z), (2, 3): (z, z)},
        )
        with pytest.raises(ValueError, match="no grid point"):
            grid_oracle(g, 4)

    def test_optimistic_general_skips_measure_zero_equilibria(self):
        # unsatisfiable formula: the profiles worth 1 to the leader are pure
        # equilibria only on measure-zero regions, which OLFE drops
        g = sat_to_pg_olfe(CnfFormula(1, ((1, 1, 1), (-1, -1, -1), (1, 1, 1))), 0.01)
        assert grid_oracle(g, 4, "optimistic").value == pytest.approx(0.01)
        assert solve_olfe(g).value == pytest.approx(0.01)

    def test_optimistic_general_bounds_olfe(self):
        rng = np.random.default_rng(11)
        for _ in range(6):
            clauses = tuple(
                tuple(int(v * s) for v, s in zip(rng.integers(1, 4, 3), rng.choice((-1, 1), 3)))
                for _ in range(3)
            )
            g = sat_to_pg_olfe(CnfFormula(3, clauses), 0.01)
            assert grid_oracle(g, 4, "optimistic").value <= solve_olfe(g).value + 1e-9

    def test_bad_mode_and_resolution(self, star3_game):
        with pytest.raises(ValueError):
            grid_oracle(star3_game, 4, "greedy")
        with pytest.raises(ValueError):
            grid_oracle(star3_game, 0)

    def test_grid_point_count(self, star3_game):
        res = grid_oracle(star3_game, 8)
        assert isinstance(res, GridResult)
        assert res.skipped == 0


class TestSupremum1d:
    def test_knife_edge_supremum_open(self, knife_edge_game):
        v, attained = supremum_1d(knife_edge_game)
        assert v == pytest.approx(0.5)
        assert attained is False

    def test_plateau_attained(self, plateau_game):
        v, attained = supremum_1d(plateau_game)
        assert v == pytest.approx(1.0)
        assert attained is True

    def test_pure_dominance(self):
        g = two_player_game([[3, 0], [0, 1]], [[6, 2], [5, 9]])
        v, attained = supremum_1d(g)
        # follower prefers the first action near t=1, leader then earns 6;
        # pushing toward t where the follower flips can reach 9 at t=0
        assert attained is True
        assert v == pytest.approx(9.0)

    def test_multiple_followers_sum(self):
        fol = [[1, 0], [0, 1]]
        g = PolymatrixGame(
            (1, 2, 3),
            {1: ("a", "b"), 2: ("a", "b"), 3: ("x", "y")},
            3,
            {
                (1, 3): (np.array(fol, float), np.array([[0.0, 1.0], [0.0, 0.0]])),
                (2, 3): (np.array(fol, float), np.array([[0.0, 1.0], [0.0, 0.0]])),
            },
        )
        v, attained = supremum_1d(g)
        assert v == pytest.approx(1.0)
        assert attained is False

    def test_requires_two_leader_actions(self):
        g = random_oltpg(2, 3, 0)
        with pytest.raises(ValueError):
            supremum_1d(g)
        g = sat_to_pg_olfe(CnfFormula(3, ((1, 2, 3), (-1, 2, 3), (1, -2, -3))), 0.01)  # general
        with pytest.raises(ValueError, match="requires a one-level tree game"):
            supremum_1d(g)

    def test_matches_fine_grid(self):
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            mf = int(rng.integers(2, 5))
            g = two_player_game(
                rng.uniform(0, 10, (mf, 2)), rng.uniform(0, 10, (mf, 2))
            )
            v, _ = supremum_1d(g)
            assert grid_oracle(g, 512).value <= v + 1e-9


def _small_int_tree(rng, m_n, leader_first):
    """A tree with small integer payoffs, so best responses and leader
    values tie often; the leader is player 1 or the highest id."""
    nf = int(rng.integers(1, 4))
    leader = 1 if leader_first else nf + 1
    followers = [p for p in range(1, nf + 2) if p != leader]
    actions = {p: tuple("abcd"[: int(rng.integers(1, 5))]) for p in followers}
    actions[leader] = tuple("wxyz"[:m_n])
    edges = {}
    for p in followers:
        fol = rng.integers(0, 3, (len(actions[p]), m_n)).astype(float)
        lead = rng.integers(-2, 3, (len(actions[p]), m_n)).astype(float)
        edges[(p, leader) if p < leader else (leader, p)] = (fol, lead) if p < leader else (lead.T, fol.T)
    return PolymatrixGame(tuple(range(1, nf + 2)), actions, leader, edges)


def _reference_games(*fixtures):
    """(game, grid resolution) of the trees the batched oracles are held
    to their per-point reference on, the given fixtures first."""
    games = [*fixtures] + [
        random_oltpg(n, m, seed, kind=kind)
        for kind in ("oltpg", "spg")
        for n, m, seed in itertools.product((2, 3, 5), (2, 3, 4), (0, 1))
    ]
    games.append(clique_to_spg(Graph(5, ((1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))))
    for seed, kind, ml in ((0, "interdependent", 3), (1, "independent", 3), (2, "interdependent", 2)):
        games.append(bg_to_polymatrix(random_bg(seed, kind=kind, ml=ml)))
    games += [_rounded_tree(), *(_tied_tree(p) for p in (1, 2, 3))]
    # the follower's actions differ by 5e-10 * t: tied within DEFAULT_TOL,
    # not within supremum_1d's 1e-11 once t > 0.02
    games.append(two_player_game([[1, 0], [1 - 5e-10, 0]], [[3, 2], [0, 1]]))
    rng = np.random.default_rng(2018)
    games += [_small_int_tree(rng, 2 + i % 3, i % 2 == 1) for i in range(40)]
    return [(g, {2: 24, 3: 9, 4: 6}.get(g.num_actions(g.leader), 4)) for g in games]


class TestMatchesReference:
    """The block-scored tree grid, ``evaluate_commitment`` and
    ``supremum_1d`` against their per-point forms in ``oracle_reference``:
    the same value bits, witness bytes, skipped count and tie choices."""

    def assert_grid_matches(self, game, k, mode):
        got, want = grid_oracle(game, k, mode), reference.tree_grid_oracle(game, k, mode)
        assert repr(got.value) == repr(want.value)
        assert got.strategy.probs.tobytes() == want.strategy.probs.tobytes()
        assert got.skipped == want.skipped

    @pytest.mark.parametrize("mode", ["pessimistic", "optimistic"])
    def test_grid_and_evaluation(self, mode, knife_edge_game, plateau_game):
        rng = np.random.default_rng(7)
        for game, k in _reference_games(knife_edge_game, plateau_game):
            self.assert_grid_matches(game, k, mode)
            m_n = game.num_actions(game.leader)
            points = [*rng.dirichlet(np.ones(m_n), 10), *np.eye(m_n), np.full(m_n, 1 / m_n)]
            for probs in points:
                s = MixedStrategy(game.leader, probs)
                got, want = evaluate_commitment(game, s, mode), reference.evaluate_commitment(game, s, mode)
                assert (repr(got[0]), got[1]) == (repr(want[0]), want[1])

    def test_supremum_1d(self, knife_edge_game, plateau_game):
        rng = np.random.default_rng(1)
        games = _reference_games(knife_edge_game, plateau_game)
        two = [g for g, _ in games if g.num_actions(g.leader) == 2]
        for game in two + [_small_int_tree(rng, 2, i % 2 == 1) for i in range(200)]:
            got, want = supremum_1d(game), reference.supremum_1d(game)
            assert (repr(got[0]), got[1]) == (repr(want[0]), want[1])

    @pytest.mark.parametrize("mode", ["pessimistic", "optimistic"])
    def test_grid_spanning_several_blocks(self, mode):
        game = random_oltpg(2, 12, 0)
        assert math.comb(6 + 11, 11) > 3 * _GRID_BLOCK
        self.assert_grid_matches(game, 6, mode)
        # every point ties at 0 or the two vertices at either end of the
        # lattice order tie at 1: the first point in order is kept
        for row in (np.zeros(12), np.eye(12)[0] + np.eye(12)[11]):
            tied = two_player_game(np.zeros((1, 12)), [row], tuple(f"x{i}" for i in range(12)))
            self.assert_grid_matches(tied, 6, mode)
            assert grid_oracle(tied, 6, mode).strategy.probs.tolist() == [0.0] * 11 + [1.0]


class TestGraph:
    def test_normalizes_and_sorts_edges(self):
        g = Graph(4, ((3, 1), (2, 4), (1, 3)))
        assert g.edges == ((1, 3), (2, 4))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 1),))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, ((1, 4),))

    def test_is_complete(self):
        assert Graph(3, ((1, 2), (1, 3), (2, 3))).is_complete()
        assert not Graph(3, ((1, 2), (1, 3))).is_complete()

    def test_json_round_trip(self):
        g = Graph(5, ((1, 2), (2, 5), (3, 4)))
        assert graph_from_json_dict(graph_to_json_dict(g)) == g

    def test_malformed_json(self):
        with pytest.raises(ValueError):
            graph_from_json_dict({"edges": [[1, 2]]})
        for edges in ([[1, 2, 3]], [[1]], [1]):
            with pytest.raises(ValueError, match="^malformed graph JSON: edge 0 is not a pair"):
                graph_from_json_dict({"vertices": 3, "edges": edges})

    @pytest.mark.parametrize(
        "data",
        [
            {"vertices": 3.0, "edges": [[1, 2]]},
            {"vertices": 3, "edges": [[1.9, 2]]},
            {"vertices": 3, "edges": [[1, True]]},
            {"vertices": 3, "edges": [["1", 2]]},
        ],
        ids=["float-vertices", "float-end", "bool-end", "string-end"],
    )
    def test_non_integer_id_rejected(self, data):
        with pytest.raises(ValueError, match="must be an integer"):
            graph_from_json_dict(data)


class TestMaxClique:
    def test_path_graph(self):
        assert max_clique_bruteforce(Graph(4, ((1, 2), (2, 3), (3, 4)))) == 2

    def test_empty_graph(self):
        assert max_clique_bruteforce(Graph(4, ())) == 1
        assert max_clique_bruteforce(Graph(0, ())) == 0

    def test_triangle_plus_pendant(self):
        assert max_clique_bruteforce(Graph(4, ((1, 2), (1, 3), (2, 3), (3, 4)))) == 3

    def test_complete_graph(self):
        edges = tuple(itertools.combinations(range(1, 7), 2))
        assert max_clique_bruteforce(Graph(6, edges)) == 6

    def test_matches_exhaustive_search(self):
        rng = np.random.default_rng(123)
        for _ in range(20):
            r = 8
            edges = tuple(
                e for e in itertools.combinations(range(1, r + 1), 2) if rng.random() < 0.5
            )
            g = Graph(r, edges)
            edge_set = set(g.edges)
            best = 1
            for size in range(2, r + 1):
                for combo in itertools.combinations(range(1, r + 1), size):
                    if all(
                        (a, b) in edge_set for a, b in itertools.combinations(combo, 2)
                    ):
                        best = max(best, size)
            assert max_clique_bruteforce(g) == best

    def test_size_cap(self):
        with pytest.raises(ValueError):
            max_clique_bruteforce(Graph(21, ()))
