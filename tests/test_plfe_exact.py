import itertools
import math

import numpy as np
import pytest

from polystack import olfe_solver, plfe_exact
from polystack.bayesian_bridge import BayesianGame, FollowerType, bg_to_polymatrix
from polystack.game_model import GameClassError, MixedStrategy, PolymatrixGame, evaluate_commitment
from polystack.instance_gen import (
    CnfFormula,
    clique_to_spg,
    random_oltpg,
    sat_to_pg_olfe,
    sat_to_pg_plfe,
)
from polystack.lp_core import LpStatus, maximize
from polystack.olfe_solver import NoPureCommitmentError, solve_olfe
from polystack.oracles import Graph, grid_oracle, supremum_1d
from polystack.plfe_exact import (
    EPS_TOL,
    VALUE_TIE_TOL,
    _Blocks,
    best_first,
    find_apx,
    solve_plfe,
)

from conftest import two_player_game


def tie_set(game, p, a_p):
    return _Blocks(game).tie_set[p][a_p]


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
            blocks = _Blocks(g)
            for p in g.followers:
                classes = {tuple(group) for group in blocks.tie_set[p]}
                seen = sorted(a for group in classes for a in group)
                assert seen == list(range(4))


def _margin(blocks, combo):
    """(max margin, point) of the profile's margin LP; (0.0, None) when a
    tied action rules the profile out. Zero means an empty interior."""
    rows = blocks.rows(combo)
    return (0.0, None) if rows is None else plfe_exact._emptiness(*rows, blocks.m_n)


def _zeta(blocks, combo, D, s):
    """The max-min LP's zeta values at s, one D row each, keyed by the
    (follower, non-tied action) of ``_maxmin_matrices``'s zeta columns."""
    keys = plfe_exact._maxmin_matrices(blocks, combo, D)[1]
    return {key: float(D[row] @ s.probs) for row, key in enumerate(keys)}


def _max_min(game, combo):
    """(value, strategy, zeta at the strategy) of the profile's max-min LP."""
    blocks = _Blocks(game)
    D, _ = blocks.rows(combo)
    v, s = plfe_exact._max_min(blocks, combo, D)
    return v, s, _zeta(blocks, combo, D, s)


def _attainment(game, combo):
    """(beta, zeta at the witness) of ``_attainment`` at the profile's
    max-min value."""
    blocks = _Blocks(game)
    D, _ = blocks.rows(combo)
    v, _ = plfe_exact._max_min(blocks, combo, D)
    beta, witness = plfe_exact._attainment(blocks, combo, D, v)
    return beta, _zeta(blocks, combo, D, witness)


class TestEmptinessCheck:
    def test_interior_profile_hits_cap(self, star3_game):
        eps, witness = _margin(_Blocks(star3_game), (0, 1))
        assert eps == pytest.approx(1.0)
        assert witness is not None

    def test_single_point_region(self):
        g = two_player_game([[1, 0], [0, 1], [0.5, 0.5]], [[0, 0]] * 3)
        eps, _ = _margin(_Blocks(g), (2,))
        assert eps == pytest.approx(0.0, abs=1e-12)

    def test_fully_tied_profile_unconstrained(self):
        g = two_player_game([[1, 1], [1, 1]], [[0, 0], [0, 0]])
        eps, _ = _margin(_Blocks(g), (0,))
        assert eps == pytest.approx(1.0)


class TestMaxMin:
    def test_attained_case(self, plateau_game):
        v, s, zeta = _max_min(plateau_game, (0,))
        assert v == pytest.approx(1.0)
        assert set(zeta) == {(1, 1)}

    def test_supremum_case(self, knife_edge_game):
        v, s, zeta = _max_min(knife_edge_game, (0,))
        assert v == pytest.approx(0.5)
        assert s.probs == pytest.approx([0.5, 0.5])
        assert zeta[(1, 1)] == pytest.approx(0.0, abs=1e-12)

    def test_drifted_vertex_is_solved_afresh(self):
        # the simplex tableau's vertex of this max-min LP lies 1.6e-7
        # outside a row, so the LP used to end in SolverFailure; HiGHS
        # gives 362.53737652567656
        g = random_oltpg(7, 8, 1)
        assert g.followers == (1, 2, 3, 4, 5, 6)
        v, _, _ = _max_min(g, (0, 2, 3, 2, 4, 5))
        assert v == 362.53737652567645

    def test_constant_tied_leader_payoffs(self):
        g = two_player_game([[1, 1], [1, 1]], [[3, 3], [3, 3]])
        v, _, zeta = _max_min(g, (0,))
        assert v == pytest.approx(3.0)
        assert zeta == {}


class TestAttainment:
    def test_knife_edge_not_attained(self, knife_edge_game):
        beta, _ = _attainment(knife_edge_game, (0,))
        assert beta is True

    def test_plateau_attained_with_full_slack(self, plateau_game):
        beta, zeta = _attainment(plateau_game, (0,))
        assert beta is False
        assert zeta[(1, 1)] == pytest.approx(1.0)

    def test_no_nontied_actions(self):
        g = two_player_game([[1, 1], [1, 1]], [[3, 0], [0, 3]])
        beta, zeta = _attainment(g, (0,))
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

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_alpha(self, knife_edge_game, alpha):
        with pytest.raises(ValueError, match="^alpha must be positive"):
            find_apx(knife_edge_game, {1: 0}, None, 0.5, alpha)


class TestSolvePlfe:
    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_rejects_non_finite_alpha(self, knife_edge_game, alpha):
        # a NaN alpha used to pass and come back as the result's alpha
        with pytest.raises(ValueError, match="^alpha must be positive"):
            solve_plfe(knife_edge_game, alpha=alpha)

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

    @pytest.mark.parametrize("limit", [float("nan"), -1.0])
    def test_bad_time_limit_rejected(self, limit):
        g = random_oltpg(3, 2, 0)
        for solve in (solve_plfe, solve_olfe):
            with pytest.raises(ValueError, match="time limit"):
                solve(g, time_limit=limit)

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

    def test_helpers_reject_general_games(self):
        g = sat_to_pg_olfe(CnfFormula(3, ((1, 2, 3), (-1, 2, 3), (1, -2, -3))), 0.01)
        with pytest.raises(GameClassError):
            find_apx(g, {p: 0 for p in g.followers}, None, 1.0, 0.01)

    def test_diagnostics_present(self, knife_edge_game):
        r = solve_plfe(knife_edge_game)
        assert set(r.diagnostics) == {"survivors"}


def _bayesian_game(seed):
    rng = np.random.default_rng(seed)
    types = 2 + seed % 3
    probs = rng.dirichlet(np.ones(types))
    probs[-1] = 1.0 - probs[:-1].sum()
    kinds = [
        FollowerType(f"t{i}", float(probs[i]), rng.uniform(0, 100, (3, 3)), rng.uniform(0, 100, (3, 3)))
        for i in range(types)
    ]
    return bg_to_polymatrix(BayesianGame(("l0", "l1", "l2"), ("f0", "f1", "f2"), tuple(kinds), "interdependent"))


def _search_games():
    for n in range(3, 7):
        for m in range(2, 6):
            for seed in range(3):
                yield pytest.param(random_oltpg(n, m, seed), id=f"random-{n}-{m}-{seed}")
    for graph in (
        Graph(3, ((1, 2), (2, 3))),
        Graph(4, ((1, 2), (2, 3), (3, 4))),
        Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 3))),
    ):
        yield pytest.param(clique_to_spg(graph), id=f"clique-{graph.vertices}")
    for seed in range(5):
        yield pytest.param(_bayesian_game(seed), id=f"bayes-{seed}")


def _flat_survivors(game):
    """Every profile, in lexicographic order, whose region the margin LP
    over its stacked rows finds full-dimensional."""
    blocks = _Blocks(game)
    return [
        combo
        for combo in itertools.product(*[range(game.num_actions(p)) for p in game.followers])
        if _margin(blocks, combo)[0] > EPS_TOL
    ]


def _general_game(seed):
    """Random polymatrix game on a random graph with payoffs in {0, 1, 2},
    so actions tie; some followers have no edge to the leader."""
    rng = np.random.default_rng(seed)
    nf = 2 + seed % 4
    n = nf + 1
    actions = {p: tuple(f"a{j}" for j in range(rng.integers(2, 4))) for p in range(1, n)}
    actions[n] = tuple(f"l{j}" for j in range(2 + seed % 3))
    edges = {}
    for p, q in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < (0.8 if q == n else 0.6):
            shape = (len(actions[p]), len(actions[q]))
            edges[(p, q)] = (rng.integers(0, 3, shape).astype(float), rng.integers(0, 3, shape).astype(float))
    return PolymatrixGame(tuple(range(1, n + 1)), actions, n, edges)


def _general_games():
    for name, cnf in (
        ("sat", CnfFormula(3, ((1, 2, 3), (-1, 2, 3), (1, -2, -3)))),
        ("unsat", CnfFormula(1, ((1, 1, 1), (-1, -1, -1), (1, 1, 1)))),
        ("repeated-literal", CnfFormula(2, ((1, 2, 1), (-1, 2, 2), (1, -2, 1)))),
    ):
        yield pytest.param(sat_to_pg_olfe(cnf, 0.01), id=f"sat-olfe-{name}")
    yield pytest.param(sat_to_pg_plfe(CnfFormula(2, ((1, -2, 2),)), 0.01), id="sat-plfe")
    for seed in range(12):
        yield pytest.param(_general_game(seed), id=f"general-{seed}")


def _flat_inducible(game):
    """Every profile, in lexicographic order, whose inducibility region has
    nonempty interior, with the leader's best value on it. A profile's rows
    come straight from ``game.edge_payoffs``: for each deviation a2 of each
    follower p, D s + d0 >= 0 with D the difference of p's leader-edge
    rows and d0 that of p's follower-follower payoffs."""
    followers = game.followers
    m_n = game.num_actions(game.leader)
    own = {}
    for p in followers:
        for q in game.neighbors(p):
            own[(p, q)] = game.edge_payoffs(p, q)[0]
    out = []
    for combo in itertools.product(*[range(game.num_actions(p)) for p in followers]):
        profile = dict(zip(followers, combo))
        rows, consts = [], []
        objective = np.zeros(m_n)
        for p in followers:
            a = profile[p]
            lead = own.get((p, game.leader), np.zeros((game.num_actions(p), m_n)))
            if (p, game.leader) in own:
                objective += game.edge_payoffs(p, game.leader)[1][a]
            for a2 in range(game.num_actions(p)):
                dv = lead[a] - lead[a2]
                d0 = sum(own[(p, q)][a, profile[q]] - own[(p, q)][a2, profile[q]]
                         for q in followers if (p, q) in own)
                if a2 != a and ((dv != 0).any() or d0 != 0):
                    rows.append(dv)
                    consts.append(d0)
        D = np.array(rows).reshape(-1, m_n)
        # max eps s.t. D s + d0 >= eps, eps <= 1, s in the simplex
        A_ub = np.vstack([np.hstack([-D, np.ones((len(D), 1))]), np.eye(1, m_n + 1, m_n)])
        b_ub = np.append(consts, 1.0)
        A_eq = np.append(np.ones(m_n), 0.0)[None]
        res = maximize(np.eye(1, m_n + 1, m_n)[0], A_ub, b_ub, A_eq, [1.0])
        if res.status is LpStatus.OPTIMAL and res.objective > EPS_TOL:
            best = maximize(objective, -D if len(D) else None, consts or None, np.ones((1, m_n)), [1.0])
            out.append((combo, best.objective))
    return out


def _profile_bound(game, combo):
    """The leader's best pure payoff against the profile: the bound under
    which ``best_first`` solves it."""
    return float(np.max(sum(game.leader_edge(p)[1][a] for p, a in zip(game.followers, combo))))


# per solver: the solve, the name of the plfe_exact function that solves a
# profile, and the diagnostic counting the profiles it solves
_SOLVERS = {
    "plfe": (solve_plfe, "_max_min", "survivors"),
    "olfe": (solve_olfe, "_profile_lp", "inducible_profiles"),
}


def _optimistic(game, combos):
    """{combo: its optimistic profile LP value} over the given profiles."""
    blocks = _Blocks(game)
    return {c: plfe_exact._profile_lp(blocks, c, *blocks.rows(c))[0] for c in combos}


def _solve_recorded(monkeypatch, game, solver, flat):
    """Runs the solver on the game, recording the full profiles
    ``best_first`` hands to its per-profile LP, and checks them against
    ``flat``, the profiles with a full-dimensional region mapped to their
    optimistic profile LP values: they are some of them, each once, among
    them every one whose optimistic value is within the stop margin of the
    best value, and the solver's diagnostic counts them. Returns the
    result."""
    solve, name, diagnostic = _SOLVERS[solver]
    lp = getattr(plfe_exact, name)
    solved, values = [], []

    def recorded(blocks, combo, *args):
        got = lp(blocks, combo, *args)
        if len(combo) == len(blocks.followers):  # not a prefix's bound LP
            solved.append(combo)
            if got is not None:
                values.append(got[0])
        return got

    with monkeypatch.context() as m:
        m.setattr(plfe_exact, name, recorded)
        r = solve(game)
    assert set(solved) <= set(flat) and len(set(solved)) == len(solved)
    best = max(values)
    margin = VALUE_TIE_TOL + 1e-6 * max(1.0, abs(best))
    assert {c for c, v in flat.items() if v >= best - margin} <= set(solved)
    assert r.diagnostics[diagnostic] == len(solved)
    return r


def _every_profile(game):
    """``best_first`` with a value of -inf, which never stops the search:
    (the profiles it reaches, in the order it returns them, profiles
    solved, covered, truncated)."""
    results, found, covered, truncated = best_first(
        _Blocks(game), lambda combo, D, d0: (-math.inf, combo)
    )
    return [combo for _, combo in results], found, covered, truncated


class TestSearchProfiles:
    @pytest.mark.parametrize("game", list(_search_games()))
    def test_survivors_match_flat_reference(self, game, monkeypatch):
        flat = _flat_survivors(game)
        found, solved, covered, truncated = _every_profile(game)
        assert found == flat  # same profiles, same lexicographic order
        total = math.prod(game.num_actions(p) for p in game.followers)
        assert solved == len(flat) and covered == total and not truncated
        for solver in _SOLVERS:
            _solve_recorded(monkeypatch, game, solver, _optimistic(game, flat))

    def test_pruned_subtree_counts_at_full_size(self):
        # follower 1's action 2 is strictly dominated: its region is empty,
        # so the search cuts off the 3 * 4 profiles below it at depth one
        rng = np.random.default_rng(3)
        sizes = {1: 3, 2: 3, 3: 4}
        edges = {}
        for p, m_p in sizes.items():
            fol = rng.uniform(0, 100, (m_p, 3))
            if p == 1:
                fol[2] = fol[:2].min(axis=0) - 1.0
            edges[(p, 4)] = (fol, rng.uniform(0, 100, (m_p, 3)))
        actions = {p: tuple(f"a{j}" for j in range(m_p)) for p, m_p in sizes.items()}
        actions[4] = ("x", "y", "z")
        game = PolymatrixGame((1, 2, 3, 4), actions, 4, edges)
        assert _margin(_Blocks(game), (2, 0, 0))[0] <= EPS_TOL
        for solve in (solve_plfe, solve_olfe):
            r = solve(game)
            assert r.profiles_enumerated == 36
            assert r.anytime_complete

    @pytest.mark.parametrize("game", list(_general_games()))
    def test_general_graph_matches_flat_reference(self, game, monkeypatch):
        flat = _flat_inducible(game)
        found, solved, covered, truncated = _every_profile(game)
        assert found == [combo for combo, _ in flat]
        total = math.prod(game.num_actions(p) for p in game.followers)
        assert solved == len(flat) and covered == total and not truncated
        if not flat:
            with pytest.raises(NoPureCommitmentError):
                solve_olfe(game)
            return
        r = _solve_recorded(monkeypatch, game, "olfe", dict(flat))
        assert r.profiles_enumerated == total
        best = max(v for _, v in flat)
        assert r.value == pytest.approx(best, abs=1e-9)
        first = next(combo for combo, v in flat if v >= best - 1e-9)
        assert r.profile == dict(zip(game.followers, first))


def _solve_every_profile(blocks, solve=None, time_limit=None):
    """``best_first`` without its search or its bounds: solves every profile
    of ``_flat_survivors``, in lexicographic order."""
    combos = _flat_survivors(blocks.game)
    if solve is None:
        def solve(combo, D, d0):
            got = plfe_exact._profile_lp(blocks, combo, D, d0)
            return None if got is None else (got[0], combo, got[1])
    results = [r for r in (solve(combo, *blocks.rows(combo)) for combo in combos) if r is not None]
    total = math.prod(blocks.game.num_actions(p) for p in blocks.followers)
    return results, len(combos), total, False


def _rounded_spg(n, m, seed):
    """random_oltpg(n, m, seed, kind="spg") with every payoff x mapped to
    round(x / 50), so that profiles tie in value, in bound or both."""
    g = random_oltpg(n, m, seed, kind="spg")
    edges = {key: tuple(np.round(mat / 50) for mat in mats) for key, mats in g.edges.items()}
    return PolymatrixGame(g.player_ids, g.actions, g.leader, edges)


def _tie_games():
    # in clique games several profiles share the best value and the best
    # bound; in the rounded star games some contenders have unequal bounds
    for graph in (
        Graph(3, ((1, 2), (2, 3))),
        Graph(4, ((1, 2), (2, 3), (3, 4))),
        Graph(4, ((1, 2), (1, 3), (1, 4))),
        Graph(5, ((1, 2), (3, 4))),
        Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (1, 3))),
    ):
        yield pytest.param(clique_to_spg(graph), id=f"clique-{graph.vertices}-{len(graph.edges)}")
    for n in range(3, 6):
        for m in range(2, 5):
            for seed in range(3):
                yield pytest.param(_rounded_spg(n, m, seed), id=f"spg-{n}-{m}-{seed}")


class TestBestFirst:
    @pytest.mark.parametrize("args", [(5, 6, 1), (4, 8, 2), (3, 14, 1001)])
    def test_profile_lp_budget(self, lp_calls, args):
        # 150, 165 and 159 profiles have a full-dimensional region; the
        # bounds leave all but 2, 1 and 2 of them without a max-min LP.
        # OLFE's profile LPs include the bound LPs on prefixes
        g = random_oltpg(*args)
        for solve, kind in ((solve_plfe, "_max_min"), (solve_olfe, "_profile_lp")):
            lp_calls.clear()
            solve(g)
            assert sum(name == kind for name, _, _ in lp_calls) <= 40, kind
            assert sum(name == "_max_min" for name, _, _ in lp_calls) <= 3

    @pytest.mark.parametrize(
        "game",
        [
            pytest.param(random_oltpg(n, m, seed), id=f"random-{n}-{m}-{seed}")
            for n in range(3, 6)
            for m in range(2, 5)
            for seed in range(3)
        ]
        + list(_tie_games()),
    )
    def test_bound_lp_bounds_every_extension(self, game):
        # the bound best_first puts on a prefix with nonempty interior: the
        # optimistic value of every inducible profile extending it, and a
        # full profile's max-min value, are at most its padded LP value
        blocks = _Blocks(game)
        n = len(game.followers)
        best = {}  # prefix: the best optimistic value over its extensions
        for combo, v in _optimistic(game, _flat_survivors(game)).items():
            for k in range(n + 1):
                best[combo[:k]] = max(best.get(combo[:k], -math.inf), v)
        for prefix, v in best.items():
            D, d0 = blocks.rows(prefix)
            bound = plfe_exact._padded(plfe_exact._profile_lp(blocks, prefix, D, d0)[0])
            assert v <= bound, prefix
            if len(prefix) == n:
                assert plfe_exact._max_min(blocks, prefix, D)[0] <= bound, prefix

    def test_margin_lp_budget(self, lp_calls):
        # a search of every prefix ran 5,490 margin LPs here; the bound
        # leaves prefixes that cannot win unextended
        solve_plfe(random_oltpg(6, 8, 1))
        assert sum(name in ("_emptiness", "_strict_eps_lp") for name, _, _ in lp_calls) <= 300

    @pytest.mark.parametrize("game", list(_tie_games()))
    def test_same_winner_as_solving_every_profile(self, game, monkeypatch):
        flat = _optimistic(game, _flat_survivors(game))
        fast = [_solve_recorded(monkeypatch, game, solver, flat) for solver in _SOLVERS]
        monkeypatch.setattr(plfe_exact, "best_first", _solve_every_profile)
        monkeypatch.setattr(olfe_solver, "best_first", _solve_every_profile)
        reference = (solve_plfe(game), solve_olfe(game))
        for r, ref in zip(fast, reference):
            assert r.value == ref.value
            assert r.profile == ref.profile
            assert r.attained == ref.attained
            assert r.strategy.probs.tobytes() == ref.strategy.probs.tobytes()

    def test_deadline_stops_before_next_lp(self):
        # every value is 0, far below every bound, so only the deadline
        # stops the search; it has passed from the start, so the driver
        # extends prefixes down to its first result and no further
        blocks = _Blocks(random_oltpg(3, 3, 0))
        events = []
        extend = blocks.extend

        def logged(combo, s):
            events.append("extend")
            return extend(combo, s)

        def solve(combo, D, d0):
            events.append("solve")
            return 0.0, combo

        blocks.extend = logged
        results, found, covered, truncated = best_first(blocks, solve, time_limit=0.0)
        assert len(results) == found == 1 and truncated
        assert events.count("solve") == 1 and events[-1] == "solve"
        assert covered < 3**2

    def test_bound_stop_covers_every_profile(self):
        # each value equals its profile's bound, so the first profile solved
        # is the best and the bound stops the search long before the
        # deadline; the subtrees it cuts count at full size
        game = random_oltpg(5, 6, 1)
        blocks = _Blocks(game)
        results, found, covered, truncated = best_first(
            blocks, lambda combo, D, d0: (_profile_bound(game, combo), combo), time_limit=60.0
        )
        assert found == len(results) == 1 and covered == 6**4 and not truncated
        for solve in (solve_plfe, solve_olfe):
            r = solve(game, time_limit=60.0)
            assert r.profiles_enumerated == 6**4 and r.anytime_complete
