import numpy as np
import pytest

from polystack.bayesian_bridge import (
    BayesianGame,
    FollowerType,
    bg_from_json_dict,
    bg_leader_utility,
    bg_to_json_dict,
    bg_to_polymatrix,
    bg_type_utility,
    polymatrix_to_bg,
)
from polystack.game_model import (
    GameClass,
    GameClassError,
    MixedStrategy,
    best_response_set,
    evaluate_commitment,
    validate,
)
from polystack.plfe_exact import solve_plfe


def random_bg(seed, num_types=3, kind="interdependent", ml=3, mf=3):
    rng = np.random.default_rng(seed)
    if kind == "interdependent":
        probs = rng.dirichlet(np.ones(num_types))
        leader_mats = [rng.uniform(0, 100, (ml, mf)) for _ in range(num_types)]
    else:
        probs = np.full(num_types, 1.0 / num_types)
        shared = rng.uniform(0, 100, (ml, mf))
        leader_mats = [shared] * num_types
    types = tuple(
        FollowerType(f"t{i}", float(probs[i]), rng.uniform(0, 100, (ml, mf)), leader_mats[i])
        for i in range(num_types)
    )
    return BayesianGame(
        tuple(f"l{j}" for j in range(ml)),
        tuple(f"f{j}" for j in range(mf)),
        types,
        kind,
    )


class TestForward:
    def test_shapes_and_class(self):
        bg = random_bg(0)
        g = bg_to_polymatrix(bg)
        assert g.leader == 4
        assert g.followers == (1, 2, 3)
        assert validate(g).game_class is GameClass.OLTPG

    def test_independent_gives_star(self):
        bg = random_bg(1, kind="independent")
        g = bg_to_polymatrix(bg)
        assert validate(g).game_class is GameClass.SPG

    def test_leader_utilities_match(self):
        bg = random_bg(2)
        g = bg_to_polymatrix(bg)
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = rng.dirichlet(np.ones(3))
            acts = list(rng.integers(0, 3, size=3))
            from polystack.game_model import pure_utility

            want = bg_leader_utility(bg, s, acts)
            got = sum(
                s[i]
                * pure_utility(g, g.leader, {1: acts[0], 2: acts[1], 3: acts[2], 4: i})
                for i in range(3)
            )
            assert got == pytest.approx(want, abs=1e-9)

    def test_type_best_responses_preserved(self):
        bg = random_bg(3)
        g = bg_to_polymatrix(bg)
        rng = np.random.default_rng(11)
        for _ in range(10):
            probs = rng.dirichlet(np.ones(3))
            s = MixedStrategy(g.leader, probs)
            for idx, p in enumerate(g.followers):
                utils = [bg_type_utility(bg, idx, probs, a) for a in range(3)]
                want = {a for a, u in enumerate(utils) if u >= max(utils) - 1e-11}
                assert best_response_set(g, p, s) == want

    def test_zero_prob_type_dropped_with_warning(self):
        bg = random_bg(4)
        types = bg.types[:2] + (
            FollowerType("dead", 0.0, bg.types[2].follower_payoff, bg.types[2].leader_payoff),
        )
        total = types[0].prob + types[1].prob
        types = (
            FollowerType("a", types[0].prob / total * 1.0, types[0].follower_payoff, types[0].leader_payoff),
            FollowerType("b", 1.0 - types[0].prob / total, types[1].follower_payoff, types[1].leader_payoff),
            types[2],
        )
        bg2 = BayesianGame(bg.leader_actions, bg.follower_actions, types, "interdependent")
        with pytest.warns(UserWarning, match="zero-probability"):
            g = bg_to_polymatrix(bg2)
        assert len(g.followers) == 2


class TestRoundTrip:
    def test_interdependent_bit_exact(self):
        for seed in range(20):
            for t in (1, 2, 3, 5):
                bg = random_bg(seed, num_types=t)
                g = bg_to_polymatrix(bg)
                bg2 = polymatrix_to_bg(g)
                g2 = bg_to_polymatrix(bg2)
                assert bg2.kind == "interdependent" or t == 1 or validate(g).game_class is GameClass.SPG
                for k in g.edges:
                    assert np.array_equal(g.edges[k][0], g2.edges[k][0])
                    assert np.array_equal(g.edges[k][1], g2.edges[k][1])

    def test_independent_bit_exact(self):
        for seed in range(20):
            bg = random_bg(seed, num_types=3, kind="independent")
            g = bg_to_polymatrix(bg)
            bg2 = polymatrix_to_bg(g)
            assert bg2.kind == "independent"
            g2 = bg_to_polymatrix(bg2)
            for k in g.edges:
                assert np.array_equal(g.edges[k][0], g2.edges[k][0])
                assert np.array_equal(g.edges[k][1], g2.edges[k][1])

    def test_utilities_preserved_across_round_trip(self):
        rng = np.random.default_rng(42)
        for seed in range(10):
            bg = random_bg(seed)
            g = bg_to_polymatrix(bg)
            # round-trip Bayesian games need not share type probabilities,
            # but the induced tree games must agree to working precision
            g2 = bg_to_polymatrix(polymatrix_to_bg(g))
            s = rng.dirichlet(np.ones(3))
            ms = MixedStrategy(g.leader, s)
            v1, _ = evaluate_commitment(g, ms, "pessimistic")
            v2, _ = evaluate_commitment(g2, ms, "pessimistic")
            assert abs(v1 - v2) <= 1e-12

    def test_equilibrium_value_transfers(self):
        for seed in range(5):
            bg = random_bg(seed, num_types=2, ml=2, mf=2)
            g = bg_to_polymatrix(bg)
            g2 = bg_to_polymatrix(polymatrix_to_bg(g))
            r1, r2 = solve_plfe(g), solve_plfe(g2)
            assert r1.value == r2.value

    def test_general_game_rejected(self):
        from polystack.game_model import PolymatrixGame

        z = np.zeros((2, 2))
        g = PolymatrixGame(
            (1, 2, 3),
            {p: ("a", "b") for p in (1, 2, 3)},
            3,
            {(1, 2): (z, z), (1, 3): (z, z), (2, 3): (z, z)},
        )
        with pytest.raises(GameClassError):
            polymatrix_to_bg(g)


class TestJson:
    def test_interdependent_round_trip(self):
        bg = random_bg(6)
        bg2 = bg_from_json_dict(bg_to_json_dict(bg))
        assert bg2.kind == bg.kind
        for a, b in zip(bg.types, bg2.types):
            assert a.prob == b.prob
            assert np.array_equal(a.follower_payoff, b.follower_payoff)
            assert np.array_equal(a.leader_payoff, b.leader_payoff)

    def test_independent_uses_shared_matrix(self):
        bg = random_bg(7, kind="independent")
        data = bg_to_json_dict(bg)
        assert "leader_payoff" in data
        assert all("leader_payoff" not in t for t in data["types"])
        bg2 = bg_from_json_dict(data)
        assert np.array_equal(bg2.types[0].leader_payoff, bg.types[0].leader_payoff)

    def test_missing_kind_rejected(self):
        with pytest.raises(ValueError):
            bg_from_json_dict({"types": []})


class TestValidation:
    def test_prob_sum_enforced(self):
        t = FollowerType("t", 0.7, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="sum"):
            BayesianGame(("l0", "l1"), ("f0", "f1"), (t,), "interdependent")

    def test_independent_requires_shared_leader_matrix(self):
        t1 = FollowerType("a", 0.5, np.zeros((2, 2)), np.zeros((2, 2)))
        t2 = FollowerType("b", 0.5, np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="shared"):
            BayesianGame(("l0", "l1"), ("f0", "f1"), (t1, t2), "independent")

    @pytest.mark.parametrize(
        "prob,payoff,message",
        [(float("nan"), 0.0, "'t' has probability nan"), (1.0, float("inf"), "'t' has non-finite payoffs")],
        ids=["nan-prob", "inf-payoff"],
    )
    def test_non_finite_type_rejected(self, prob, payoff, message):
        t = FollowerType("t", prob, np.full((2, 2), payoff), np.zeros((2, 2)))
        with pytest.raises(ValueError, match=message):
            BayesianGame(("l0", "l1"), ("f0", "f1"), (t,), "interdependent")

    def test_bad_kind(self):
        t = FollowerType("t", 1.0, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            BayesianGame(("l0", "l1"), ("f0", "f1"), (t,), "mystery")
