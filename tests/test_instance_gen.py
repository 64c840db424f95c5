import itertools

import numpy as np
import pytest

from polystack.game_model import GameClass, validate
from polystack.instance_gen import (
    CnfFormula,
    clique_to_spg,
    dimacs_dumps,
    is_satisfiable,
    parse_dimacs,
    random_oltpg,
    sat_to_pg_olfe,
    sat_to_pg_plfe,
)
from polystack.oracles import Graph, max_clique_bruteforce
from polystack.plfe_exact import solve_plfe


class TestCnf:
    def test_satisfied_by(self):
        cnf = CnfFormula(2, ((1, -2, 1),))
        assert cnf.satisfied_by({1: True, 2: True})
        assert not cnf.satisfied_by({1: False, 2: True})

    def test_rejects_bad_literal(self):
        with pytest.raises(ValueError):
            CnfFormula(2, ((1, 2, 3),))
        with pytest.raises(ValueError):
            CnfFormula(2, ((1, 0, 2),))

    def test_is_satisfiable(self):
        assert is_satisfiable(CnfFormula(3, ((1, 2, 3),)))
        assert not is_satisfiable(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))
        with pytest.raises(ValueError, match="capped at 20 variables"):
            is_satisfiable(CnfFormula(21, ((1, 2, 3),)))

    def test_dimacs_round_trip(self):
        cnf = CnfFormula(4, ((1, -2, 3), (-4, 2, 1), (3, 3, -1)))
        assert parse_dimacs(dimacs_dumps(cnf)) == cnf

    def test_dimacs_comments_and_multiline(self):
        text = "c a comment\np cnf 3 2\n1 2\n3 0\n-1 -2 -3 0\n"
        cnf = parse_dimacs(text)
        assert cnf.clauses == ((1, 2, 3), (-1, -2, -3))

    def test_dimacs_missing_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_dimacs("1 2 3 0\n")


class TestRandomOltpg:
    def test_deterministic(self):
        a = random_oltpg(4, 3, 7)
        b = random_oltpg(4, 3, 7)
        for k in a.edges:
            for i in (0, 1):
                assert np.array_equal(a.edges[k][i], b.edges[k][i])

    def test_seed_changes_payoffs(self):
        a = random_oltpg(3, 3, 0)
        b = random_oltpg(3, 3, 1)
        assert not np.array_equal(a.edges[(1, 3)][0], b.edges[(1, 3)][0])

    def test_classes(self):
        assert validate(random_oltpg(4, 3, 0)).game_class is GameClass.OLTPG
        assert validate(random_oltpg(4, 3, 0, kind="spg")).game_class is GameClass.SPG

    def test_range(self):
        g = random_oltpg(3, 4, 5, lo=-2.0, hi=2.0)
        for f, l in g.edges.values():
            assert (f >= -2).all() and (f <= 2).all()
            assert (l >= -2).all() and (l <= 2).all()

    def test_bad_args(self):
        with pytest.raises(ValueError):
            random_oltpg(1, 3, 0)
        with pytest.raises(ValueError):
            random_oltpg(3, 3, 0, lo=5, hi=5)
        with pytest.raises(ValueError):
            random_oltpg(3, 3, 0, kind="tree")


class TestCliqueReduction:
    def test_path_payoffs(self):
        g = clique_to_spg(Graph(3, ((1, 2), (2, 3))))
        fol1, lead1 = g.edges[(1, 4)]
        # vertex 1: itself and neighbor 2 pay 1 under a0, non-neighbor 3 pays 1 + r^2
        assert fol1[0].tolist() == [1.0, 1.0, 10.0]
        assert fol1[1].tolist() == [3.0, 0.0, 0.0]
        assert lead1[0].tolist() == [0.0, 0.0, 0.0]
        assert lead1[1].tolist() == [1.0, 1.0, 1.0]

    def test_output_is_star_game(self):
        g = clique_to_spg(Graph(4, ((1, 2), (2, 3), (3, 4))))
        assert validate(g).game_class is GameClass.SPG
        assert g.leader == 5
        assert g.num_actions(g.leader) == 4

    def test_rejects_complete_and_tiny(self):
        with pytest.raises(ValueError):
            clique_to_spg(Graph(3, ((1, 2), (1, 3), (2, 3))))
        with pytest.raises(ValueError):
            clique_to_spg(Graph(1, ()))

    def test_value_equals_max_clique_small(self):
        graphs = [
            Graph(3, ((1, 2), (2, 3))),
            Graph(4, ((1, 2), (1, 3), (2, 3), (3, 4))),
            Graph(4, ()),
            Graph(5, ((1, 2), (2, 3), (3, 4), (4, 5), (5, 1))),
        ]
        for graph in graphs:
            value = solve_plfe(clique_to_spg(graph)).value
            assert value == pytest.approx(max_clique_bruteforce(graph), abs=1e-6)


class TestSatOlfeReduction:
    CNF = CnfFormula(3, ((1, -2, 3), (2, 2, -1), (-3, 1, 2)))

    def test_shape(self):
        g = sat_to_pg_olfe(self.CNF)
        assert g.leader == 4
        assert g.num_actions(g.leader) == 4  # variables + dummy
        assert all(g.num_actions(p) == 4 for p in g.followers)
        assert len(g.edges) == 6  # complete graph on 4 players

    def test_literal_payoffs(self):
        g = sat_to_pg_olfe(self.CNF)
        fol, lead = g.edges[(1, 4)]
        r = 3
        assert fol[1].tolist() == [r + 1.0, 0.0, 0.0, 0.0]  # positive literal x1
        # negative literal on x2 pays (r+1)/r everywhere but on v2
        assert fol[2].tolist() == pytest.approx([4 / 3, 0.0, 4 / 3, 4 / 3])
        assert fol[3].tolist() == [0.0, 0.0, r + 1.0, 0.0]
        assert (lead[0] == 0.01 / 3).all()
        assert (lead[1:] == 1.0 / 3).all()

    def test_follower_pair_payoffs(self):
        g = sat_to_pg_olfe(self.CNF)
        mp, mq = g.edges[(1, 2)]
        assert mp[0].tolist() == pytest.approx([4.0, 0.5, 0.5, 0.5])
        assert mq[:, 0].tolist() == pytest.approx([4.0, 0.5, 0.5, 0.5])
        assert mp[1:, :].tolist() == np.zeros((3, 4)).tolist()

    def test_requires_three_clauses(self):
        with pytest.raises(ValueError):
            sat_to_pg_olfe(CnfFormula(1, ((1, 1, 1), (-1, -1, -1))))


class TestSatPlfeReduction:
    CNF = CnfFormula(3, ((1, -2, 3), (2, 1, -3)))

    def test_shape(self):
        g = sat_to_pg_plfe(self.CNF)
        s = len(self.CNF.clauses)
        assert g.followers == (1, 2, 3)
        assert g.num_actions(1) == 8 * s + 1
        assert g.num_actions(g.leader) == self.CNF.num_vars + 1
        assert len(g.edges) == 6

    def test_pattern_labels_cover_all_signings(self):
        g = sat_to_pg_plfe(self.CNF)
        labels = g.actions[1]
        assert labels[-1] == "f"
        assert len(set(labels)) == len(labels)
        assert sum(1 for l in labels if l.startswith("phi1_")) == 8

    def test_leader_edge_payoffs_split_by_satisfaction(self):
        g = sat_to_pg_plfe(self.CNF, epsilon=0.25)
        _, lead = g.edges[(1, 4)]
        # all-negative signing of (1, -2, 3): x1=F, x2=F, x3=F satisfies via -2
        # all-positive signing also satisfies via literal 1
        labels = g.actions[1]
        for a, lab in enumerate(labels[:-1]):
            assert set(lead[a]) <= {1.0 / 3, 0.25 / 3}
        assert (lead[-1] == 1.0).all()

    def test_follower_pair_structure(self):
        g = sat_to_pg_plfe(self.CNF)
        mp, mq = g.edges[(1, 2)]
        k = 8 * len(self.CNF.clauses)
        assert (np.diag(mp)[:-1] == 0).all()
        assert mp[0, 1] == -1.0
        assert mp[k, k] == 0.0 and mq[k, k] == 1.0
        assert (mp[:k, k] == 1.0).all() and (mq[:k, k] == 0.0).all()
        low, high = 1.0 / 8, 3.0 / 8
        assert set(np.unique(mp[k, :k])) <= {low, high}

    def test_unsat_patterns_marked(self):
        from polystack.instance_gen import _clause_patterns

        labels, triples, satisfies = _clause_patterns(CnfFormula(1, ((1, 1, 1),)))
        assert len(labels) == 8
        # only the all-positive signing of (x1, x1, x1) is consistent & satisfying
        sat_idx = [i for i, s in enumerate(satisfies) if s]
        assert sat_idx == [7]
        assert triples[7] == (1, 1, 1)


class TestCliqueCorrespondenceRandom:
    def test_random_graphs(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            edges = tuple(
                e
                for e in itertools.combinations(range(1, 9), 2)
                if rng.random() < 0.5
            )
            graph = Graph(8, edges)
            if graph.is_complete():
                continue
            value = solve_plfe(clique_to_spg(graph)).value
            assert value == pytest.approx(max_clique_bruteforce(graph), abs=1e-6)
