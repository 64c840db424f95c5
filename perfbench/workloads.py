"""Instances of the three benchmark workloads, made from the workload seed.

Every game is built through the library (``instance_gen`` and
``bayesian_bridge``). The raw inputs the checker needs as ground truth (a
clique graph's edges, a formula's clauses) are kept as plain Python data
next to each game, so the checker never has to ask the library for them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from polystack import PolymatrixGame, bayesian_bridge, instance_gen, oracles

WORKLOADS = ("deep-tree", "wide-action", "small-batch")

# (players, actions, generator seed) of the base one-level trees; the
# follower count is players - 1. These two workloads keep their base games
# and the workload seed only moves every payoff by up to PERTURBATION: new
# LP data and output digits, the same search. Measured on this code, a
# random tree's PLFE time varies by 30-55 % between generator seeds, and
# merely shuffling action labels moves OLFE pivot counts by up to 25 %;
# either would swamp a regression bound. small-batch draws fresh games
# from the seed instead, since it averages over more than a hundred.
DEEP_TREE_BASE = ((6, 4, 1001), (7, 4, 1001))
WIDE_ACTION_BASE = ((3, 12, 1001), (3, 14, 1001))
PERTURBATION = 1e-4  # half-width of the uniform payoff noise, on a 0-100 scale
# grid resolution of `verify --against grid`, by leader action count
GRID_RESOLUTION = {3: 8, 4: 8, 5: 8, 8: 4, 9: 4, 12: 3, 14: 3}

SMALL_TWO_ACTION = 72  # random trees with 2 actions per player, 3-5 players
SMALL_BAYESIAN = 36  # random Bayesian games with 2-3 types
SMALL_CLIQUE_VERTICES = (8, 9, 8)
# The clique graphs do not follow the workload seed: PLFE reports every
# clique game's supremum as unattained although its own strategy attains
# it (see CHANGES.md, FOUND), and an operation that fails on every call
# may stay in the benchmark only on seed-independent inputs, so that the
# failed share is the same in every run.
CLIQUE_GRAPH_SEED = 2018
SMALL_SAT = ((5, 3), (5, 4))  # (clauses, variables)
SAT_EPSILON = 0.01


@dataclass
class Instance:
    """One game of a workload and what the checker knows about it."""

    name: str
    game: object  # polystack.PolymatrixGame
    tree: bool
    verify: list[str] = field(default_factory=list)  # `verify` arguments
    clique_edges: list[tuple[int, int]] | None = None
    clique_vertices: int = 0
    sat_clauses: list[tuple[int, int, int]] | None = None
    sat_vars: int = 0
    highs: bool = False  # recompute PLFE/OLFE values with HiGHS


def _verify_args(game) -> list[str]:
    m_n = game.num_actions(game.leader)
    if m_n == 2:
        return ["--against", "1d"]
    return ["--against", "grid", "--resolution", str(GRID_RESOLUTION[m_n])]


def _tree(name: str, game, highs: bool = False) -> Instance:
    return Instance(name, game, True, _verify_args(game), highs=highs)


def _perturb(rng, game):
    """The game with every payoff moved by up to PERTURBATION, kept in
    [0, 100] so the approximation guarantee still applies."""
    edges = {
        key: tuple(np.clip(m + rng.uniform(-PERTURBATION, PERTURBATION, m.shape), 0.0, 100.0) for m in mats)
        for key, mats in game.edges.items()
    }
    return PolymatrixGame(game.player_ids, game.actions, game.leader, edges)


def _random_graph(rng, r: int) -> list[tuple[int, int]]:
    while True:
        edges = [e for e in itertools.combinations(range(1, r + 1), 2) if rng.random() < 0.5]
        if len(edges) < r * (r - 1) // 2:
            return edges


def _random_cnf(rng, clauses: int, nvars: int) -> list[tuple[int, int, int]]:
    out = []
    for _ in range(clauses):
        vs = rng.integers(1, nvars + 1, size=3)
        signs = rng.choice((-1, 1), size=3)
        out.append(tuple(int(v * s) for v, s in zip(vs, signs)))
    return out


def _random_bayesian(rng, types: int, m_l: int, m_f: int):
    probs = rng.dirichlet(np.ones(types))
    probs[-1] = 1.0 - probs[:-1].sum()
    kinds = [
        bayesian_bridge.FollowerType(
            f"t{i}",
            float(probs[i]),
            rng.uniform(0.0, 100.0, (m_l, m_f)),
            rng.uniform(0.0, 100.0, (m_l, m_f)),
        )
        for i in range(types)
    ]
    bg = bayesian_bridge.BayesianGame(
        tuple(f"l{j}" for j in range(m_l)),
        tuple(f"f{j}" for j in range(m_f)),
        tuple(kinds),
        "interdependent",
    )
    return bayesian_bridge.bg_to_polymatrix(bg)


def build(workload: str, seed: int) -> list[Instance]:
    """The workload's games for one seed; the same seed gives the same games."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])

    def game_seed() -> int:
        return int(rng.integers(2**31))

    if workload in ("deep-tree", "wide-action"):
        base = DEEP_TREE_BASE if workload == "deep-tree" else WIDE_ACTION_BASE
        return [
            _tree(f"{n}x{m}-{i}", _perturb(rng, instance_gen.random_oltpg(n, m, gen_seed)))
            for i, (n, m, gen_seed) in enumerate(base)
        ]
    if workload != "small-batch":
        raise ValueError(f"unknown workload {workload!r}")

    out = []
    for i in range(SMALL_TWO_ACTION):
        n = 3 + i % 3
        game = instance_gen.random_oltpg(n, 2, game_seed())
        out.append(_tree(f"two-{n}x2-{i}", game, highs=True))
    for i in range(SMALL_BAYESIAN):
        types = 2 + i % 2
        game = _random_bayesian(rng, types, 3, 3)
        out.append(_tree(f"bayes-{types}t-{i}", game, highs=True))
    graph_rng = np.random.default_rng(CLIQUE_GRAPH_SEED)
    for i, r in enumerate(SMALL_CLIQUE_VERTICES):
        edges = _random_graph(graph_rng, r)
        game = instance_gen.clique_to_spg(oracles.Graph(r, tuple(edges)))
        inst = _tree(f"clique-{r}-{i}", game)
        inst.clique_edges, inst.clique_vertices = edges, r
        out.append(inst)
    for i, (clauses, nvars) in enumerate(SMALL_SAT):
        cnf = _random_cnf(rng, clauses, nvars)
        game = instance_gen.sat_to_pg_olfe(instance_gen.CnfFormula(nvars, tuple(cnf)), SAT_EPSILON)
        out.append(Instance(f"sat-{clauses}c{nvars}v-{i}", game, False, sat_clauses=cnf, sat_vars=nvars))
    return out


def warmup_game(seed: int):
    """A tiny tree solved once per command during set-up."""
    return instance_gen.random_oltpg(3, 3, seed)
