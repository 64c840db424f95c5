"""Brute-force verifiers, independent of the LP-based solvers.

These deliberately avoid the solver code paths: the grid oracle evaluates
commitments on a simplex lattice, the one-dimensional oracle works out the
exact piecewise-affine geometry of two leader actions, and the clique
search is plain branch and bound on bitsets. On one-level trees the first
two score commitments in array blocks, a few array operations per follower
instead of one Python call per point: the grid by the one rule
``evaluate_commitment`` uses, the one-dimensional oracle by its own
affine arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

import numpy as np

from .game_model import (
    GameClassError,
    MixedStrategy,
    PolymatrixGame,
    enumerate_pure_ne,
    evaluate_commitment,  # noqa: F401 (perfbench wraps oracles.evaluate_commitment)
    evaluate_commitments,
    json_int,
)

_GRID_GUARD = 10_000_000
_GRID_BLOCK = 4096  # tree grid points scored per array batch
_BREAKPOINT_TOL = 1e-12
_STRICT_TOL = 1e-9


@dataclass
class GridResult:
    value: float
    strategy: MixedStrategy
    skipped: int = 0  # grid points with no counted pure follower equilibrium


def _simplex_grid(k: int, m: int):
    """All length-m integer compositions of k, yielded lexicographically."""
    for cuts in itertools.combinations(range(k + m - 1), m - 1):
        prev = -1
        parts = []
        for c in cuts:
            parts.append(c - prev - 1)
            prev = c
        parts.append(k + m - 2 - prev)
        yield parts


def _grid_blocks(k: int, m: int):
    """``_simplex_grid``'s points divided by k, in order, as float arrays
    of at most _GRID_BLOCK rows."""
    points = _simplex_grid(k, m)
    while block := list(itertools.islice(points, _GRID_BLOCK)):
        yield np.array(block, dtype=float) / k


def _leader_utility(game: PolymatrixGame, probs: np.ndarray, profile: dict[int, int]) -> float:
    total = 0.0
    for p in game.neighbors(game.leader):
        own, _ = game.edge_payoffs(game.leader, p)  # [a_n][a_p]
        total += float(probs @ own[:, profile[p]])
    return total


def _strictly_stable(game: PolymatrixGame, probs: np.ndarray, profile: dict[int, int]) -> bool:
    """Whether every follower deviation from the profile that changes the
    deviator's payoff, as a function of the leader's strategy, makes it
    worse by more than _STRICT_TOL at probs. The profile is then a pure
    equilibrium on a full-dimensional region around probs."""
    for p in game.followers:
        a_p = profile[p]
        for a2 in range(game.num_actions(p)):
            if a2 == a_p:
                continue
            dv = np.zeros(len(probs))
            stay = leave = 0.0
            for q in game.neighbors(p):
                own, _ = game.edge_payoffs(p, q)  # [a_p][a_q]
                if q == game.leader:
                    dv = own[a_p] - own[a2]
                else:
                    stay += own[a_p, profile[q]]
                    leave += own[a2, profile[q]]
            d0 = stay - leave
            if (dv.any() or d0 != 0.0) and float(dv @ probs) + d0 <= _STRICT_TOL:
                return False
    return True


def grid_oracle(game: PolymatrixGame, k: int, mode: str = "pessimistic") -> GridResult:
    """Best leader value over all strategies with probabilities that are
    multiples of 1/k. A lower-bound witness for the true supremum; the
    first maximal point in lexicographic order is the witness.

    One-level trees are scored in blocks of _GRID_BLOCK points by
    ``evaluate_commitments``, the rule ``evaluate_commitment`` applies to
    one point, so every point's value has the bits a call per point gives.
    General games use pure-equilibrium enumeration point by point, skipping
    points where none exists (the worst / best equilibrium defines the
    point's value). In optimistic mode a general game's point counts only
    the equilibria that every payoff-changing deviation leaves strictly
    (``_strictly_stable``): the optimistic solver keeps only profiles whose
    region is full-dimensional, and an equilibrium on a measure-zero region
    would overstate its value.
    """
    if mode not in ("pessimistic", "optimistic"):
        raise ValueError(f"unknown mode {mode!r}")
    if k < 1:
        raise ValueError("resolution must be positive")
    m_n = game.num_actions(game.leader)
    if comb(k + m_n - 1, m_n - 1) > _GRID_GUARD:
        raise ValueError(f"grid too large: C({k + m_n - 1},{m_n - 1}) points")

    best_v = -np.inf
    best_s = None
    skipped = 0
    if game.is_one_level_tree():
        for probs in _grid_blocks(k, m_n):
            values, _ = evaluate_commitments(game, probs, mode)
            i = int(values.argmax())  # the block's first maximal point
            if values[i] > best_v:
                best_v = values[i]
                best_s = MixedStrategy(game.leader, probs[i].copy())
    else:
        for parts in _simplex_grid(k, m_n):
            probs = np.array(parts, dtype=float) / k
            s = MixedStrategy(game.leader, probs)
            profiles = enumerate_pure_ne(game, s)
            if mode == "optimistic":
                profiles = [a for a in profiles if _strictly_stable(game, probs, a)]
            if not profiles:
                skipped += 1
                continue
            vals = [_leader_utility(game, probs, a) for a in profiles]
            v = min(vals) if mode == "pessimistic" else max(vals)
            if v > best_v:
                best_v = v
                best_s = s
    if best_s is None:
        raise ValueError("no grid point admits a pure follower equilibrium")
    return GridResult(float(best_v), best_s, skipped)


def supremum_1d(game: PolymatrixGame) -> tuple[float, bool]:
    """Exact pessimistic supremum for two leader actions.

    Parametrizes the commitment as (t, 1-t). Follower utilities are affine
    in t, so best-response sets are constant on open intervals between
    indifference points; refining the partition by crossings of the
    leader's own affine pieces makes the pessimistic value affine per
    interval. The supremum is then the max over interval endpoint limits
    and closed breakpoint values, and it is attained iff a closed point
    achieves it. Worst responses are found for all breakpoints in one
    array pass and for all interval midpoints in a second, ties to the
    lowest index as in ``evaluate_commitment``, with this function's own
    affine arithmetic summed in follower order.
    """
    if not game.is_one_level_tree():
        raise GameClassError("one-dimensional oracle requires a one-level tree game")
    if game.num_actions(game.leader) != 2:
        raise ValueError("one-dimensional oracle requires exactly 2 leader actions")

    # follower/leader utilities as t * slope + intercept
    fol = {}
    lead = {}
    points = {0.0, 1.0}
    for p in game.followers:
        F, L = game.leader_edge(p)
        fol[p] = (F[:, 0] - F[:, 1], F[:, 1].copy())
        lead[p] = (L[:, 0] - L[:, 1], L[:, 1].copy())
        m_p = game.num_actions(p)
        for a, b in itertools.combinations(range(m_p), 2):
            for slope, inter in (fol[p], lead[p]):
                da = slope[a] - slope[b]
                db = inter[b] - inter[a]
                if da != 0.0:
                    t = db / da
                    if -_BREAKPOINT_TOL < t < 1 + _BREAKPOINT_TOL:
                        points.add(min(max(t, 0.0), 1.0))
    pts = sorted(points)
    merged = [pts[0]]
    for t in pts[1:]:
        if t - merged[-1] > _BREAKPOINT_TOL:
            merged.append(t)
    pts = np.array(merged)

    def worst_responses(t: np.ndarray):
        """Each follower's (slopes, intercepts) of the leader's utility at
        the best response worst for the leader at each t, lowest index on
        ties."""
        col = t[:, None]
        for p in game.followers:
            fs, fi = fol[p]
            u = fs * col + fi
            best = u >= u.max(axis=1, keepdims=True) - 1e-11
            ls, li = lead[p]
            a = np.where(best, ls * col + li, np.inf).argmin(axis=1)
            yield ls[a], li[a]

    closed = np.zeros(len(pts))
    for slope, inter in worst_responses(pts):
        closed += slope * pts + inter
    # the pessimistic value is affine on each open interval: its (slope,
    # intercept) are the worst responses' at the interval's midpoint
    lo, hi = pts[:-1], pts[1:]
    slope_sum, inter_sum = np.zeros(len(lo)), np.zeros(len(lo))
    for slope, inter in worst_responses((lo + hi) / 2.0):
        slope_sum += slope
        inter_sum += inter
    open_max = max((slope_sum * lo + inter_sum).max(), (slope_sum * hi + inter_sum).max())
    closed_max = closed.max()
    value = max(closed_max, open_max)
    attained = bool(closed_max >= value - 1e-12)
    return float(value), attained


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..vertices."""

    vertices: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        norm = set()
        for a, b in self.edges:
            if a == b:
                raise ValueError(f"self-loop on vertex {a}")
            if not (1 <= a <= self.vertices and 1 <= b <= self.vertices):
                raise ValueError(f"edge ({a},{b}) out of range")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    def adjacency_bits(self) -> list[int]:
        adj = [0] * (self.vertices + 1)
        for a, b in self.edges:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return adj

    def is_complete(self) -> bool:
        return len(self.edges) == self.vertices * (self.vertices - 1) // 2


def graph_from_json_dict(data: dict) -> Graph:
    try:
        ends = [(json_int(a, "edge end"), json_int(b, "edge end")) for a, b in data["edges"]]
        return Graph(json_int(data["vertices"], "vertices"), tuple(ends))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc


def graph_to_json_dict(graph: Graph) -> dict:
    return {"vertices": graph.vertices, "edges": [list(e) for e in graph.edges]}


def max_clique_bruteforce(graph: Graph) -> int:
    """Exact maximum clique size, branch and bound on bitsets (<= 20 vertices)."""
    r = graph.vertices
    if r > 20:
        raise ValueError("clique search capped at 20 vertices")
    if r == 0:
        return 0
    adj = graph.adjacency_bits()
    best = 1

    def expand(cand: int, size: int):
        nonlocal best
        if cand == 0:
            best = max(best, size)
            return
        if size + bin(cand).count("1") <= best:
            return
        while cand:
            v = cand & -cand
            vi = v.bit_length() - 1
            cand ^= v
            if size + bin(cand).count("1") + 1 <= best:
                return
            expand(cand & adj[vi], size + 1)

    full = ((1 << (r + 1)) - 1) & ~1  # vertices 1..r
    expand(full, 0)
    return best
