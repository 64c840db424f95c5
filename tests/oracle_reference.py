"""The one-level-tree verifiers before they scored commitments in blocks,
kept verbatim as the reference that ``test_oracles`` holds the current code
to: ``evaluate_commitment`` one follower at a time, the grid oracle's
per-point tree loop over it, and ``supremum_1d`` one breakpoint and one
interval at a time. The batched rules keep every floating-point operation
and its order, so both must return the same bits and the same tie choices.
pytest does not collect this file.
"""

import itertools

import numpy as np

from polystack.game_model import DEFAULT_TOL, GameClassError, MixedStrategy, PolymatrixGame
from polystack.oracles import _BREAKPOINT_TOL, GridResult, _simplex_grid


def evaluate_commitment(
    game: PolymatrixGame, s_n: MixedStrategy, mode: str = "pessimistic"
) -> tuple[float, dict[int, int]]:
    if mode not in ("pessimistic", "optimistic"):
        raise ValueError(f"unknown mode {mode!r}")
    game._require_oltpg()
    s_n.validate(game.num_actions(game.leader))
    value = 0.0
    profile = {}
    for p in game.followers:
        own, other = game.leader_edge(p)
        expected = own @ s_n.probs
        best = np.nonzero(expected >= expected.max() - DEFAULT_TOL)[0]
        leader_vals = other @ s_n.probs
        picks = leader_vals[best]
        idx = int(np.argmin(picks)) if mode == "pessimistic" else int(np.argmax(picks))
        a_p = int(best[idx])
        profile[p] = a_p
        value += float(leader_vals[a_p])
    return value, profile


def tree_grid_oracle(game: PolymatrixGame, k: int, mode: str = "pessimistic") -> GridResult:
    """``grid_oracle`` restricted to its one-level-tree branch."""
    m_n = game.num_actions(game.leader)
    best_v = -np.inf
    best_s = None
    skipped = 0
    for parts in _simplex_grid(k, m_n):
        probs = np.array(parts, dtype=float) / k
        s = MixedStrategy(game.leader, probs)
        v, _ = evaluate_commitment(game, s, mode)
        if v > best_v:
            best_v = v
            best_s = s
    if best_s is None:
        raise ValueError("no grid point admits a pure follower equilibrium")
    return GridResult(float(best_v), best_s, skipped)


def supremum_1d(game: PolymatrixGame) -> tuple[float, bool]:
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
    pts = merged

    def worst_responses(t: float):
        """Each follower's (slope, intercept) of the leader's utility at the
        best response worst for the leader at t, lowest index on ties."""
        for p in game.followers:
            fs, fi = fol[p]
            u = fs * t + fi
            best = np.nonzero(u >= u.max() - 1e-11)[0]
            ls, li = lead[p]
            a = int(best[int(np.argmin(ls[best] * t + li[best]))])
            yield ls[a], li[a]

    def closed_value(t: float) -> float:
        total = 0.0
        for slope, inter in worst_responses(t):
            total += float(slope * t + inter)
        return total

    def piece(lo: float, hi: float):
        """(slope, intercept) of the pessimistic value on the open interval."""
        slope_sum = inter_sum = 0.0
        for slope, inter in worst_responses((lo + hi) / 2.0):
            slope_sum += slope
            inter_sum += inter
        return slope_sum, inter_sum

    closed_max = max(closed_value(t) for t in pts)
    open_max = -np.inf
    for lo, hi in zip(pts, pts[1:]):
        slope, inter = piece(lo, hi)
        open_max = max(open_max, slope * lo + inter, slope * hi + inter)
    value = max(closed_max, open_max)
    attained = bool(closed_max >= value - 1e-12)
    return float(value), attained
