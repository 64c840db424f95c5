"""Optimistic leader-follower equilibrium via one LP per follower profile.

Works for any polymatrix game with followers restricted to pure strategies:
the LP for a profile maximizes the leader's expected utility over
commitments that make the profile a pure Nash equilibrium of the follower
game (weak inequalities, ties broken in the leader's favor). For one-level
trees the equilibrium constraints reduce to per-follower best responses.

Only profiles whose inducibility region is full-dimensional enter the
outer maximization, mirroring the region enumeration of the pessimistic
algorithm; measure-zero knife-edge regions are discarded.
"""

from __future__ import annotations

import numpy as np

from . import lp_core
from .game_model import MixedStrategy, PolymatrixGame
from .plfe_exact import (
    EPS_TOL,
    LfeResult,
    SolverFailure,
    enumerate_profiles,
    margin_lp,
    within_simplex,
)

VALUE_TIE_TOL = 1e-9


class NoPureCommitmentError(RuntimeError):
    """No commitment induces any pure follower equilibrium (general games)."""


class _OlfeBlocks:
    """Per-game data: leader objective pieces and deviation constraints."""

    def __init__(self, game: PolymatrixGame):
        self.game = game
        self.followers = game.followers
        self.m_n = game.num_actions(game.leader)
        self.leader_mat = {}  # follower -> U_{n,p} [a_p][a_n], zero if no edge
        self.fol_mat = {}  # follower -> U_{p,n} [a_p][a_n], zero if no edge
        self.ff = {}  # (p, q) both followers -> p's payoff [a_p][a_q]
        for p in self.followers:
            m_p = game.num_actions(p)
            self.leader_mat[p] = np.zeros((m_p, self.m_n))
            self.fol_mat[p] = np.zeros((m_p, self.m_n))
            for q in game.neighbors(p):
                own, other = game.edge_payoffs(p, q)
                if q == game.leader:
                    self.fol_mat[p] = own
                    self.leader_mat[p] = other
                else:
                    self.ff[(p, q)] = own

    def ff_utility(self, p: int, a_p: int, profile: dict[int, int]) -> float:
        total = 0.0
        for q in self.followers:
            if (p, q) in self.ff:
                total += self.ff[(p, q)][a_p, profile[q]]
        return total

    def objective(self, profile: dict[int, int]) -> np.ndarray:
        c = np.zeros(self.m_n)
        for p in self.followers:
            c += self.leader_mat[p][profile[p]]
        return c

    def deviation_rows(self, profile: dict[int, int]) -> tuple[np.ndarray, np.ndarray]:
        """(D, d0) over the deviations that change some payoff: the profile
        is a weak NE at s iff D s + d0 >= 0."""
        vecs, consts = [], []
        for p in self.followers:
            a_p = profile[p]
            base_ff = self.ff_utility(p, a_p, profile)
            for a2 in range(self.game.num_actions(p)):
                if a2 == a_p:
                    continue
                dv = self.fol_mat[p][a_p] - self.fol_mat[p][a2]
                d0 = base_ff - self.ff_utility(p, a2, profile)
                if not ((dv == 0.0).all() and d0 == 0.0):
                    vecs.append(dv)
                    consts.append(d0)
        D = np.array(vecs) if vecs else np.zeros((0, self.m_n))
        return D, np.array(consts)


def olfe_profile_lp(
    game: PolymatrixGame, profile: dict[int, int]
) -> tuple[float, MixedStrategy] | None:
    """Best commitment making the profile a weak pure NE, or None when the
    profile cannot be induced by any commitment."""
    blocks = _OlfeBlocks(game)
    return _profile_lp(blocks, profile, blocks.deviation_rows(profile))


def _profile_lp(blocks: _OlfeBlocks, profile: dict[int, int], rows):
    D, d0 = rows
    A_ub, b_ub = (-D, d0) if len(D) else (None, None)
    A_eq = np.ones((1, blocks.m_n))
    res = lp_core.maximize(blocks.objective(profile), A_ub, b_ub, A_eq, [1.0])
    if res.status is lp_core.LpStatus.INFEASIBLE:
        return None
    if res.status is not lp_core.LpStatus.OPTIMAL:
        raise SolverFailure(f"optimistic profile LP ended with {res.status}")
    return float(res.objective), MixedStrategy(blocks.game.leader, res.x)


def profile_region_epsilon(game: PolymatrixGame, profile: dict[int, int]) -> float:
    """Max strict margin over commitments for the profile's NE constraints;
    zero means the inducibility region has empty interior."""
    blocks = _OlfeBlocks(game)
    return _region_eps(blocks, blocks.deviation_rows(profile))


def _region_eps(blocks: _OlfeBlocks, rows) -> float:
    D, d0 = rows
    if not len(D):
        return 1.0
    res = lp_core.maximize(*margin_lp(D, blocks.m_n, d0))
    if res.status is lp_core.LpStatus.INFEASIBLE:
        return 0.0
    if res.status is not lp_core.LpStatus.OPTIMAL:
        raise SolverFailure(f"region-interior LP ended with {res.status}")
    return float(res.objective)


def solve_olfe(game: PolymatrixGame, time_limit: float | None = None) -> LfeResult:
    """Optimistic equilibrium: max over inducible follower profiles of the
    per-profile LP. The optimum is always attained."""
    blocks = _OlfeBlocks(game)
    followers = game.followers

    def work(combo):
        profile = dict(zip(followers, combo))
        rows = blocks.deviation_rows(profile)
        if _region_eps(blocks, rows) <= EPS_TOL:
            return None
        got = _profile_lp(blocks, profile, rows)
        if got is None:
            return None
        v, s = got
        return (v, combo, s)

    results, processed, truncated = enumerate_profiles(game, work, time_limit)
    if not results:
        if game.is_one_level_tree():
            raise SolverFailure("one-level tree games always admit an inducible profile")
        raise NoPureCommitmentError(
            "no commitment makes any follower profile a pure Nash equilibrium"
        )
    best_v = max(r[0] for r in results)
    v, combo, s = next(r for r in results if r[0] >= best_v - VALUE_TIE_TOL)
    return LfeResult(
        value=float(v),
        strategy=within_simplex(s),
        profile=dict(zip(followers, combo)),
        attained=True,
        alpha=0.0,
        anytime_complete=not truncated,
        profiles_enumerated=processed,
        diagnostics={"inducible_profiles": len(results)},
    )
