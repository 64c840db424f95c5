"""Polynomial-time pessimistic approximation for one-level tree games.

Solves the 2-player leadership game against each follower in isolation and
commits to the strategy from the best of those subgames. With nonnegative
leader payoffs the other followers can only add value, which yields a
1/(number of followers) multiplicative guarantee on the full-game optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .game_model import GameClassError, MixedStrategy, PolymatrixGame, evaluate_commitment
from .plfe_exact import LfeResult, solve_plfe


@dataclass
class ApxReport:
    result: LfeResult  # full-game pessimistic value of the chosen strategy
    best_follower: int
    subgame_value: float  # supremum of the chosen single-follower subgame
    certified_lower_bound: float  # value >= subgame supremum - alpha
    guarantee_valid: bool  # False when leader payoffs go negative


def _single_follower_game(game: PolymatrixGame, p: int) -> PolymatrixGame:
    own, other = game.leader_edge(p)
    return PolymatrixGame(
        (1, 2),
        {1: game.actions[p], 2: game.actions[game.leader]},
        2,
        {(1, 2): (own, other)},
    )


def solve_plfe_apx(game: PolymatrixGame, alpha: float = 1e-6) -> ApxReport:
    """Best-single-follower commitment; ties go to the smallest follower id.

    Negative leader payoff entries void the multiplicative guarantee (a
    neglected follower could then subtract value); ``guarantee_valid``
    reports this, and the solve goes on.
    """
    game._require_oltpg()
    if not game.followers:
        raise GameClassError("the approximation needs at least one follower")
    nonneg = all((game.leader_edge(p)[1] >= 0).all() for p in game.followers)

    best_p = None
    best_sub = None
    for p in game.followers:
        sub = solve_plfe(_single_follower_game(game, p), alpha=alpha)
        if best_sub is None or sub.value > best_sub.value + 1e-12:
            best_p, best_sub = p, sub

    s_n = MixedStrategy(game.leader, best_sub.strategy.probs)
    full_value, profile = evaluate_commitment(game, s_n, "pessimistic")
    result = LfeResult(
        value=float(full_value),
        strategy=s_n,
        profile=profile,
        attained=True,
        alpha=alpha,
        anytime_complete=True,
        profiles_enumerated=best_sub.profiles_enumerated,
    )
    bound = best_sub.value - (0.0 if best_sub.attained else alpha)
    return ApxReport(
        result=result,
        best_follower=best_p,
        subgame_value=float(best_sub.value),
        certified_lower_bound=float(bound),
        guarantee_valid=nonneg,
    )
