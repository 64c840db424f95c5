"""Polynomial-time pessimistic approximation for one-level tree games.

Searches the 2-player leadership game against each follower in isolation and
commits to the strategy of the best subgame, the only one finished. Each
search starts from the best subgame value so far, the incumbent of branch and
bound, so a subgame that cannot beat it is cut by its bounds and runs no
attainment LP. With nonnegative leader payoffs the other followers can only
add value, which yields a 1/(number of followers) multiplicative guarantee on
the full-game optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .game_model import GameClassError, PolymatrixGame, evaluate_commitment
from .plfe_exact import LfeResult, _Blocks, _check_alpha, _finish, _first_attained, _search
from .plfe_exact import solve_plfe, within_simplex  # noqa: F401 (perfbench wraps solve_plfe)


@dataclass
class ApxReport:
    result: LfeResult  # full-game pessimistic value of the chosen strategy
    best_follower: int
    subgame_value: float  # supremum of the chosen single-follower subgame
    certified_lower_bound: float  # value >= subgame supremum - alpha
    guarantee_valid: bool  # False when leader payoffs go negative


def solve_plfe_apx(game: PolymatrixGame, alpha: float = 1e-6) -> ApxReport:
    """Best-single-follower commitment; ties go to the smallest follower id.

    Follower p's subgame wins if its value beats the best so far by more
    than 1e-12. Its search starts from that best value, so it solves only
    the profiles that can come within ``_tie_margin`` of it. If p can win,
    those include all its contenders, so the answer is the one of a full
    search of every subgame. A subgame whose largest contender value is at
    most 1e-12 above the best, or which has no contender left, cannot win:
    it runs no attainment LP.

    Negative leader payoff entries void the multiplicative guarantee (a
    neglected follower could then subtract value); ``guarantee_valid``
    reports this, and the solve goes on.
    """
    game._require_oltpg()
    if not game.followers:
        raise GameClassError("the approximation needs at least one follower")
    _check_alpha(alpha)
    nonneg = all((game.leader_edge(p)[1] >= 0).all() for p in game.followers)

    best = None
    for p in game.followers:
        sub = _Blocks(game, (p,))
        floor = -math.inf if best is None else best[0]
        found, _, processed, _ = _search(sub, best=floor)
        # its value is at most its largest contender's, which must beat floor + 1e-12
        if not found or max(v for v, _, _ in found) <= floor + 1e-12:
            continue
        # value: the first attained contender's, else the first's; one alone needs no LP
        tried = []
        i = _first_attained(sub, found, tried) if len(found) > 1 else None
        if found[i or 0][0] > floor + 1e-12:
            best = found[i or 0][0], p, sub, found, tried, processed
    _, best_p, sub, found, tried, processed = best
    v, _, strategy, attained = _finish(sub, found, alpha, tried)
    s_n = within_simplex(strategy)
    full_value, profile = evaluate_commitment(game, s_n, "pessimistic")
    result = LfeResult(
        float(full_value), s_n, profile, attained=True, alpha=alpha, profiles_enumerated=processed
    )
    bound = v - (0.0 if attained else alpha)
    return ApxReport(result, best_p, float(v), float(bound), guarantee_valid=nonneg)
