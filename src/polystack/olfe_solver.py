"""Optimistic leader-follower equilibrium via one LP per follower profile.

Works for any polymatrix game with followers restricted to pure strategies:
the LP for a profile maximizes the leader's expected utility over
commitments that make the profile a pure Nash equilibrium of the follower
game (weak inequalities, ties broken in the leader's favor).

Only profiles whose inducibility region is full-dimensional enter the
outer maximization; measure-zero knife-edge regions are discarded. The
pessimistic solver's best-first branch and bound over prefixes of
followers (``plfe_exact.best_first``) finds and solves them; its margin
rows are the equilibrium constraints. On one-level trees these are
per-follower best responses. On general graphs a follower's constraints
also depend on her follower neighbours' actions; a prefix of followers
bounds that dependence over every completion, so an empty prefix region
still cuts off its subtree. A prefix's upper bound on the value of every
profile extending it orders the search, which stops once no prefix left
can win. Where it can cut, that bound is the profile LP itself
(``plfe_exact._profile_lp``) over the prefix's closed region, with each
unassigned follower's best leader payoff in the objective; a full profile's
LP is its solve, so no profile's LP runs twice.
"""

from __future__ import annotations

from .game_model import PolymatrixGame
from .plfe_exact import (
    LfeResult,
    SolverFailure,
    _Blocks,
    best_first,
    contenders,
    within_simplex,
)


class NoPureCommitmentError(RuntimeError):
    """No commitment induces any pure follower equilibrium (general games)."""


def solve_olfe(game: PolymatrixGame, time_limit: float | None = None) -> LfeResult:
    """Optimistic equilibrium: max over inducible follower profiles of the
    per-profile LP. The optimum is always attained.

    Searches prefixes of followers best bound first, pruning every prefix
    whose region is already empty, and solves the LP of each profile it
    reaches until no profile left can win (``best_first`` without a
    ``solve``: the profile LP is both a full profile's bound and its
    solve). A time limit truncates the search after it and flags the
    result as incomplete."""
    blocks = _Blocks(game)
    results, inducible, processed, truncated = best_first(blocks, time_limit=time_limit)
    if not results:
        if game.is_one_level_tree():
            raise SolverFailure("one-level tree games always admit an inducible profile")
        raise NoPureCommitmentError(
            "no commitment makes any follower profile a pure Nash equilibrium"
        )
    v, combo, s = contenders(results)[0]
    return LfeResult(
        value=float(v),
        strategy=within_simplex(s),
        profile=dict(zip(blocks.followers, combo)),
        attained=True,
        alpha=0.0,
        anytime_complete=not truncated,
        profiles_enumerated=processed,
        diagnostics={"inducible_profiles": inducible},
    )
