"""Exact pessimistic leader-follower equilibrium for one-level tree games.

Enumerates every follower pure-action profile, keeps those whose
best-response region has nonempty interior, solves a max-min LP on each,
and picks the profile with the highest value. When the optimum is a
supremum rather than a maximum (some follower can tie with an action that
hurts the leader), an additive alpha-approximate strategy is computed
instead of the unattainable exact one.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import lp_core
from .game_model import GameClassError, MixedStrategy, PolymatrixGame

EPS_TOL = 1e-9
ZETA_TOL = 1e-9
VALUE_TIE_TOL = 1e-9


class SolverFailure(RuntimeError):
    """An LP that must be solvable came back infeasible or failed."""


@dataclass
class TieSets:
    """Per follower: equivalence classes of actions with bitwise-identical
    leader-indexed payoff vectors."""

    class_of: dict[int, np.ndarray]  # follower -> class id per action
    members: dict[int, list[list[int]]]  # follower -> class id -> actions

    @classmethod
    def for_game(cls, game: PolymatrixGame) -> "TieSets":
        class_of = {}
        members = {}
        for p in game.followers:
            M = game.follower_matrix(p)
            ids = -np.ones(M.shape[0], dtype=int)
            classes: list[list[int]] = []
            for a in range(M.shape[0]):
                if ids[a] >= 0:
                    continue
                cid = len(classes)
                group = [a]
                ids[a] = cid
                for b in range(a + 1, M.shape[0]):
                    if ids[b] < 0 and np.array_equal(M[a], M[b]):
                        ids[b] = cid
                        group.append(b)
                classes.append(group)
            class_of[p] = ids
            members[p] = classes
        return cls(class_of, members)

    def tie_set(self, p: int, a_p: int) -> list[int]:
        return list(self.members[p][self.class_of[p][a_p]])

    def non_tied(self, p: int, a_p: int) -> list[int]:
        cid = self.class_of[p][a_p]
        return [a for a in range(len(self.class_of[p])) if self.class_of[p][a] != cid]


@dataclass
class LfeResult:
    value: float
    strategy: MixedStrategy
    profile: dict[int, int]
    attained: bool
    alpha: float
    anytime_complete: bool = True
    profiles_enumerated: int = 0
    diagnostics: dict = field(default_factory=dict)


class _Blocks:
    """Per-(follower, action) constraint blocks shared by all four LPs."""

    def __init__(self, game: PolymatrixGame, ties: TieSets):
        self.game = game
        self.ties = ties
        self.followers = game.followers
        self.m_n = game.num_actions(game.leader)
        self.M = {p: game.follower_matrix(p) for p in self.followers}
        self.L = {p: game.leader_matrix(p) for p in self.followers}
        # diff[p][a]: rows M[a] - M[a'] over non-tied a' (strict BR margins)
        self.diff: dict[int, list[np.ndarray]] = {}
        self.non_tied: dict[int, list[list[int]]] = {}
        for p in self.followers:
            rows_p, nt_p = [], []
            for a in range(game.num_actions(p)):
                nt = ties.non_tied(p, a)
                nt_p.append(nt)
                rows_p.append(self.M[p][a] - self.M[p][nt] if nt else np.zeros((0, self.m_n)))
            self.diff[p] = rows_p
            self.non_tied[p] = nt_p

    def margin_rows(self, profile: dict[int, int]) -> np.ndarray:
        blocks = [self.diff[p][profile[p]] for p in self.followers]
        return np.vstack(blocks) if blocks else np.zeros((0, self.m_n))

    def action_strict_eps(self, p: int, a: int) -> float:
        """Interior test for a single follower's region Delta_n(a)."""
        D = self.diff[p][a]
        if D.shape[0] == 0:
            return 1.0
        return _strict_eps_lp(D, self.m_n)


def margin_lp(D: np.ndarray, m_n: int, d0: np.ndarray | None = None):
    """Arguments of ``lp_core.maximize`` for the margin LP over (s, eps):
    max eps s.t. D s - eps >= -d0, eps <= 1, sum s = 1, s >= 0 (d0 = 0
    when omitted)."""
    k = D.shape[0]
    c = np.zeros(m_n + 1)
    c[-1] = 1.0
    A_ub = np.zeros((k + 1, m_n + 1))
    A_ub[:k, :m_n] = -D
    A_ub[:k, -1] = 1.0
    A_ub[k, -1] = 1.0
    b_ub = np.zeros(k + 1)
    if d0 is not None:
        b_ub[:k] = d0
    b_ub[k] = 1.0
    A_eq = np.zeros((1, m_n + 1))
    A_eq[0, :m_n] = 1.0
    return c, A_ub, b_ub, A_eq, [1.0]


def _strict_eps_lp(D: np.ndarray, m_n: int) -> float:
    res = lp_core.maximize(*margin_lp(D, m_n))
    if res.status is lp_core.LpStatus.INFEASIBLE:
        # even eps = 0 needs D s >= 0 somewhere; empty region
        return 0.0
    if res.status is not lp_core.LpStatus.OPTIMAL:
        raise SolverFailure(f"interior-check LP ended with {res.status}")
    return float(res.objective)


def emptiness_check(
    game: PolymatrixGame, profile: dict[int, int], ties: TieSets | None = None
) -> tuple[float, MixedStrategy | None]:
    """Max margin by which some commitment makes every profile action a
    strict best response. Zero means the region has empty interior."""
    ties = ties or TieSets.for_game(game)
    blocks = _Blocks(game, ties)
    return _emptiness(blocks, profile)


def _emptiness(
    blocks: _Blocks, profile: dict[int, int]
) -> tuple[float, MixedStrategy | None]:
    m_n = blocks.m_n
    D = blocks.margin_rows(profile)
    if D.shape[0] == 0:
        probs = np.zeros(m_n)
        probs[0] = 1.0
        return 1.0, MixedStrategy(blocks.game.leader, probs)
    res = lp_core.maximize(*margin_lp(D, m_n))
    if res.status is lp_core.LpStatus.INFEASIBLE:
        # the profile is nowhere a joint best response, not even weakly
        return 0.0, None
    if res.status is not lp_core.LpStatus.OPTIMAL:
        raise SolverFailure(f"emptiness LP ended with {res.status}")
    return float(res.objective), MixedStrategy(blocks.game.leader, res.x[:m_n])


def _maxmin_matrices(blocks: _Blocks, profile: dict[int, int]):
    """Constraint matrices of the max-min LP.

    Columns: [s (m_n), v+ (|F|), v- (|F|), zeta (sum of non-tied counts)].
    Returns (c, A_ub, b_ub, A_eq, b_eq, zeta_keys, ncols).
    """
    followers = blocks.followers
    m_n = blocks.m_n
    nf = len(followers)
    zeta_keys = [
        (p, a2) for p in followers for a2 in blocks.non_tied[p][profile[p]]
    ]
    nz = len(zeta_keys)
    ncols = m_n + 2 * nf + nz

    ub_rows = []
    for i, p in enumerate(followers):
        for a2 in blocks.ties.tie_set(p, profile[p]):
            row = np.zeros(ncols)
            row[m_n + i] = 1.0
            row[m_n + nf + i] = -1.0
            row[:m_n] = -blocks.L[p][a2]
            ub_rows.append(row)
    A_ub = np.array(ub_rows)
    b_ub = np.zeros(len(ub_rows))

    eq_rows = [np.zeros(ncols)]
    eq_rows[0][:m_n] = 1.0
    b_eq = [1.0]
    zcol = m_n + 2 * nf
    for j, (p, a2) in enumerate(zeta_keys):
        row = np.zeros(ncols)
        row[:m_n] = blocks.M[p][profile[p]] - blocks.M[p][a2]
        row[zcol + j] = -1.0
        eq_rows.append(row)
        b_eq.append(0.0)
    A_eq = np.array(eq_rows)

    c = np.zeros(ncols)
    c[m_n : m_n + nf] = 1.0
    c[m_n + nf : m_n + 2 * nf] = -1.0
    return c, A_ub, b_ub, A_eq, np.array(b_eq), zeta_keys, ncols


def solve_max_min(
    game: PolymatrixGame, profile: dict[int, int], ties: TieSets | None = None
) -> tuple[float, MixedStrategy, dict[tuple[int, int], float]]:
    ties = ties or TieSets.for_game(game)
    blocks = _Blocks(game, ties)
    return _max_min(blocks, profile)


def _max_min(blocks: _Blocks, profile: dict[int, int]):
    c, A_ub, b_ub, A_eq, b_eq, zeta_keys, ncols = _maxmin_matrices(blocks, profile)
    res = lp_core.maximize(c, A_ub, b_ub, A_eq, b_eq)
    if res.status is not lp_core.LpStatus.OPTIMAL:
        raise SolverFailure(f"max-min LP ended with {res.status}")
    m_n = blocks.m_n
    nf = len(blocks.followers)
    zcol = m_n + 2 * nf
    zeta = {key: float(res.x[zcol + j]) for j, key in enumerate(zeta_keys)}
    s = MixedStrategy(blocks.game.leader, res.x[:m_n])
    return float(res.objective), s, zeta


def attainment_flag(
    game: PolymatrixGame,
    profile: dict[int, int],
    ties: TieSets | None = None,
    value: float | None = None,
) -> tuple[bool, dict[tuple[int, int], float]]:
    """Robustified non-attainment flag.

    Re-solves the max-min feasible set at (near-)optimal value, maximizing
    total slack; the supremum is declared unattained only if some non-tied
    action still has zero slack *and* it is strictly worse for the leader.
    """
    ties = ties or TieSets.for_game(game)
    blocks = _Blocks(game, ties)
    if value is None:
        value, _, _ = _max_min(blocks, profile)
    beta, zeta_max, _ = _attainment(blocks, profile, value)
    return beta, zeta_max


def _attainment(blocks: _Blocks, profile: dict[int, int], value: float):
    """Returns (beta, zeta_max, witness strategy or None).

    Maximizes total slack over the optimal face (value held exactly; a
    relaxed retry only guards against rounding infeasibility — relaxing
    up front would let forced-zero slacks inflate proportionally to the
    relaxation and mask genuine non-attainment). That vertex can leave a
    slack at zero which another point of the face makes positive, so each
    zero slack that would flag non-attainment is maximized on its own, and
    the face points found are averaged before the flag is read again."""
    c, A_ub, b_ub, A_eq, b_eq, zeta_keys, ncols = _maxmin_matrices(blocks, profile)
    if not zeta_keys:
        return False, {}, None
    m_n = blocks.m_n
    nf = len(blocks.followers)
    zcol = m_n + 2 * nf
    c2 = np.zeros(ncols)
    c2[zcol:] = 1.0
    bound = np.zeros(ncols)
    bound[m_n : m_n + nf] = -1.0
    bound[m_n + nf : m_n + 2 * nf] = 1.0
    res = None
    for delta in (0.0, 1e-9 * max(1.0, abs(value))):
        A_ub2 = np.vstack([A_ub, bound])
        b_ub2 = np.append(b_ub, -(value - delta))
        res = lp_core.maximize(c2, A_ub2, b_ub2, A_eq, b_eq)
        if res.status is lp_core.LpStatus.OPTIMAL:
            break
    if res.status is not lp_core.LpStatus.OPTIMAL:
        raise SolverFailure(f"attainment LP ended with {res.status}")

    col = {key: zcol + j for j, key in enumerate(zeta_keys)}

    def witnesses(x):
        """Zeta columns at zero slack whose action is strictly worse for
        the leader than the profile's tied actions."""
        s = x[:m_n]
        out = []
        for p in blocks.followers:
            v_p = float((blocks.L[p][blocks.ties.tie_set(p, profile[p])] @ s).min())
            for a2 in blocks.non_tied[p][profile[p]]:
                j = col[(p, a2)]
                if x[j] <= ZETA_TOL and float(blocks.L[p][a2] @ s) < v_p - 1e-9:
                    out.append(j)
        return out

    x = res.x
    pending = witnesses(x)
    if pending:
        points = [x]
        for j in pending:
            c3 = np.zeros(ncols)
            c3[j] = 1.0
            res = lp_core.maximize(c3, A_ub2, b_ub2, A_eq, b_eq)
            if res.status is not lp_core.LpStatus.OPTIMAL:
                raise SolverFailure(f"attainment LP ended with {res.status}")
            if res.objective > ZETA_TOL:
                points.append(res.x)
        if len(points) > 1:
            x = np.mean(points, axis=0)
            pending = witnesses(x)
    zeta_max = {key: float(x[j]) for key, j in col.items()}
    return bool(pending), zeta_max, MixedStrategy(blocks.game.leader, x[:m_n])


def find_apx(
    game: PolymatrixGame,
    profile: dict[int, int],
    ties: TieSets | None,
    v_star: float,
    alpha: float,
) -> MixedStrategy:
    """Interior commitment whose pessimistic value is within alpha of the
    supremum v_star for the given profile."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    ties = ties or TieSets.for_game(game)
    blocks = _Blocks(game, ties)
    return _find_apx(blocks, profile, v_star, alpha)


def _find_apx(blocks: _Blocks, profile: dict[int, int], v_star: float, alpha: float):
    followers = blocks.followers
    m_n = blocks.m_n
    nf = len(followers)
    D = blocks.margin_rows(profile)
    k = D.shape[0]
    # columns: [s, eps, v+, v-]
    ncols = m_n + 1 + 2 * nf
    ub_rows, b_ub = [], []
    for i, p in enumerate(followers):
        for a2 in blocks.ties.tie_set(p, profile[p]):
            row = np.zeros(ncols)
            row[m_n + 1 + i] = 1.0
            row[m_n + 1 + nf + i] = -1.0
            row[:m_n] = -blocks.L[p][a2]
            ub_rows.append(row)
            b_ub.append(0.0)
    row = np.zeros(ncols)
    row[m_n + 1 : m_n + 1 + nf] = -1.0
    row[m_n + 1 + nf :] = 1.0
    ub_rows.append(row)
    b_ub.append(-(v_star - alpha))
    for i in range(k):
        row = np.zeros(ncols)
        row[:m_n] = -D[i]
        row[m_n] = 1.0
        ub_rows.append(row)
        b_ub.append(0.0)
    row = np.zeros(ncols)
    row[m_n] = 1.0
    ub_rows.append(row)
    b_ub.append(1.0)
    A_eq = np.zeros((1, ncols))
    A_eq[0, :m_n] = 1.0
    c = np.zeros(ncols)
    c[m_n] = 1.0
    res = lp_core.maximize(c, np.array(ub_rows), np.array(b_ub), A_eq, [1.0])
    if res.status is not lp_core.LpStatus.OPTIMAL:
        raise SolverFailure(
            f"approximation LP ended with {res.status} "
            f"(profile {profile}, v*={v_star}, alpha={alpha})"
        )
    return MixedStrategy(blocks.game.leader, res.x[:m_n])


def within_simplex(s: MixedStrategy) -> MixedStrategy:
    """``s`` itself when it passes ``validate``, else ``s`` clipped into
    [0, 1]: a simplex vertex can overshoot a bound by rounding."""
    try:
        s.validate()
        return s
    except ValueError:
        return MixedStrategy(s.player_id, np.clip(s.probs, 0.0, 1.0))


def enumerate_profiles(game: PolymatrixGame, work, time_limit: float | None = None):
    """Calls ``work(combo)`` on every follower pure profile, as a tuple of
    actions in ``game.followers`` order, in lexicographic order, and keeps
    the results that are not None.

    Once the time limit has passed, stops before the next profile provided
    one result exists. Returns (results, profiles processed, truncated).
    """
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    results = []
    processed = 0
    for combo in itertools.product(*[range(game.num_actions(p)) for p in game.followers]):
        if deadline is not None and time.perf_counter() > deadline and results:
            return results, processed, True
        result = work(combo)
        if result is not None:
            results.append(result)
        processed += 1
    return results, processed, False


def solve_plfe(
    game: PolymatrixGame,
    alpha: float = 1e-6,
    time_limit: float | None = None,
) -> LfeResult:
    """Pessimistic leader-follower equilibrium of a one-level tree game.

    Enumerates the follower profile space in lexicographic order. Returns
    the supremum value; the strategy is exact when the supremum is attained
    and an additive alpha-approximation otherwise. A time limit truncates
    the enumeration and flags the result as incomplete.
    """
    if not game.is_one_level_tree():
        raise GameClassError("pessimistic solver requires a one-level tree game")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    followers = game.followers
    ties = TieSets.for_game(game)
    blocks = _Blocks(game, ties)

    # sound per-follower prefilter: a profile can only survive the joint
    # interior check if each chosen action's own region is full-dimensional
    strict_ok = {
        p: [blocks.action_strict_eps(p, a) > EPS_TOL for a in range(game.num_actions(p))]
        for p in followers
    }

    def work(combo):
        if not all(strict_ok[p][a] for p, a in zip(followers, combo)):
            return None
        profile = dict(zip(followers, combo))
        if len(followers) > 1:  # one follower: the prefilter was the full check
            eps, _ = _emptiness(blocks, profile)
            if eps <= EPS_TOL:
                return None
        v, s, zeta = _max_min(blocks, profile)
        raw_beta = any(z <= ZETA_TOL for z in zeta.values()) if zeta else False
        return (v, combo, s, raw_beta)

    survivors, processed, truncated = enumerate_profiles(game, work, time_limit)
    if not survivors:
        raise SolverFailure(
            "no follower profile has a full-dimensional best-response region; "
            "the leader simplex must be covered, so this is a solver defect"
        )

    best_v = max(r[0] for r in survivors)
    contenders = [r for r in survivors if r[0] >= best_v - VALUE_TIE_TOL]
    chosen = None
    chosen_beta = None
    chosen_witness = None
    for v, combo, s, raw_beta in contenders:  # already lexicographic
        beta, _, witness = _attainment(blocks, dict(zip(followers, combo)), v)
        if not beta:
            chosen = (v, combo, s, raw_beta)
            chosen_beta = False
            chosen_witness = witness
            break
        if chosen is None:
            chosen = (v, combo, s, raw_beta)
            chosen_beta = True

    v, combo, s, raw_beta = chosen
    profile = dict(zip(followers, combo))
    if chosen_beta:
        strategy = _find_apx(blocks, profile, v, alpha)
        attained = False
    else:
        # prefer the slack-maximized optimum: it keeps every non-tied
        # action strictly suboptimal wherever the face allows it
        strategy = chosen_witness if chosen_witness is not None else s
        attained = True
    return LfeResult(
        value=float(v),
        strategy=within_simplex(strategy),
        profile=profile,
        attained=attained,
        alpha=alpha,
        anytime_complete=not truncated,
        profiles_enumerated=processed,
        diagnostics={
            "raw_beta": bool(raw_beta),
            "robust_beta": bool(chosen_beta),
            "survivors": len(survivors),
        },
    )
