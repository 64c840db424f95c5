"""Exact pessimistic leader-follower equilibrium for one-level tree games.

Keeps the follower pure-action profiles whose best-response region has
nonempty interior, and picks the one whose max-min LP has the highest
value. One best-first branch and bound over prefixes of followers
(``best_first``) finds and solves them, for PLFE and OLFE alike. A
profile's region is the intersection of its followers' regions, so a
prefix whose region is already empty cuts off every profile that extends
it. Two upper bounds on the value of every profile extending a prefix
order the search. The free one (``_Blocks.bound``) ignores the region: on
a one-level tree each follower is one type of the equivalent Bayesian
game, so it is the bound HBGS puts on a partial type assignment. The LP
bound (``_profile_lp``) maximizes the same payoff over the prefix's closed
region; for a full profile it is the optimistic profile LP of the
"multiple LPs" method, which bounds the max-min LP. apx's subgame searches
start from the best subgame value so far, so a subgame that cannot win is
cut by its bounds, typically at its root. When the optimum is a supremum
rather than a maximum (some follower can tie with an action that hurts the
leader), an additive alpha-approximate strategy is computed instead of the
unattainable exact one.

The search's margin LPs (the prefilter's ``_strict_eps_lp`` and a node's
``_emptiness``) start at a pure leader strategy (``_pure_start``), and its
bound LP is the dual of ``_profile_lp``. Only the winner's max-min,
attainment and ``find_apx`` vertices reach the output, so these forms
change no answer.

The per-profile LPs take a profile as a ``combo``, its actions in
``game.followers`` order, as the search yields it; only ``find_apx`` reads a
profile dict. ``_optimum`` reads every LP result, raising a ``SolverFailure``
that names the LP. ``best_first`` returns the contenders, the profiles
that tie the best value, as (value, combo, strategy) in lexicographic
order. PLFE takes the first attained one, else the first (``_finish``,
shared with apx); OLFE takes the first.
"""

from __future__ import annotations

import heapq
import math
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
class LfeResult:
    """A solve's answer: the leader's ``value`` (PLFE: the supremum), her
    ``strategy``, the follower ``profile`` it induces, whether the value is
    ``attained`` (else ``strategy`` is within ``alpha`` of it), whether the
    search ran to the end (``anytime_complete``), the profiles it covered
    (``profiles_enumerated``; apx: in its winning subgame, the only one it finishes) and
    the ``diagnostics`` ``perfbench/spans.py`` reads: ``survivors`` from PLFE,
    ``inducible_profiles`` from OLFE, none from apx. Both count the leaves ``best_first``
    handed to its ``solve`` (PLFE: the max-min LP; OLFE: the primal profile LP): profiles
    the search reached, proved inducible and, where an LP bound ran, left able to win.
    On trees without ties in value, typically the winner and at most one more."""

    value: float
    strategy: MixedStrategy
    profile: dict[int, int]
    attained: bool
    alpha: float
    anytime_complete: bool = True
    profiles_enumerated: int = 0
    diagnostics: dict = field(default_factory=dict)


class _Blocks:
    """Per-(follower, action) rows shared by every per-profile LP.

    Actions of follower p tie when their leader-edge rows M[p][a] are
    exactly equal, with no tolerance: no commitment separates them, so a
    pessimistic follower breaks the tie against the leader. tie_set[p][a]
    lists a's tie class, a included, in ascending order; non_tied[p][a]
    lists the other actions.

    Follower p playing a keeps each non-tied a2 at most as good as a:
    (M[a] - M[a2]) s + d0 >= 0, with d0 p's follower-follower payoff at a
    minus that at a2. On one-level trees d0 is zero. On general graphs it
    depends on p's follower neighbours, so a prefix of followers bounds it
    from above over every completion; every extension's rows then imply the
    prefix's rows. A search node's rows come from its prefix alone
    (``rows``): only ``_follower_rows`` knows how assigning a follower
    changes the rows of the followers before it.

    ``followers`` are the followers searched, in search order; by default
    all of ``game.followers``. A subset is valid only on a one-level tree,
    where no follower's rows depend on another's: it searches the subgame
    against those followers alone, as apx does with each one in turn."""

    def __init__(self, game: PolymatrixGame, followers: tuple[int, ...] | None = None):
        self.game = game
        self.followers = game.followers if followers is None else followers
        self.m_n = game.num_actions(game.leader)
        self.L = {}
        # ff[p]: (index j of q, U_pq, row maxima, row minima) per follower
        # neighbour q in followers order, U_pq indexed [a_p][a_q]
        self.ff: dict[int, list] = {}
        # diff[p][a]: rows M[a] - M[a'] over non-tied a' (strict BR margins)
        self.tie_set: dict[int, list[list[int]]] = {}
        self.non_tied: dict[int, list[list[int]]] = {}
        self.diff: dict[int, list[np.ndarray]] = {}
        index = {q: j for j, q in enumerate(self.followers)}
        for p in self.followers:
            M, self.L[p] = game.leader_edge(p)
            near = set(game.neighbors(p))
            self.ff[p] = []
            for q in self.followers:
                if q in near:
                    U = game.edge_payoffs(p, q)[0]
                    self.ff[p].append((index[q], U, U.max(axis=1), U.min(axis=1)))
            rows = [tuple(row) for row in M.tolist()]
            classes: dict[tuple, list[int]] = {}
            for a, row in enumerate(rows):
                classes.setdefault(row, []).append(a)
            self.tie_set[p] = [classes[row] for row in rows]
            self.non_tied[p] = [[b for b, other in enumerate(rows) if other != row] for row in rows]
            self.diff[p] = [M[a] - M[nt] for a, nt in enumerate(self.non_tied[p])]
        # tail[k]: the entrywise max over actions of L[p], summed over the
        # followers from the k-th on
        self.tail = [np.zeros(self.m_n)]
        for p in reversed(self.followers):
            self.tail.insert(0, self.L[p].max(axis=0) + self.tail[0])
        self._prefilter: dict[tuple[int, int], tuple[float, np.ndarray | None]] = {}

    def _follower_rows(self, i: int, combo: tuple, a: int):
        """Rows (D, d0) of the i-th follower p playing a, given the actions
        combo of the first followers. For each neighbour q outside combo, d0
        counts p's best payoff at a and her worst at a2, so it bounds d0 from
        above over every completion. None when a tied action a2 (no row: no
        commitment separates it from a) already rules a out: its bound is
        negative or, once every neighbour is assigned, at most EPS_TOL; a's
        own bound is never negative, and exactly 0 once all are assigned."""
        p = self.followers[i]
        if not self.ff[p]:  # a one-level tree's follower: d0 is zero
            return self.diff[p][a], np.zeros(len(self.non_tied[p][a]))
        hi = 0.0
        lo = np.zeros(self.game.num_actions(p))
        for j, U, U_max, U_min in self.ff[p]:
            if j < len(combo):
                hi += U[a, combo[j]]
                lo += U[:, combo[j]]
            else:
                hi += U_max[a]
                lo += U_min
        d0 = hi - lo
        tied = d0[self.tie_set[p][a]]
        if (tied < 0).any() or (
            self.ff[p][-1][0] < len(combo) and ((tied > 0) & (tied <= EPS_TOL)).any()
        ):
            return None
        return self.diff[p][a], d0[self.non_tied[p][a]]

    def rows(self, combo: tuple):
        """Stacked rows (D, d0) of the prefix combo of follower actions, in
        ``game.followers`` order, or None when a tied action rules one out."""
        blocks = []
        for i, a in enumerate(combo):
            block = self._follower_rows(i, combo, a)
            if block is None:
                return None
            blocks.append(block)
        if not blocks:
            return np.zeros((0, self.m_n)), np.zeros(0)
        return np.concatenate([D for D, _ in blocks]), np.concatenate([d0 for _, d0 in blocks])

    def bound(self, combo: tuple) -> np.ndarray:
        """Upper bounds of the prefixes combo + (a,), one per action a of the
        next follower: max_j of the sum of L[p][a_p] over the assigned
        followers and of max_a L[p][a] (entrywise, ``tail``) over the
        others. Each bounds the max-min and optimistic LP values of every
        profile extending its prefix, since each follower's term in either
        is at most L[p][a_p] s and s is a distribution; for a full profile
        it is the leader's best pure payoff against it. It is free, but
        ignores the prefix's region; ``_profile_lp`` takes it into account."""
        k = len(combo)
        payoff = np.zeros(self.m_n)
        for p, a in zip(self.followers, combo):
            payoff += self.L[p][a]
        return (payoff + self.L[self.followers[k]] + self.tail[k + 1]).max(axis=1)

    def extend(self, combo: tuple, s: np.ndarray | None):
        """Rows (D, d0) and an interior point of the prefix combo's region,
        given s, its parent's (None at the root); None when the interior is
        empty, and then so is that of every profile extending combo. A node
        without rows keeps s; any other takes the first of s and the point of
        its latest follower's action alone (the prefilter, once per follower
        id and action; its region holds combo's, so an empty one prunes) that
        clears every margin by 2 EPS_TOL, and only then runs ``_emptiness``."""
        rows = self.rows(combo)
        if rows is None:
            return None
        D, d0 = rows

        def clears(point):
            return point is not None and (D @ point + d0).min() > 2 * EPS_TOL

        if not len(D) or clears(s):
            return D, d0, s
        key = self.followers[len(combo) - 1], combo[-1]
        if key not in self._prefilter:
            block = self._follower_rows(len(combo) - 1, (), combo[-1])
            self._prefilter[key] = _strict_eps_lp(*block, self.m_n)
        eps, s = self._prefilter[key]
        if eps <= EPS_TOL:
            return None
        if clears(s):
            return D, d0, s
        eps, s = _emptiness(D, d0, self.m_n)
        return None if eps <= EPS_TOL else (D, d0, s)


def _optimum(res: lp_core.DenseResult, lp: str, detail: str = "", infeasible: bool = False):
    """(x, objective) of an optimal LP result; None for an infeasible one if
    ``infeasible``. Else raises a SolverFailure naming the LP, plus detail."""
    if infeasible and res.status is lp_core.LpStatus.INFEASIBLE:
        return None
    if res.status is not lp_core.LpStatus.OPTIMAL:
        raise SolverFailure(f"{lp} LP ended with {res.status}{detail}")
    return res.x, res.objective


def _pure_start(D: np.ndarray, d0: np.ndarray, m_n: int):
    """The margin LP over (s, eps), max eps s.t. D s + d0 >= eps, eps <= 1,
    s in the simplex, started at its best pure leader strategy: (mu, j,
    lp). On the simplex D s + d0 = G s with G = D + d0[:, None], so pure
    strategy e_j clears every row by mu_j = min_i G[i, j]; j is the first
    index of the largest, mu that largest (1.0 with no rows). ``lp`` is None when mu >= 1 reaches the cap. Else it is the
    arguments of ``lp_core.maximize`` over (s_l for l != j, e'), with s_j =
    1 - sum s_l and eps = mu + e':
    sum_l (G[i, j] - G[i, l]) s_l + e' <= G[i, j] - mu, e' <= 1 - mu and
    sum s_l <= 1. Every row is <= with a nonnegative right-hand side, so the
    slack basis (s = e_j, eps = mu) is feasible and phase 1 never runs."""
    if not len(D):
        return 1.0, 0, None
    G = D + d0[:, None]
    mus = G.min(axis=0)
    j = int(mus.argmax())
    mu = float(mus[j])
    if mu >= 1.0:
        return 1.0, j, None
    k = len(G)
    A_ub = np.zeros((k + 2, m_n))
    A_ub[:k, :-1] = G[:, j, None] - np.delete(G, j, axis=1)
    A_ub[:k, -1] = 1.0
    A_ub[k, -1] = 1.0
    A_ub[k + 1, :-1] = 1.0
    b_ub = np.concatenate((G[:, j] - mu, [1.0 - mu, 1.0]))
    c = np.zeros(m_n)
    c[-1] = 1.0
    return mu, j, (c, A_ub, b_ub)


def _margin(mu: float, j: int, res: lp_core.DenseResult | None, lp: str, m_n: int):
    """(max margin eps, point) of a margin LP from ``_pure_start``'s (mu, j)
    and its result, None when it needed no LP; (0.0, None) when eps <= 0."""
    if res is None:
        e, x = 0.0, np.zeros(m_n - 1)
    else:
        x, e = _optimum(res, lp)
        x = x[:-1]
    eps = mu + float(e)
    if eps <= 0.0:
        return 0.0, None
    return eps, np.insert(x, j, 1.0 - x.sum())


def _strict_eps_lp(D: np.ndarray, d0: np.ndarray, m_n: int) -> tuple[float, np.ndarray | None]:
    mu, j, lp = _pure_start(D, d0, m_n)
    return _margin(mu, j, lp and lp_core.maximize(*lp), "interior-check", m_n)


def _emptiness(D: np.ndarray, d0: np.ndarray, m_n: int) -> tuple[float, np.ndarray | None]:
    """The margin LP over the stacked rows (D, d0) of a profile or prefix."""
    mu, j, lp = _pure_start(D, d0, m_n)
    return _margin(mu, j, lp and lp_core.maximize(*lp), "emptiness", m_n)


def _tie_rows(blocks: _Blocks, combo: tuple, ncols: int, v: int) -> np.ndarray:
    """Rows -L[p][a2] s + v+_i - v-_i <= 0 over each follower p, the i-th,
    and each a2 in the tie class of p's action in combo: v+_i - v-_i, the
    leader's payoff against p, is at most the leader's payoff against any
    tied action. The v+ columns start at v, the v- columns follow them."""
    nf = len(blocks.followers)
    rows = []
    for i, (p, a) in enumerate(zip(blocks.followers, combo)):
        for a2 in blocks.tie_set[p][a]:
            row = np.zeros(ncols)
            row[v + i] = 1.0
            row[v + nf + i] = -1.0
            row[: blocks.m_n] = -blocks.L[p][a2]
            rows.append(row)
    return np.array(rows).reshape(-1, ncols)


def _value_row(ncols: int, v: int, nf: int) -> np.ndarray:
    """Row -sum(v+) + sum(v-) over nf v+ columns starting at v and the v-
    columns after them; bounding it by -w holds the leader's value at w."""
    row = np.zeros(ncols)
    row[v : v + nf] = -1.0
    row[v + nf : v + 2 * nf] = 1.0
    return row


def _maxmin_matrices(blocks: _Blocks, combo: tuple, D: np.ndarray):
    """Arguments (c, A_ub, b_ub, A_eq, b_eq) of the max-min LP over the
    profile's stacked rows D, one zeta per row: D s - zeta = 0; and the
    zeta column of each (follower, non-tied action).

    Columns: [s (m_n), v+ (|F|), v- (|F|), zeta (rows of D)].
    """
    followers = blocks.followers
    m_n = blocks.m_n
    nf = len(followers)
    zcol = m_n + 2 * nf
    keys = [(p, a2) for p, a in zip(followers, combo) for a2 in blocks.non_tied[p][a]]
    nz = len(keys)
    ncols = zcol + nz

    A_ub = _tie_rows(blocks, combo, ncols, m_n)
    b_ub = np.zeros(A_ub.shape[0])

    A_eq = np.zeros((1 + nz, ncols))
    A_eq[0, :m_n] = 1.0
    A_eq[1:, :m_n] = D
    np.fill_diagonal(A_eq[1:, zcol:], -1.0)  # -np.eye would write -0.0
    b_eq = np.zeros(1 + nz)
    b_eq[0] = 1.0

    c = np.zeros(ncols)
    c[m_n : m_n + nf] = 1.0
    c[m_n + nf : zcol] = -1.0
    return (c, A_ub, b_ub, A_eq, b_eq), {key: zcol + j for j, key in enumerate(keys)}


def _tree_blocks(game: PolymatrixGame) -> _Blocks:
    if not game.is_one_level_tree():
        raise GameClassError("pessimistic solver requires a one-level tree game")
    return _Blocks(game)


def _max_min(blocks: _Blocks, combo: tuple, D: np.ndarray) -> tuple[float, MixedStrategy]:
    """(value, strategy) of the profile's max-min LP."""
    lp, _ = _maxmin_matrices(blocks, combo, D)
    x, value = _optimum(lp_core.maximize(*lp), "max-min")
    return float(value), MixedStrategy(blocks.game.leader, x[: blocks.m_n])


def _attainment(blocks: _Blocks, combo: tuple, D: np.ndarray, value: float):
    """(beta, witness strategy or None): beta declares the supremum
    unattained when some non-tied action keeps zero slack on the optimal
    face *and* is strictly worse for the leader.

    Maximizes total slack over that face (value held exactly; a
    relaxed retry only guards against rounding infeasibility — relaxing
    up front would let forced-zero slacks inflate proportionally to the
    relaxation and mask genuine non-attainment). That vertex can leave a
    slack at zero which another point of the face makes positive, so each
    zero slack that would flag non-attainment is maximized on its own, and
    the face points found are averaged before the flag is read again."""
    (c, A_ub, b_ub, A_eq, b_eq), col = _maxmin_matrices(blocks, combo, D)
    if not col:
        return False, None
    m_n = blocks.m_n
    ncols = len(c)
    c2 = np.zeros(ncols)
    c2[list(col.values())] = 1.0
    A_ub2 = np.vstack([A_ub, _value_row(ncols, m_n, len(blocks.followers))])
    for delta in (0.0, 1e-9 * max(1.0, abs(value))):
        b_ub2 = np.append(b_ub, -(value - delta))
        res = lp_core.maximize(c2, A_ub2, b_ub2, A_eq, b_eq)
        if res.status is lp_core.LpStatus.OPTIMAL:
            break
    x, _ = _optimum(res, "attainment")

    def witnesses(x):
        """Zeta columns at zero slack whose action is strictly worse for
        the leader than the profile's tied actions."""
        s = x[:m_n]
        out = []
        for p, a in zip(blocks.followers, combo):
            v_p = float((blocks.L[p][blocks.tie_set[p][a]] @ s).min())
            for a2 in blocks.non_tied[p][a]:
                j = col[(p, a2)]
                if x[j] <= ZETA_TOL and float(blocks.L[p][a2] @ s) < v_p - 1e-9:
                    out.append(j)
        return out

    pending = witnesses(x)
    points = [x]
    for j in pending:
        c3 = np.zeros(ncols)
        c3[j] = 1.0
        face, slack = _optimum(lp_core.maximize(c3, A_ub2, b_ub2, A_eq, b_eq), "attainment")
        if slack > ZETA_TOL:
            points.append(face)
    if len(points) > 1:
        x = np.mean(points, axis=0)
        pending = witnesses(x)
    return bool(pending), MixedStrategy(blocks.game.leader, x[:m_n])


def _check_alpha(alpha: float) -> None:
    """Raises ValueError unless 0 < alpha < inf (NaN fails too)."""
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")


def find_apx(
    game: PolymatrixGame,
    profile: dict[int, int],
    unused: None,
    v_star: float,
    alpha: float,
) -> MixedStrategy:
    """Interior commitment whose pessimistic value is within alpha of the
    supremum v_star for the given profile. The third parameter is unused
    and always None; it keeps the call form
    ``find_apx(game, profile, None, v_star, alpha)``."""
    _check_alpha(alpha)
    blocks = _tree_blocks(game)
    combo = tuple(profile[p] for p in blocks.followers)
    return _find_apx(blocks, combo, blocks.rows(combo)[0], v_star, alpha)


def _find_apx(blocks: _Blocks, combo: tuple, D: np.ndarray, v_star: float, alpha: float):
    """The margin LP over D, max eps s.t. D s >= eps, eps <= 1, s in the
    simplex, with the leader's pessimistic value held at v_star - alpha.
    Columns [s, eps, v+, v-]; rows: the tie rows, the value row, the margin
    rows [-D | 1 | 0] and eps <= 1."""
    m_n = blocks.m_n
    nf = len(blocks.followers)
    ncols = m_n + 1 + 2 * nf
    tie_rows = _tie_rows(blocks, combo, ncols, m_n + 1)
    margin = np.zeros((len(D) + 1, ncols))
    margin[:-1, :m_n] = -D
    margin[:, m_n] = 1.0
    A_ub = np.vstack([tie_rows, _value_row(ncols, m_n + 1, nf), margin])
    b_ub = np.zeros(len(A_ub))
    b_ub[len(tie_rows)] = -(v_star - alpha)
    b_ub[-1] = 1.0
    c = np.zeros(ncols)
    c[m_n] = 1.0
    A_eq = np.zeros((1, ncols))
    A_eq[0, :m_n] = 1.0
    res = lp_core.maximize(c, A_ub, b_ub, A_eq, [1.0])
    profile = dict(zip(blocks.followers, combo))
    x, _ = _optimum(res, "approximation", f" (profile {profile}, v*={v_star}, alpha={alpha})")
    return MixedStrategy(blocks.game.leader, x[:m_n])


def within_simplex(s: MixedStrategy) -> MixedStrategy:
    """``s`` itself when it passes ``validate``, else ``s`` clipped into
    [0, 1]: a simplex vertex can overshoot a bound by rounding."""
    try:
        s.validate()
        return s
    except ValueError:
        return MixedStrategy(s.player_id, np.clip(s.probs, 0.0, 1.0))


def _tie_margin(best: float) -> float:
    """How far below ``best`` a value or bound may fall and still tie it:
    VALUE_TIE_TOL plus 1e-6 of its magnitude, a margin for LP error."""
    return VALUE_TIE_TOL + 1e-6 * max(1.0, abs(best))


def _padded(bound: float) -> float:
    """An LP's bound plus 1e-7 of its magnitude, a slack for LP error."""
    return bound + 1e-7 * max(1.0, abs(bound))


def _profile_lp(blocks: _Blocks, combo: tuple, D: np.ndarray, d0: np.ndarray, bound: bool = False):
    """max (sum of L[p][a_p] over the prefix combo + ``tail``[len(combo)]) s
    over the closed region D s + d0 >= 0 of the simplex: (value, strategy),
    or None when the region is empty. For a full profile the tail is zero
    and this is the optimistic profile LP: the leader's best commitment
    making the profile a weak pure equilibrium. For any prefix it bounds
    that LP and the max-min LP of every profile extending the prefix:
    their regions lie in its closed region, and each follower's term in
    either is at most L[p][a_p] s, at most (max_a L[p][a]) s entrywise.

    With ``bound``, for a caller that reads only the value, it is the value
    alone, or None for an empty region, from the dual: with G = D +
    d0[:, None] the region is G s >= 0, and the value is min over y >= 0 of
    max_j (c + G^T y)_j. Written as W - v with W = max_j c_j, this is max v
    s.t. (G^T y)_j + v <= W - c_j over y, v >= 0: every right-hand side is
    nonnegative, so the slack basis is feasible and phase 1 never runs, and
    every feasible point bounds the value. An unbounded v means the region is empty. A node without rows
    (the root, or a prefix of followers whose actions all tie) needs no LP:
    its value is W, bit for bit the dual's, whose only column v enters at a
    row with right-hand side W - c_j = 0.0."""
    c = blocks.tail[len(combo)].copy()
    for p, a in zip(blocks.followers, combo):
        c += blocks.L[p][a]
    if bound:
        top = c.max()
        if not len(D):
            return float(top)
        A_ub = np.ones((blocks.m_n, len(D) + 1))
        A_ub[:, :-1] = (D + d0[:, None]).T
        cost = np.zeros(len(D) + 1)
        cost[-1] = 1.0
        res = lp_core.maximize(cost, A_ub, top - c)
        if res.status is lp_core.LpStatus.UNBOUNDED:
            return None
        return float(top - _optimum(res, "profile bound")[1])
    A_eq = np.ones((1, blocks.m_n))
    got = _optimum(lp_core.maximize(c, -D, d0, A_eq, [1.0]), "optimistic profile", infeasible=True)
    return None if got is None else (float(got[1]), MixedStrategy(blocks.game.leader, got[0]))


def best_first(
    blocks: _Blocks, solve, time_limit: float | None = None, best: float = -math.inf
):
    """Solves follower pure profiles whose best-response region has
    nonempty interior, best bound first, and returns the contenders among
    them. ``solve(combo, D, d0)`` gives (value, strategy), or None, from
    ``combo``, the tuple of actions in ``game.followers`` order, and (D,
    d0), the profile's stacked margin rows; the value must be at most the
    profile's ``_profile_lp`` value.

    Branch and bound over prefixes of followers: a heap holds nodes, each a
    prefix keyed by an upper bound on the value of every profile extending
    it, lexicographic among equal keys. The best value so far starts at
    ``best``: -inf, or a value the caller already holds (apx: the best
    subgame value so far), so that only a profile that can come within
    ``_tie_margin`` of it is solved. One rule decides every node, the root
    and full profiles included. A node is extended (``_Blocks.extend``,
    whose rows come from the prefix alone) when it first pops. An empty
    region cuts off the node's subtree, which counts at its full size. Else,
    if the best value is finite and the node's key is above it by more
    than ``_tie_margin``, so that a tighter bound can cut it,
    ``_profile_lp`` bounds it over its closed region: it goes back on the
    heap keyed by the lower of its key and that bound, ``_padded`` for LP
    error. Only that value is read, so the bound comes from the dual
    (``bound=True``), any of whose feasible points bounds the value.
    Otherwise, or when it pops again, a full profile is handed to ``solve``
    and a prefix's children join the heap, keyed by the lower of
    ``_Blocks.bound`` and the prefix's key.

    Stops once the top key is below a finite best value so far by more than
    ``_tie_margin``: every profile left then falls short of the contenders,
    and its subtree counts at full size. From a finite ``best`` this may
    leave no contender. Once the time limit has passed, stops before the
    next node provided one profile has a value. Returns (contenders, profiles
    solved, profiles covered, truncated); the contenders are the (value,
    combo, strategy) within ``VALUE_TIE_TOL`` of the best value, in
    lexicographic order. Raises ValueError on a negative or NaN time limit.
    """
    if time_limit is not None and not time_limit >= 0:
        raise ValueError(f"time limit must be a non-negative number, got {time_limit!r}")
    sizes = [blocks.game.num_actions(p) for p in blocks.followers]
    deadline = None if time_limit is None else time.perf_counter() + time_limit
    # (-key, prefix, interior point of its parent's region, its rows and
    # point once extended); the root has no parent, so no point
    heap = [(-math.inf, (), None, None)]
    results = []
    found = covered = 0
    truncated = False
    while heap:
        neg_key, combo, s, node = heapq.heappop(heap)
        key = -neg_key
        if best > -math.inf and key < best - _tie_margin(best):
            covered = math.prod(sizes)
            break
        if results and deadline is not None and time.perf_counter() > deadline:
            truncated = True
            break
        depth = len(combo)
        if node is None:
            node = blocks.extend(combo, s)
            if node is None:
                covered += math.prod(sizes[depth:])
                continue
            if best > -math.inf and key > best + _tie_margin(best):
                got = _profile_lp(blocks, combo, *node[:2], bound=True)
                if got is not None:
                    key = min(key, _padded(got))
                heapq.heappush(heap, (-key, combo, s, node))
                continue
        if depth < len(sizes):
            for a, bound in enumerate(blocks.bound(combo).tolist()):
                heapq.heappush(heap, (-min(bound, key), combo + (a,), node[2], None))
        else:
            found += 1
            covered += 1
            got = solve(combo, *node[:2])
            if got is not None:
                results.append((got[0], combo, got[1]))
                best = max(best, got[0])
    results.sort(key=lambda r: r[1])
    top = max((r[0] for r in results), default=-math.inf)
    return [r for r in results if r[0] >= top - VALUE_TIE_TOL], found, covered, truncated


def _search(blocks: _Blocks, time_limit: float | None = None, best: float = -math.inf):
    """PLFE's search: ``best_first`` with max-min LPs. It finds no contender
    only when a finite starting ``best`` cut every profile."""
    contenders, *counts = best_first(
        blocks, lambda combo, D, d0: _max_min(blocks, combo, D), time_limit, best
    )
    if not contenders and best == -math.inf:
        raise SolverFailure(
            "no follower profile has a full-dimensional best-response region; "
            "the leader simplex must be covered, so this is a solver defect"
        )
    return contenders, *counts


def _first_attained(blocks: _Blocks, best: list, tried: list) -> int | None:
    """Index of the first contender in ``best`` whose supremum is attained, or
    None; ``tried`` holds, and gains, the contenders' ``_attainment`` results."""
    for i, (v, combo, _) in enumerate(best):
        if i == len(tried):
            tried.append(_attainment(blocks, combo, blocks.rows(combo)[0], v))
        if not tried[i][0]:
            return i
    return None


def _finish(blocks: _Blocks, best: list, alpha: float, tried: list):
    """PLFE's finish over the contenders ``best``: (value, combo, strategy,
    attained) of the first attained one, else of the first, alpha-approximated."""
    i = _first_attained(blocks, best, tried)
    if i is None:
        v, combo, _ = best[0]
        return v, combo, _find_apx(blocks, combo, blocks.rows(combo)[0], v, alpha), False
    # prefer the slack-maximized optimum: it keeps every non-tied
    # action strictly suboptimal wherever the face allows it
    v, combo, s = best[i]
    return v, combo, s if tried[i][1] is None else tried[i][1], True


def solve_plfe(
    game: PolymatrixGame,
    alpha: float = 1e-6,
    time_limit: float | None = None,
) -> LfeResult:
    """Pessimistic leader-follower equilibrium of a one-level tree game.

    Searches prefixes of followers best bound first, pruning every prefix
    whose region has an empty interior, and solves the max-min LP of each
    profile it reaches until no profile left can win (``best_first``); a
    profile whose optimistic LP bound falls short is never solved.
    Returns the supremum value; the strategy is exact when the supremum is
    attained and an additive alpha-approximation otherwise. A time limit
    truncates the search after it and flags the result as incomplete.
    """
    blocks = _tree_blocks(game)
    _check_alpha(alpha)
    best, survivors, processed, truncated = _search(blocks, time_limit)
    v, combo, strategy, attained = _finish(blocks, best, alpha, [])
    return LfeResult(
        value=float(v),
        strategy=within_simplex(strategy),
        profile=dict(zip(blocks.followers, combo)),
        attained=attained,
        alpha=alpha,
        anytime_complete=not truncated,
        profiles_enumerated=processed,
        diagnostics={"survivors": survivors},
    )
