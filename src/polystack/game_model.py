"""Polymatrix game representation, validation and exact evaluation.

A game lives on an undirected graph; every edge (p, q) with p < q carries
two payoff matrices, both indexed [action of p][action of q]. The leader is
one designated player (canonically the highest id); in a one-level tree all
other players are leaves hanging off the leader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

DEFAULT_TOL = 1e-9

_NE_CELL_GUARD = 10_000_000


class GameClassError(ValueError):
    """Operation requires a stricter game class than the input has."""


class GameClass(Enum):
    GENERAL_PG = "general_pg"
    OLTPG = "oltpg"
    SPG = "spg"


@dataclass(frozen=True)
class MixedStrategy:
    """A point on one player's probability simplex."""

    player_id: int
    probs: np.ndarray

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

    def validate(self, num_actions: int | None = None) -> None:
        p = self.probs
        if num_actions is not None and p.shape != (num_actions,):
            raise ValueError(f"strategy has {p.shape[0]} entries, expected {num_actions}")
        if (p < -1e-12).any() or (p > 1 + 1e-12).any():
            raise ValueError("strategy entries must lie in [0, 1]")
        if abs(p.sum() - 1.0) > 1e-9:
            raise ValueError(f"strategy entries sum to {p.sum()!r}, not 1")


@dataclass(frozen=True)
class PolymatrixGame:
    """Immutable polymatrix game.

    ``edges`` maps (p, q) with p < q to a pair (payoff_p, payoff_q) of
    m_p x m_q float arrays, both row-indexed by p's action.
    """

    player_ids: tuple[int, ...]
    actions: dict[int, tuple[str, ...]]
    leader: int
    edges: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        frozen = {}
        for (p, q), (mp, mq) in self.edges.items():
            mp = np.ascontiguousarray(mp, dtype=float)
            mq = np.ascontiguousarray(mq, dtype=float)
            mp.flags.writeable = False
            mq.flags.writeable = False
            frozen[(p, q)] = (mp, mq)
        object.__setattr__(self, "edges", frozen)
        object.__setattr__(self, "player_ids", tuple(self.player_ids))
        object.__setattr__(self, "actions", {p: tuple(a) for p, a in self.actions.items()})

    # -- basic accessors -------------------------------------------------

    def num_actions(self, p: int) -> int:
        return len(self.actions[p])

    @property
    def followers(self) -> tuple[int, ...]:
        return tuple(p for p in self.player_ids if p != self.leader)

    def neighbors(self, p: int) -> list[int]:
        out = []
        for a, b in self.edges:
            if a == p:
                out.append(b)
            elif b == p:
                out.append(a)
        return sorted(out)

    def edge_payoffs(self, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
        """Payoff matrices of p and q on edge {p, q}, both indexed
        [action of p][action of q] (transposing storage as needed)."""
        if p < q:
            mp, mq = self.edges[(p, q)]
            return mp, mq
        mq, mp = self.edges[(q, p)]
        return mp.T, mq.T

    def follower_matrix(self, p: int) -> np.ndarray:
        """U_{p,n} indexed [follower action][leader action]."""
        self._require_oltpg()
        own, _ = self.edge_payoffs(p, self.leader)
        return own

    def leader_matrix(self, p: int) -> np.ndarray:
        """U_{n,p} indexed [follower action][leader action]."""
        self._require_oltpg()
        _, other = self.edge_payoffs(p, self.leader)
        return other

    def is_one_level_tree(self) -> bool:
        followers = set(self.followers)
        seen = set()
        for a, b in self.edges:
            if a != self.leader and b != self.leader:
                return False
            leaf = b if a == self.leader else a
            seen.add(leaf)
        return seen == followers

    def _require_oltpg(self):
        if not self.is_one_level_tree():
            raise GameClassError("operation requires a one-level tree game")


@dataclass
class ValidationReport:
    game_class: GameClass
    violations: list[str] = field(default_factory=list)
    renumbering: dict[int, int] | None = None


def payoff_violations(game: PolymatrixGame) -> list[str]:
    """Self-edges and payoff matrices of the wrong shape or with non-finite
    entries; the solvers need a game without any."""
    violations = []
    for (p, q), (mp, mq) in game.edges.items():
        if p == q:
            violations.append(f"self-edge on player {p}")
            continue
        want = (game.num_actions(p), game.num_actions(q))
        for name, mat in (("payoff_p", mp), ("payoff_q", mq)):
            if mat.shape != want:
                violations.append(
                    f"edge ({p},{q}) {name} has shape {mat.shape}, expected {want}"
                )
            elif not np.isfinite(mat).all():
                violations.append(f"edge ({p},{q}) {name} has non-finite entries")
    return violations


def validate(game: PolymatrixGame) -> ValidationReport:
    """Classify a game as SPG / OLTPG / general, reporting why stricter
    classes fail. Malformed payoff dimensions are violations, not crashes."""
    violations = payoff_violations(game)
    if violations:
        return ValidationReport(GameClass.GENERAL_PG, violations)

    tree_violations = []
    if not game.is_one_level_tree():
        non_leader = [e for e in game.edges if game.leader not in e]
        if non_leader:
            tree_violations.append(f"edges between followers: {sorted(non_leader)}")
        connected = {q for e in game.edges for q in e if q != game.leader}
        missing = sorted(set(game.followers) - connected)
        if missing:
            tree_violations.append(f"followers not connected to the leader: {missing}")
    if tree_violations:
        return ValidationReport(GameClass.GENERAL_PG, tree_violations)

    spg_violations = []
    followers = game.followers
    action_sets = {game.actions[p] for p in followers}
    if len(action_sets) > 1:
        spg_violations.append("leaf-players do not share one action set")
    else:
        mats = [game.leader_matrix(p) for p in followers]
        if any(not np.array_equal(mats[0], m) for m in mats[1:]):
            spg_violations.append("leader payoffs differ across leaves")
    if spg_violations:
        return ValidationReport(GameClass.OLTPG, spg_violations)
    return ValidationReport(GameClass.SPG)


def pure_utility(game: PolymatrixGame, p: int, full_profile: dict[int, int]) -> float:
    """Sum of p's bilateral payoffs at a full pure action profile."""
    if p not in game.player_ids:
        raise KeyError(f"unknown player id {p}")
    total = 0.0
    for q in game.neighbors(p):
        own, _ = game.edge_payoffs(p, q)
        total += own[full_profile[p], full_profile[q]]
    return float(total)


def best_response_set(
    game: PolymatrixGame, p: int, s_n: MixedStrategy, tol: float = DEFAULT_TOL
) -> set[int]:
    """Actions of follower p within tol of the best expected utility
    against the leader commitment (one-level tree games only)."""
    s_n.validate(game.num_actions(game.leader))
    expected = game.follower_matrix(p) @ s_n.probs
    return set(np.nonzero(expected >= expected.max() - tol)[0].tolist())


def evaluate_commitment(
    game: PolymatrixGame,
    s_n: MixedStrategy,
    mode: str = "pessimistic",
    tol: float = DEFAULT_TOL,
) -> tuple[float, dict[int, int]]:
    """Exact leader value of a commitment in a one-level tree game.

    Each follower picks, inside her best-response set, the action that
    minimizes (pessimistic) or maximizes (optimistic) the leader's expected
    bilateral utility; ties break on the smallest action index.
    """
    if mode not in ("pessimistic", "optimistic"):
        raise ValueError(f"unknown mode {mode!r}")
    game._require_oltpg()
    s_n.validate(game.num_actions(game.leader))
    value = 0.0
    profile = {}
    for p in game.followers:
        expected = game.follower_matrix(p) @ s_n.probs
        best = np.nonzero(expected >= expected.max() - tol)[0]
        leader_vals = game.leader_matrix(p) @ s_n.probs
        picks = leader_vals[best]
        idx = int(np.argmin(picks)) if mode == "pessimistic" else int(np.argmax(picks))
        a_p = int(best[idx])
        profile[p] = a_p
        value += float(leader_vals[a_p])
    return value, profile


def _follower_utility_tensors(game: PolymatrixGame, s_n: MixedStrategy):
    """Per-follower utility arrays over the joint follower profile space.

    Returns (followers, shape, tensors) where tensors[k] has the given shape
    and holds follower k's total utility (follower-follower payoffs plus the
    expectation over the leader edge)."""
    followers = game.followers
    shape = tuple(game.num_actions(p) for p in followers)
    cells = int(np.prod(shape)) if shape else 0
    if cells > _NE_CELL_GUARD:
        raise ValueError(f"follower profile space too large ({cells} cells)")
    axis = {p: k for k, p in enumerate(followers)}
    nf = len(followers)
    tensors = []
    for p in followers:
        total = np.zeros(shape)
        for q in game.neighbors(p):
            own, _ = game.edge_payoffs(p, q)
            if q == game.leader:
                vec = own @ s_n.probs
                idx = [None] * nf
                idx[axis[p]] = slice(None)
                total = total + vec[tuple(idx)]
            else:
                idx = [None] * nf
                idx[axis[p]] = slice(None)
                idx[axis[q]] = slice(None)
                mat = own if axis[p] < axis[q] else own.T
                total = total + mat[tuple(idx)]
        tensors.append(total)
    return followers, shape, tensors


def enumerate_pure_ne(
    game: PolymatrixGame, s_n: MixedStrategy, tol: float = DEFAULT_TOL
) -> list[dict[int, int]]:
    """All follower profiles where no single follower can gain more than
    tol by deviating, given the leader commitment. May be empty."""
    s_n.validate(game.num_actions(game.leader))
    followers, shape, tensors = _follower_utility_tensors(game, s_n)
    if not followers:
        return [{}]
    mask = np.ones(shape, dtype=bool)
    for k, t in enumerate(tensors):
        mask &= t >= t.max(axis=k, keepdims=True) - tol
    out = []
    for idx in np.argwhere(mask):
        out.append({p: int(a) for p, a in zip(followers, idx)})
    return out


# -- JSON form -----------------------------------------------------------


def game_to_json_dict(game: PolymatrixGame) -> dict:
    return {
        "players": [
            {"id": p, "actions": list(game.actions[p])} for p in game.player_ids
        ],
        "leader": game.leader,
        "edges": [
            {
                "p": p,
                "q": q,
                "payoff_p": mp.tolist(),
                "payoff_q": mq.tolist(),
            }
            for (p, q), (mp, mq) in sorted(game.edges.items())
        ],
    }


def game_from_json_dict(data: dict) -> tuple[PolymatrixGame, dict[int, int] | None]:
    """Parse a game; returns (game, renumbering) where renumbering maps
    original ids to canonical ids (players 1..n, leader = n) or None when
    the input is already canonical."""
    try:
        players = data["players"]
        leader = int(data["leader"])
        raw_edges = data["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed game JSON: missing {exc}") from exc
    ids = [int(pl["id"]) for pl in players]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate player ids")
    if leader not in ids:
        raise ValueError(f"leader {leader} is not a player")
    n = len(ids)
    canonical = ids == list(range(1, n + 1)) and leader == n
    if canonical:
        renum = None
        mapping = {p: p for p in ids}
    else:
        ordered = sorted(p for p in ids if p != leader) + [leader]
        mapping = {old: new for new, old in enumerate(ordered, start=1)}
        renum = dict(mapping)
    actions = {}
    for pl in players:
        actions[mapping[int(pl["id"])]] = tuple(str(a) for a in pl["actions"])
    edges = {}
    for e in raw_edges:
        p, q = mapping[int(e["p"])], mapping[int(e["q"])]
        mp = np.array(e["payoff_p"], dtype=float)
        mq = np.array(e["payoff_q"], dtype=float)
        if p > q:
            p, q = q, p
            mp, mq = mq.T, mp.T
        if (p, q) in edges:
            raise ValueError(f"duplicate edge ({p},{q})")
        edges[(p, q)] = (mp, mq)
    game = PolymatrixGame(tuple(range(1, n + 1)), actions, n, edges)
    return game, renum
