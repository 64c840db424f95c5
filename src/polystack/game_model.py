"""Polymatrix game representation, validation and exact evaluation.

A game lives on an undirected graph; every edge (p, q) with p < q carries
two payoff matrices, both indexed [action of p][action of q]. The leader is
one designated player (canonically the highest id); in a one-level tree all
other players are leaves hanging off the leader.

A game derives its graph once, at construction: the followers, each
player's sorted neighbours, the edges between followers, the followers with
no edge, and from these whether it is a one-level tree. A game is never
mutated afterwards, so ``followers``, ``neighbors``, ``is_one_level_tree``
and ``validate``'s tree messages all read those derived facts.
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
            raise ValueError(f"strategy has shape {p.shape}, expected ({num_actions},)")
        # NaN compares false, so entries must pass a test of lying inside
        if not ((p >= -1e-12) & (p <= 1 + 1e-12)).all():
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
        near: dict[int, list[int]] = {}
        for p, q in frozen:
            near.setdefault(p, []).append(q)
            if q != p:
                near.setdefault(q, []).append(p)
        followers = tuple(p for p in self.player_ids if p != self.leader)
        follower_edges = sorted(e for e in frozen if self.leader not in e)
        tree = not follower_edges and set(near.get(self.leader, ())) == set(followers)
        object.__setattr__(self, "_followers", followers)
        object.__setattr__(self, "_neighbors", {p: sorted(qs) for p, qs in near.items()})
        object.__setattr__(self, "_follower_edges", follower_edges)
        object.__setattr__(self, "_isolated", sorted(set(followers) - near.keys()))
        object.__setattr__(self, "_tree", tree)

    # -- basic accessors -------------------------------------------------

    def num_actions(self, p: int) -> int:
        return len(self.actions[p])

    @property
    def followers(self) -> tuple[int, ...]:
        return self._followers

    def neighbors(self, p: int) -> list[int]:
        return list(self._neighbors.get(p, ()))

    def edge_payoffs(self, p: int, q: int) -> tuple[np.ndarray, np.ndarray]:
        """Payoff matrices of p and q on edge {p, q}, both indexed
        [action of p][action of q] (transposing storage as needed)."""
        if p < q:
            mp, mq = self.edges[(p, q)]
            return mp, mq
        mq, mp = self.edges[(q, p)]
        return mp.T, mq.T

    def leader_edge(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """U_{p,n} and U_{n,p}, both indexed [follower action][leader action];
        zero matrices when follower p has no edge to the leader."""
        if self.leader in self._neighbors.get(p, ()):
            return self.edge_payoffs(p, self.leader)
        zeros = np.zeros((self.num_actions(p), self.num_actions(self.leader)))
        return zeros, zeros

    def is_one_level_tree(self) -> bool:
        return self._tree

    def _require_oltpg(self):
        if not self._tree:
            raise GameClassError("operation requires a one-level tree game")


@dataclass
class ValidationReport:
    game_class: GameClass
    violations: list[str] = field(default_factory=list)


def payoff_violations(game: PolymatrixGame) -> list[str]:
    """Self-edges, edge ends outside ``player_ids``, edge keys that list the
    higher id first, and payoff matrices of the wrong shape or with
    non-finite entries; the solvers need a game without any."""
    violations = []
    for (p, q), (mp, mq) in game.edges.items():
        if p == q:
            violations.append(f"self-edge on player {p}")
            continue
        outside = [e for e in (p, q) if e not in game.player_ids]
        if outside:
            violations += [f"edge ({p},{q}) names unknown player {e}" for e in outside]
            continue
        if p > q:
            violations.append(f"edge ({p},{q}) lists the higher id first")
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
    if game._follower_edges:
        tree_violations.append(f"edges between followers: {game._follower_edges}")
    if game._isolated:
        tree_violations.append(f"followers not connected to the leader: {game._isolated}")
    if tree_violations:
        return ValidationReport(GameClass.GENERAL_PG, tree_violations)

    followers = game.followers
    if len({game.actions[p] for p in followers}) > 1:
        return ValidationReport(GameClass.OLTPG, ["leaf-players do not share one action set"])
    mats = [game.leader_edge(p)[1] for p in followers]
    if any(not np.array_equal(mats[0], m) for m in mats[1:]):
        return ValidationReport(GameClass.OLTPG, ["leader payoffs differ across leaves"])
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


def _best_responses(expected: np.ndarray) -> np.ndarray:
    """Mask of the entries within DEFAULT_TOL of the largest along the last axis."""
    return expected >= expected.max(axis=-1, keepdims=True) - DEFAULT_TOL


def best_response_set(game: PolymatrixGame, p: int, s_n: MixedStrategy) -> set[int]:
    """Actions of follower p within DEFAULT_TOL of the best expected utility
    against the leader commitment (one-level tree games only)."""
    game._require_oltpg()
    s_n.validate(game.num_actions(game.leader))
    expected = game.leader_edge(p)[0] @ s_n.probs
    return set(np.nonzero(_best_responses(expected))[0].tolist())


def evaluate_commitments(
    game: PolymatrixGame, probs: np.ndarray, mode: str = "pessimistic"
) -> tuple[np.ndarray, np.ndarray]:
    """Exact leader values of a (G x m_n) array of commitments in a
    one-level tree game, one commitment per row, which is not validated.

    Each follower picks, inside her best-response set, the action that
    minimizes (pessimistic) or maximizes (optimistic) the leader's expected
    bilateral utility; ties break on the smallest action index. Returns the
    G values and the (G x followers) actions, columns in ``game.followers``
    order. Expected utilities come from a stacked mat-vec, which runs the
    same gemv per row as ``own @ row``, and values are summed follower by
    follower from 0.0, so every row gets the bits a batch of one gives.
    """
    if mode not in ("pessimistic", "optimistic"):
        raise ValueError(f"unknown mode {mode!r}")
    game._require_oltpg()
    pessimistic = mode == "pessimistic"
    cols = probs[:, :, None]
    rows = np.arange(len(probs))
    values = np.zeros(len(probs))
    profiles = np.empty((len(probs), len(game.followers)), dtype=int)
    for j, p in enumerate(game.followers):
        own, other = game.leader_edge(p)
        expected = np.matmul(own, cols)[:, :, 0]
        leader_vals = np.matmul(other, cols)[:, :, 0]
        # outside the best responses an infinity no pick can prefer
        masked = np.where(_best_responses(expected), leader_vals, np.inf if pessimistic else -np.inf)
        a = masked.argmin(1) if pessimistic else masked.argmax(1)
        profiles[:, j] = a
        values += leader_vals[rows, a]
    return values, profiles


def evaluate_commitment(
    game: PolymatrixGame, s_n: MixedStrategy, mode: str = "pessimistic"
) -> tuple[float, dict[int, int]]:
    """Exact leader value and follower profile of one commitment in a
    one-level tree game: ``evaluate_commitments`` on a batch of one."""
    s_n.validate(game.num_actions(game.leader))
    values, profiles = evaluate_commitments(game, s_n.probs[None], mode)
    return float(values[0]), dict(zip(game.followers, profiles[0].tolist()))


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


def json_int(x, what: str) -> int:
    """x when it is a JSON integer, not a bool; else raises ValueError naming what."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def json_number(x, what: str) -> float:
    """x as a float when it is a JSON number, not a bool; else raises ValueError naming what."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ValueError(f"{what} must be a number, got {x!r}")
    return float(x)


def json_labels(x, what: str) -> tuple[str, ...]:
    """x as a tuple when it is a JSON list of strings; else raises ValueError naming what."""
    if not isinstance(x, list) or not all(isinstance(a, str) for a in x):
        raise ValueError(f"{what} must be a list of strings, got {x!r}")
    return tuple(x)


def json_matrix(x, what: str) -> np.ndarray:
    """x as a float array; raises ValueError naming what when numpy cannot read it."""
    try:
        return np.array(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what}: {exc}") from exc


def game_from_json_dict(data: dict) -> tuple[PolymatrixGame, dict[int, int] | None]:
    """Parse a game; returns (game, renumbering) where renumbering maps
    original ids to canonical ids (players 1..n, leader = n) or None when
    the input is already canonical."""
    if not isinstance(data, dict):
        raise ValueError("game JSON is not an object")
    try:
        players = data["players"]
        leader = json_int(data["leader"], "leader")
        raw_edges = data["edges"]
    except KeyError as exc:
        raise ValueError(f"malformed game JSON: missing {exc}") from exc
    if not isinstance(players, list) or not isinstance(raw_edges, list):
        raise ValueError("malformed game JSON: players and edges must be lists")
    ids, labels = [], []
    for i, pl in enumerate(players):
        if not isinstance(pl, dict):
            raise ValueError(f"player {i} is not an object")
        try:
            ids.append(json_int(pl["id"], "id"))
            labels.append(json_labels(pl["actions"], "actions"))
        except KeyError as exc:
            raise ValueError(f"malformed player {i}: missing {exc}") from exc
        except ValueError as exc:
            raise ValueError(f"malformed player {i}: {exc}") from exc
        if not labels[-1]:
            raise ValueError(f"player {ids[-1]} has no actions")
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate player ids")
    if leader not in ids:
        raise ValueError(f"leader {leader} is not a player")
    n = len(ids)
    ordered = sorted(p for p in ids if p != leader) + [leader]
    mapping = {old: new for new, old in enumerate(ordered, start=1)}
    renum = None if ids == list(range(1, n + 1)) and leader == n else mapping
    actions = {mapping[p]: a for p, a in zip(ids, labels)}
    edges = {}
    for i, e in enumerate(raw_edges):
        if not isinstance(e, dict):
            raise ValueError(f"edge {i} is not an object")
        try:
            ends = [json_int(e[end], f"edge {i} end {end}") for end in "pq"]
            mp, mq = (json_matrix(e[name], f"edge {i} {name}") for name in ("payoff_p", "payoff_q"))
        except KeyError as exc:
            raise ValueError(f"malformed edge {i}: missing {exc}") from exc
        for end in ends:
            if end not in mapping:
                raise ValueError(f"edge {i} names unknown player {end}")
        p, q = (mapping[end] for end in ends)
        if p > q:
            p, q = q, p
            mp, mq = mq.T, mp.T
        if (p, q) in edges:
            raise ValueError(f"duplicate edge ({p},{q})")
        edges[(p, q)] = (mp, mq)
    game = PolymatrixGame(tuple(range(1, n + 1)), actions, n, edges)
    return game, renum
