"""Mapping between two-player Bayesian leadership games and one-level
tree polymatrix games.

One leaf-player per follower type: the leaf keeps the type's follower
payoffs unscaled (best responses are preserved per type) while the leader's
bilateral matrix on that edge is the type probability times her Bayesian
payoff, so her separable sum equals her Bayesian expectation.

The reverse direction is underdetermined (any positive type distribution
works with compensating scaling). We pick distributions that make the
round trip bit-exact: dyadic probabilities (1/2, 1/4, ..., last repeated)
for interdependent output, since scaling by powers of two is lossless, and
the uniform distribution for independent output (forced by the shared
leader matrix), with a one-ulp correction so the rescale inverts exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .game_model import (
    GameClass,
    GameClassError,
    PolymatrixGame,
    json_labels,
    json_number,
    validate,
)


@dataclass(frozen=True)
class FollowerType:
    name: str
    prob: float
    follower_payoff: np.ndarray  # [leader action][follower action]
    leader_payoff: np.ndarray  # [leader action][follower action]

    def __post_init__(self):
        for attr in ("follower_payoff", "leader_payoff"):
            m = np.ascontiguousarray(getattr(self, attr), dtype=float)
            m.flags.writeable = False
            object.__setattr__(self, attr, m)


@dataclass(frozen=True)
class BayesianGame:
    leader_actions: tuple[str, ...]
    follower_actions: tuple[str, ...]
    types: tuple[FollowerType, ...]
    kind: str  # "interdependent" | "independent"

    def __post_init__(self):
        object.__setattr__(self, "leader_actions", tuple(self.leader_actions))
        object.__setattr__(self, "follower_actions", tuple(self.follower_actions))
        object.__setattr__(self, "types", tuple(self.types))
        if self.kind not in ("interdependent", "independent"):
            raise ValueError(f"unknown kind {self.kind!r}")
        shape = (len(self.leader_actions), len(self.follower_actions))
        for t in self.types:
            if t.follower_payoff.shape != shape or t.leader_payoff.shape != shape:
                raise ValueError(f"type {t.name!r} payoff shape mismatch")
            if not (np.isfinite(t.follower_payoff).all() and np.isfinite(t.leader_payoff).all()):
                raise ValueError(f"type {t.name!r} has non-finite payoffs")
            # written so that NaN, which compares false, fails too
            if not t.prob >= 0:
                raise ValueError(f"type {t.name!r} has probability {t.prob!r}, need a number >= 0")
        probs = sum(t.prob for t in self.types)
        if not abs(probs - 1.0) <= 1e-9:
            raise ValueError(f"type probabilities sum to {probs!r}, not 1")
        if self.kind == "independent":
            ref = self.types[0].leader_payoff
            for t in self.types[1:]:
                if not np.array_equal(ref, t.leader_payoff):
                    raise ValueError(
                        "independent-type game requires one shared leader payoff matrix"
                    )


def bg_to_polymatrix(bg: BayesianGame) -> PolymatrixGame:
    """One-level tree game with a leaf per positive-probability type."""
    kept = [t for t in bg.types if t.prob > 0]
    dropped = len(bg.types) - len(kept)
    if dropped:
        warnings.warn(f"dropping {dropped} zero-probability type(s)")
    n = len(kept) + 1
    player_ids = tuple(range(1, n + 1))
    actions = {p: tuple(bg.follower_actions) for p in range(1, n)}
    actions[n] = tuple(bg.leader_actions)
    edges = {}
    for p, t in enumerate(kept, start=1):
        follower_side = t.follower_payoff.T  # -> [follower action][leader action]
        leader_side = t.prob * t.leader_payoff.T
        edges[(p, n)] = (follower_side, leader_side)
    return PolymatrixGame(player_ids, actions, n, edges)


def _exact_preimage(target: np.ndarray, w: float) -> np.ndarray:
    """M with ``M * w`` bitwise equal to ``target`` where possible.

    Searches a few ulps around ``target / w``. A preimage always exists
    when ``target`` itself was produced as ``fl(M0 * w)`` (then M0 is at
    most a couple of ulps from ``target / w``); for arbitrary targets the
    image of multiplication by w has gaps, and the division result (off by
    at most one ulp after rescaling) is kept."""
    m = target / w
    best = m.copy()
    exact = (m * w) == target
    for direction in (np.inf, -np.inf):
        cand = m.copy()
        for _ in range(4):
            cand = np.nextafter(cand, direction)
            hit = ~exact & ((cand * w) == target)
            best[hit] = cand[hit]
            exact |= hit
    return best


def polymatrix_to_bg(game: PolymatrixGame) -> BayesianGame:
    """Inverse mapping; requires a one-level tree game.

    Star games map to independent-type output (uniform distribution,
    shared leader matrix); other trees map to interdependent output with
    dyadic type probabilities so the round trip reproduces every payoff
    entry bit-exactly.
    """
    report = validate(game)
    if report.game_class is GameClass.GENERAL_PG:
        raise GameClassError("only one-level tree games map to Bayesian games")
    followers = game.followers
    t = len(followers)
    if t == 0:
        raise GameClassError("a Bayesian game needs at least one follower type")
    leader_actions = game.actions[game.leader]

    if report.game_class is GameClass.SPG:
        prob = 1.0 / t
        probs = [prob] * t
        shared = _exact_preimage(game.leader_edge(followers[0])[1].T, prob)
        leader_mats = [shared] * t
        kind = "independent"
    else:
        probs = [2.0 ** -min(i + 1, t - 1) for i in range(t)]
        leader_mats = [game.leader_edge(p)[1].T / w for p, w in zip(followers, probs)]
        kind = "interdependent"

    types = tuple(
        FollowerType(
            name=f"player_{p}",
            prob=w,
            follower_payoff=game.leader_edge(p)[0].T,
            leader_payoff=mat,
        )
        for p, w, mat in zip(followers, probs, leader_mats)
    )
    follower_actions = game.actions[followers[0]]
    for p in followers[1:]:
        if game.actions[p] != follower_actions:
            raise GameClassError(
                "followers must share one action set to form a Bayesian follower"
            )
    return BayesianGame(leader_actions, follower_actions, types, kind)


def bg_to_json_dict(bg: BayesianGame) -> dict:
    out = {
        "leader_actions": list(bg.leader_actions),
        "follower_actions": list(bg.follower_actions),
        "kind": bg.kind,
        "types": [],
    }
    if bg.kind == "independent":
        out["leader_payoff"] = bg.types[0].leader_payoff.tolist()
    for t in bg.types:
        entry = {
            "name": t.name,
            "prob": t.prob,
            "follower_payoff": t.follower_payoff.tolist(),
        }
        if bg.kind != "independent":
            entry["leader_payoff"] = t.leader_payoff.tolist()
        out["types"].append(entry)
    return out


def bg_from_json_dict(data: dict) -> BayesianGame:
    if not isinstance(data, dict):
        raise ValueError("Bayesian-game JSON is not an object")
    try:
        kind = data["kind"]
        raw_types = data["types"]
        leader_actions = json_labels(data["leader_actions"], "leader_actions")
        follower_actions = json_labels(data["follower_actions"], "follower_actions")
    except KeyError as exc:
        raise ValueError(f"malformed Bayesian-game JSON: missing {exc}") from exc
    if not isinstance(raw_types, list):
        raise ValueError("malformed Bayesian-game JSON: types must be a list")
    shared = data.get("leader_payoff")
    types = []
    for i, t in enumerate(raw_types):
        if not isinstance(t, dict):
            raise ValueError(f"type {i} is not an object")
        lp = t.get("leader_payoff", shared)
        if lp is None:
            raise ValueError(f"type {t.get('name')!r} has no leader payoff")
        try:
            name = t["name"]
            if not isinstance(name, str):
                raise ValueError(f"name must be a string, got {name!r}")
            types.append(
                FollowerType(
                    name=name,
                    prob=json_number(t["prob"], "prob"),
                    follower_payoff=np.array(t["follower_payoff"], dtype=float),
                    leader_payoff=np.array(lp, dtype=float),
                )
            )
        except KeyError as exc:
            raise ValueError(f"malformed type {i}: missing {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"malformed type {i}: {exc}") from exc
    return BayesianGame(leader_actions, follower_actions, tuple(types), kind)


def bg_leader_utility(bg: BayesianGame, s_l: np.ndarray, follower_actions: list[int]) -> float:
    """Leader's Bayesian expected utility against one pure action per type,
    listed in type order."""
    total = 0.0
    for t, a_f in zip(bg.types, follower_actions):
        total += t.prob * float(t.leader_payoff[:, a_f] @ s_l)
    return total


def bg_type_utility(bg: BayesianGame, type_index: int, s_l: np.ndarray, a_f: int) -> float:
    """One type's conditional expected utility against a leader strategy."""
    t = bg.types[type_index]
    return float(t.follower_payoff[:, a_f] @ s_l)
