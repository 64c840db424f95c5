import sys

import numpy as np
import pytest

from polystack import lp_core
from polystack.game_model import PolymatrixGame


def two_player_game(follower_rows, leader_rows, leader_labels=("x", "y")):
    """Leader (id 2) vs one follower (id 1); rows indexed by follower action."""
    fol = np.array(follower_rows, dtype=float)
    lead = np.array(leader_rows, dtype=float)
    return PolymatrixGame(
        (1, 2),
        {1: tuple(f"a{i}" for i in range(fol.shape[0])), 2: tuple(leader_labels)},
        2,
        {(1, 2): (fol, lead)},
    )


@pytest.fixture
def star3_game():
    """Three players: two followers against a leader with differing leader
    matrices (so the game is a plain one-level tree, not a star game)."""
    return PolymatrixGame(
        (1, 2, 3),
        {p: ("a", "b", "c") for p in (1, 2, 3)},
        3,
        {
            (1, 3): (
                np.array([[0, 8, 8], [4, 0, 4], [6, 6, 0]], dtype=float),
                np.array([[9, 0, 0], [0, 5, 0], [0, 0, 7]], dtype=float),
            ),
            (2, 3): (
                np.array([[0, 6, 6], [8, 0, 8], [4, 4, 0]], dtype=float),
                np.array([[3, 0, 0], [0, 1, 0], [0, 0, 2]], dtype=float),
            ),
        },
    )


@pytest.fixture
def star3_shared_game():
    """Same followers but one shared leader matrix across both edges."""
    shared = np.array([[9, 0, 0], [0, 5, 0], [0, 0, 7]], dtype=float)
    return PolymatrixGame(
        (1, 2, 3),
        {p: ("a", "b", "c") for p in (1, 2, 3)},
        3,
        {
            (1, 3): (np.array([[0, 8, 8], [4, 0, 4], [6, 6, 0]], dtype=float), shared),
            (2, 3): (np.array([[0, 6, 6], [8, 0, 8], [4, 4, 0]], dtype=float), shared),
        },
    )


@pytest.fixture
def knife_edge_game():
    """Single follower, 2 leader actions; the pessimistic optimum is a
    supremum: value 1/2 approached but only 0 attained at the tie point."""
    return two_player_game([[1, 0], [0, 1]], [[0, 1], [0, 0]])


@pytest.fixture
def plateau_game():
    """Like knife_edge_game but the leader value is 1 against the target
    action everywhere, so the optimum is attained."""
    return two_player_game([[1, 0], [0, 1]], [[1, 1], [0, 0]])


@pytest.fixture
def lp_calls(monkeypatch):
    """Records every ``lp_core.maximize`` call of the test as (name of the
    calling function, copies of the arguments, result)."""
    calls = []
    maximize = lp_core.maximize

    def recorded(*args):
        args = [None if a is None else np.array(a, dtype=float) for a in args]
        res = maximize(*args)
        calls.append((sys._getframe(1).f_code.co_name, args + [None] * (5 - len(args)), res))
        return res

    monkeypatch.setattr(lp_core, "maximize", recorded)
    return calls
