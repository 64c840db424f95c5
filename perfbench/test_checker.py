"""The benchmark's checker must reject wrong answers, not only pass right ones.

    python3 -m pytest perfbench

Each test solves a small game through the CLI, confirms the checker
accepts the real output, then corrupts one field and expects a rejection.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
from polystack import cli, instance_gen  # noqa: E402
from polystack.game_model import PolymatrixGame, game_to_json_dict  # noqa: E402


def _solve(tmp_path: Path, game, mode: str) -> tuple[checker.Game, dict]:
    data = game_to_json_dict(game)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(data))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["solve", "--mode", mode, "--alpha", "1e-3", str(path)]) == 0
    return checker.Game(data), json.loads(out.getvalue())


def _knife_edge():
    """One follower, two leader actions; the pessimistic supremum 1/2 is
    approached but not attained."""
    fol = np.array([[1.0, 0.0], [0.0, 1.0]])
    lead = np.array([[0.0, 1.0], [0.0, 0.0]])
    return PolymatrixGame((1, 2), {1: ("a0", "a1"), 2: ("x", "y")}, 2, {(1, 2): (fol, lead)})


def _attained_game():
    for seed in range(50):
        game = instance_gen.random_oltpg(4, 3, seed)
        if cli.solve_plfe(game, alpha=1e-3).attained:
            return game
    raise AssertionError("no attained instance among 50 seeds")


@pytest.fixture(params=["attained", "unattained"])
def plfe_case(request, tmp_path):
    game = _attained_game() if request.param == "attained" else _knife_edge()
    g, out = _solve(tmp_path, game, "pessimistic")
    assert out["attained"] is (request.param == "attained")
    assert checker.check_solve(g, "pessimistic", out) == []
    return g, out


def test_rejects_value_off_by_1e3(plfe_case):
    g, out = plfe_case
    for delta in (1e-3, -1e-3):
        assert checker.check_solve(g, "pessimistic", dict(out, value=out["value"] + delta))


def test_rejects_wrong_strategy(plfe_case):
    g, out = plfe_case
    s = np.array(out["strategy"])
    worst = min(np.eye(g.m_n), key=lambda v: g.tree_value(v, "pessimistic"))
    assert checker.check_solve(g, "pessimistic", dict(out, strategy=list(worst)))
    assert checker.check_solve(g, "pessimistic", dict(out, strategy=list(s * 0.5)))


def test_rejects_flipped_attained_flag(plfe_case):
    g, out = plfe_case
    assert checker.check_solve(g, "pessimistic", dict(out, attained=not out["attained"]))


def test_rejects_wrong_profile_count(plfe_case):
    g, out = plfe_case
    bad = dict(out, profiles_enumerated=out["profiles_enumerated"] - 1)
    assert checker.check_solve(g, "pessimistic", bad)


@pytest.mark.parametrize("mode", ["optimistic", "apx"])
def test_other_modes_pass_then_reject(tmp_path, mode):
    g, out = _solve(tmp_path, instance_gen.random_oltpg(4, 3, 1), mode)
    assert checker.check_solve(g, mode, out) == []
    assert checker.check_solve(g, mode, dict(out, value=out["value"] + 1e-3))


def test_reference_values_agree_and_reject(tmp_path):
    game = instance_gen.random_oltpg(4, 2, 3)
    g, plfe = _solve(tmp_path, game, "pessimistic")
    _, olfe = _solve(tmp_path, game, "optimistic")
    assert checker.check_reference(g, plfe, olfe) == []
    assert checker.check_plfe_olfe(plfe, olfe) == []
    assert checker.check_reference(g, dict(plfe, value=plfe["value"] - 1e-3), olfe)
    assert checker.check_reference(g, plfe, dict(olfe, value=olfe["value"] + 1e-3))
    assert checker.check_plfe_olfe(dict(plfe, value=olfe["value"] + 1.0), olfe)


def test_apx_bounds(tmp_path):
    game = instance_gen.random_oltpg(4, 3, 2)
    g, plfe = _solve(tmp_path, game, "pessimistic")
    _, apx = _solve(tmp_path, game, "apx")
    assert checker.check_apx(g, plfe, apx) == []
    assert checker.check_apx(g, plfe, dict(apx, value=plfe["value"] + 1e-3))
    assert checker.check_apx(g, plfe, dict(apx, value=plfe["value"] / 3 - 1.0))


def test_clique_and_sat_ground_truth():
    path4 = [(1, 2), (2, 3), (3, 4)]
    assert checker.max_clique(4, path4) == 2
    assert checker.max_clique(4, path4 + [(1, 3)]) == 3
    assert checker.check_clique({"value": 2.0}, 4, path4) == []
    assert checker.check_clique({"value": 3.0}, 4, path4)
    unsat = [(1, 1, 1), (-1, -1, -1), (2, 2, 2)]
    assert not checker.satisfiable(2, unsat)
    assert checker.satisfiable(2, unsat[1:])
    assert checker.check_sat({"value": 0.01}, 2, unsat, 0.01) == []
    assert checker.check_sat({"value": 1.0}, 2, unsat, 0.01)


def test_verify_output():
    good = {"ok": True, "checks": [{"check": "grid_lower_bound", "ok": True}]}
    assert checker.check_verify(good) == []
    assert checker.check_verify(dict(good, ok=False))
    assert checker.check_verify({"ok": True, "checks": [{"check": "x", "ok": False}]})
