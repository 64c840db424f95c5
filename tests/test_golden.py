"""Byte-for-byte check of CLI output against stored output.

``tests/data/solve_golden.json`` holds, per game and mode, the stdout of
``polystack solve`` recorded on the code that produced it.
``tests/data/commands_golden.json`` holds, per game, the exit code, stdout
and stderr of ``validate``, ``classify``, ``eval`` in both modes,
``verify`` on a stored solve output, ``convert --to bayesian`` and, when
that succeeds, ``convert --to polymatrix`` on its output. A refactor that
must not change any answer keeps every entry equal. When a change is meant
to alter output, rewrite both files with ``PYTHONPATH=src python
tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from polystack.bayesian_bridge import BayesianGame, FollowerType, bg_to_polymatrix
from polystack.cli import run
from polystack.game_model import PolymatrixGame, game_from_json_dict, game_to_json_dict
from polystack.instance_gen import CnfFormula, clique_to_spg, random_oltpg, sat_to_pg_olfe
from polystack.oracles import Graph

from test_plfe_exact import _general_game

GOLDEN = Path(__file__).parent / "data" / "solve_golden.json"
COMMANDS = Path(__file__).parent / "data" / "commands_golden.json"
TREE_MODES = ("pessimistic", "optimistic", "apx", "pure-olfe")


def _rounded_tree():
    """random_oltpg(4, 3, 906) with every payoff x mapped to round(x / 50):
    follower 2's actions 0 and 2 tie on the leader edge, and the
    pessimistic supremum is not attained."""
    g = random_oltpg(4, 3, 906)
    edges = {key: tuple(np.round(m / 50) for m in mats) for key, mats in g.edges.items()}
    return PolymatrixGame(g.player_ids, g.actions, g.leader, edges)


def _tied_tree(p):
    """random_oltpg(4, 3, 0) with follower p's leader-edge rows all equal
    to its first: every action of p ties, so p adds no margin row."""
    g = random_oltpg(4, 3, 0)
    edges = dict(g.edges)
    mp, mq = edges[(p, g.leader)]
    edges[(p, g.leader)] = (np.tile(mp[0], (len(mp), 1)), mq)
    return PolymatrixGame(g.player_ids, g.actions, g.leader, edges)


def _bayesian(seed, types):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet(np.ones(types))
    probs[-1] = 1.0 - probs[:-1].sum()
    kinds = tuple(
        FollowerType(f"t{i}", float(probs[i]), rng.uniform(0, 100, (3, 3)), rng.uniform(0, 100, (3, 3)))
        for i in range(types)
    )
    return bg_to_polymatrix(BayesianGame(("l0", "l1", "l2"), ("f0", "f1", "f2"), kinds, "interdependent"))


# follower 2 has no edge at all
ISOLATED_FOLLOWER = {
    "players": [{"id": 1, "actions": ["a", "b"]}, {"id": 2, "actions": ["c", "d"]}, {"id": 3, "actions": ["x", "y", "z"]}],
    "leader": 3,
    "edges": [{"p": 1, "q": 3, "payoff_p": [[3, 0, 1], [0, 2, 1]], "payoff_q": [[1, 4, 0], [2, 0, 3]]}],
}

# followers 1 and 2 share an edge, follower 3 has none
FOLLOWER_EDGE_AND_ISOLATED = {
    "players": [{"id": p, "actions": ["a", "b"]} for p in (1, 2, 3)] + [{"id": 4, "actions": ["x", "y", "z"]}],
    "leader": 4,
    "edges": [
        {"p": 1, "q": 2, "payoff_p": [[2, 0], [0, 1]], "payoff_q": [[1, 0], [0, 2]]},
        {"p": 1, "q": 4, "payoff_p": [[0, 1, 2], [2, 1, 0]], "payoff_q": [[3, 1, 0], [0, 2, 4]]},
        {"p": 2, "q": 4, "payoff_p": [[1, 0, 1], [0, 2, 0]], "payoff_q": [[0, 3, 1], [2, 0, 2]]},
    ],
}


def cases():
    """(name, game, modes) of every stored solve."""
    for n in range(3, 6):
        for m in range(2, 5):
            yield f"random-{n}x{m}", random_oltpg(n, m, 0), TREE_MODES
    yield "spg-4x3", random_oltpg(4, 3, 0, kind="spg"), TREE_MODES
    yield "spg-5x2", random_oltpg(5, 2, 1, kind="spg"), TREE_MODES
    yield "rounded-4x3-906", _rounded_tree(), TREE_MODES
    yield "tied-f1-4x3", _tied_tree(1), TREE_MODES
    yield "tied-f2-4x3", _tied_tree(2), TREE_MODES
    yield "leader-only", PolymatrixGame((1,), {1: ("x", "y")}, 1, {}), TREE_MODES[:2] + ("pure-olfe",)
    yield "clique-P4", clique_to_spg(Graph(4, ((1, 2), (2, 3), (3, 4)))), TREE_MODES
    yield "bayes-2t", _bayesian(0, 2), TREE_MODES
    yield "bayes-3t", _bayesian(1, 3), TREE_MODES
    cnf = CnfFormula(3, ((1, 2, 3), (-1, 2, 3), (1, -2, -3)))
    yield "sat-olfe", sat_to_pg_olfe(cnf, 0.01), ("pure-olfe",)
    # payoffs in {0, 1, 2}; follower 2 has no edge to the leader
    yield "general-4p", _general_game(1), ("pure-olfe",)
    yield "isolated-follower", game_from_json_dict(ISOLATED_FOLLOWER)[0], ("pure-olfe",)
    yield "follower-edge-isolated", game_from_json_dict(FOLLOWER_EDGE_AND_ISOLATED)[0], ("pure-olfe",)


def _run(argv):
    """Exit code, stdout and stderr of ``polystack argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return [code, out.getvalue(), err.getvalue()]


def solve_stdout(tmp_path, game, mode):
    """Exit code and stdout of ``polystack solve --mode mode`` on game."""
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_json_dict(game)))
    code, out, _ = _run(["solve", "--mode", mode, str(path)])
    return code, out


def command_outputs(tmp_path, name, game, modes):
    """[exit code, stdout, stderr] of each command but solve on game, by
    label. ``eval`` and ``verify`` read the game's stored pessimistic
    output, or its pure-olfe output when it has none; ``verify`` runs the
    one-dimensional oracle when the leader has two actions, else the grid.
    ``convert --to polymatrix`` runs on ``convert --to bayesian``'s stdout,
    only when that exits 0."""
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_json_dict(game)))
    result = tmp_path / "result.json"
    solved = "pessimistic" if "pessimistic" in modes else "pure-olfe"
    result.write_text(json.loads(GOLDEN.read_text())[name][solved])
    against = "1d" if game.num_actions(game.leader) == 2 else "grid"
    argvs = {
        "validate": ["validate", str(path)],
        "classify": ["classify", str(path)],
        "eval pessimistic": ["eval", "--strategy", str(result), "--mode", "pessimistic", str(path)],
        "eval optimistic": ["eval", "--strategy", str(result), "--mode", "optimistic", str(path)],
        f"verify {against} {solved}": ["verify", "--against", against, str(path), str(result)],
    }
    outputs = {label: _run(argv) for label, argv in argvs.items()}
    outputs["convert bayesian"] = _run(["convert", "--to", "bayesian", str(path)])
    code, bg, _ = outputs["convert bayesian"]
    if code == 0:
        bg_path = tmp_path / "bg.json"
        bg_path.write_text(bg)
        outputs["convert polymatrix"] = _run(["convert", "--to", "polymatrix", str(bg_path)])
    return outputs


@pytest.mark.parametrize("name,game,modes", [pytest.param(*c, id=c[0]) for c in cases()])
def test_solve_stdout_matches_golden(tmp_path, name, game, modes):
    golden = json.loads(GOLDEN.read_text())[name]
    assert sorted(golden) == sorted(modes)
    for mode in modes:
        assert solve_stdout(tmp_path, game, mode) == (0, golden[mode]), f"{name} --mode {mode}"


@pytest.mark.parametrize("name,game,modes", [pytest.param(*c, id=c[0]) for c in cases()])
def test_commands_match_golden(tmp_path, name, game, modes):
    golden = json.loads(COMMANDS.read_text())[name]
    assert command_outputs(tmp_path, name, game, modes) == golden


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        data = {
            name: {mode: solve_stdout(Path(tmp), game, mode)[1] for mode in modes}
            for name, game, modes in cases()
        }
        GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        data = {name: command_outputs(Path(tmp), name, game, modes) for name, game, modes in cases()}
    COMMANDS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
