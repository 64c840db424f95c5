import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polystack import cli, game_model
from polystack.cli import dumps_canonical, run
from polystack.game_model import game_to_json_dict
from polystack.instance_gen import CnfFormula, random_oltpg, sat_to_pg_olfe
from polystack.plfe_exact import SolverFailure, solve_plfe

from test_plfe_exact import _general_game


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_json_dict(random_oltpg(3, 3, 1))))
    return str(path)


def run_out(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


def assert_domain_error(capsys, argv, message):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.fixture
def leader_only_file(tmp_path):
    path = tmp_path / "leader_only.json"
    path.write_text('{"players": [{"id": 1, "actions": ["x", "y"]}], "leader": 1, "edges": []}')
    return str(path)


class TestCanonicalJson:
    def test_float_formatting(self):
        assert dumps_canonical(0.1) == "0.10000000000000001"
        assert dumps_canonical({"b": 1, "a": [True, None]}) == '{"a":[true,null],"b":1}'

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            dumps_canonical(float("nan"))


class TestClassifyValidate:
    def test_classify(self, capsys, game_file):
        code, out = run_out(capsys, ["classify", game_file])
        assert code == 0
        assert json.loads(out) == {"schema": "polystack/1", "class": "oltpg"}

    def test_validate(self, capsys, game_file):
        code, out = run_out(capsys, ["validate", game_file])
        assert code == 0
        data = json.loads(out)
        assert data["class"] == "oltpg"
        assert data["renumbering"] is None

    def test_missing_file(self, capsys, tmp_path):
        code = run(["classify", str(tmp_path / "nope.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSolve:
    def test_pessimistic(self, capsys, game_file):
        code, out = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        assert code == 0
        data = json.loads(out)
        assert data["mode"] == "pessimistic"
        assert len(data["strategy"]) == 3
        assert data["anytime_complete"] is True

    def test_optimistic_dominates(self, capsys, game_file):
        _, out_p = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        _, out_o = run_out(capsys, ["solve", "--mode", "optimistic", game_file])
        assert json.loads(out_o)["value"] >= json.loads(out_p)["value"] - 1e-7

    def test_apx_fields(self, capsys, game_file):
        code, out = run_out(capsys, ["solve", "--mode", "apx", game_file])
        assert code == 0
        data = json.loads(out)
        assert {"subgame_value", "best_follower", "certified_lower_bound"} <= set(data)

    @pytest.mark.parametrize("mode,alpha", [("pessimistic", "0"), ("apx", "-1")])
    def test_nonpositive_alpha_is_domain_error(self, capsys, game_file, mode, alpha):
        assert run(["solve", "--mode", mode, "--alpha", alpha, game_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: alpha must be positive")

    def test_apx_needs_a_follower(self, capsys, leader_only_file):
        assert_domain_error(
            capsys, ["solve", "--mode", "apx", leader_only_file], "needs at least one follower"
        )
        for mode in ("pessimistic", "optimistic", "pure-olfe"):
            code, out = run_out(capsys, ["solve", "--mode", mode, leader_only_file])
            assert code == 0 and json.loads(out)["value"] == 0.0, mode

    @pytest.mark.parametrize("mode", ["pessimistic", "optimistic"])
    @pytest.mark.parametrize("limit", ["nan", "-1"])
    def test_bad_time_limit_is_domain_error(self, capsys, game_file, mode, limit):
        assert_domain_error(
            capsys, ["solve", "--mode", mode, "--time-limit", limit, game_file], "--time-limit"
        )

    @pytest.mark.parametrize("mode", ["pessimistic", "optimistic", "apx"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_bad_threads_is_domain_error(self, capsys, game_file, mode, threads):
        assert_domain_error(
            capsys, ["solve", "--mode", mode, "--threads", threads, game_file], "--threads"
        )

    def test_threads_byte_identical(self, capsys, game_file):
        _, a = run_out(capsys, ["solve", "--mode", "pessimistic", "--threads", "1", game_file])
        _, b = run_out(capsys, ["solve", "--mode", "pessimistic", "--threads", "4", game_file])
        assert a == b

    def test_repeat_byte_identical(self, capsys, game_file):
        _, a = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        _, b = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        assert a == b

    @pytest.mark.parametrize("mode", ["pessimistic", "optimistic", "apx", "pure-olfe"])
    def test_edges_listed_leader_first_solve_the_same(self, capsys, game_file, tmp_path, mode):
        # each edge (p, q) written as (q, p) with its matrices swapped and
        # transposed, in reverse order: the reader restores the canonical game
        data = json.loads(Path(game_file).read_text())
        data["edges"] = [
            {"p": e["q"], "q": e["p"], "payoff_p": np.transpose(e["payoff_q"]).tolist(),
             "payoff_q": np.transpose(e["payoff_p"]).tolist()}
            for e in reversed(data["edges"])
        ]
        swapped = tmp_path / "swapped.json"
        swapped.write_text(json.dumps(data))
        code, canonical = run_out(capsys, ["solve", "--mode", mode, game_file])
        assert code == 0
        assert run_out(capsys, ["solve", "--mode", mode, str(swapped)]) == (0, canonical)

    def test_seven_followers_eight_actions(self, capsys, tmp_path):
        # a default-range game whose pessimistic supremum is not attained;
        # its max-min LP drifts off its rows before the re-solve mends it
        code, out = run_out(
            capsys, ["generate", "random", "--players", "7", "--actions", "8", "--seed", "1"]
        )
        assert code == 0
        path = tmp_path / "game.json"
        path.write_text(out)
        solved = {}
        for mode in ("pessimistic", "optimistic"):
            code, out = run_out(capsys, ["solve", "--mode", mode, str(path)])
            assert code == 0, mode
            solved[mode] = json.loads(out)
        pessimistic, optimistic = solved["pessimistic"], solved["optimistic"]
        assert pessimistic["attained"] is False
        assert pessimistic["profile"] == optimistic["profile"]
        assert pessimistic["value"] == pytest.approx(optimistic["value"], abs=1e-9)


class TestEval:
    def test_eval_probs_list(self, capsys, game_file, tmp_path):
        s = tmp_path / "s.json"
        s.write_text("[0.5, 0.25, 0.25]")
        code, out = run_out(
            capsys, ["eval", "--strategy", str(s), "--mode", "pessimistic", game_file]
        )
        assert code == 0
        assert "value" in json.loads(out)

    def test_eval_accepts_solve_output(self, capsys, game_file, tmp_path):
        _, solved = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        s = tmp_path / "solved.json"
        s.write_text(solved)
        code, out = run_out(
            capsys, ["eval", "--strategy", str(s), "--mode", "pessimistic", game_file]
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(json.loads(solved)["value"], abs=1e-6)

    def test_bad_strategy_sum(self, capsys, game_file, tmp_path):
        s = tmp_path / "s.json"
        s.write_text("[0.9, 0.9, 0.9]")
        assert run(["eval", "--strategy", str(s), "--mode", "pessimistic", game_file]) == 1

    @pytest.mark.parametrize("probs", ["[NaN, NaN, NaN]", "[0.5, NaN, 0.5]"])
    def test_nan_strategy_is_domain_error(self, capsys, game_file, tmp_path, probs):
        s = tmp_path / "s.json"
        s.write_text(probs)
        assert run(["eval", "--strategy", str(s), "--mode", "pessimistic", game_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid strategy:")

    def test_object_without_probabilities_is_domain_error(self, capsys, game_file, tmp_path):
        s = tmp_path / "s.json"
        s.write_text('{"value": 1.0}')
        assert_domain_error(
            capsys,
            ["eval", "--strategy", str(s), "--mode", "pessimistic", game_file],
            "expected a probability list or a solve output",
        )


class TestMalformedGame:
    """solve, eval and verify reject a game the solvers cannot read."""

    def write(self, tmp_path, edit):
        data = game_to_json_dict(random_oltpg(3, 2, 0))
        edit(data["edges"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        strategy = tmp_path / "s.json"
        strategy.write_text(json.dumps({"mode": "pessimistic", "value": 0.0, "strategy": [0.5, 0.5]}))
        return str(path), str(strategy)

    def assert_rejected(self, capsys, game, strategy, message):
        for argv in (
            ["solve", "--mode", "pessimistic", game],
            ["solve", "--mode", "optimistic", game],
            ["eval", "--strategy", strategy, "--mode", "pessimistic", game],
            ["verify", "--against", "1d", game, strategy],
            ["convert", "--to", "bayesian", game],
        ):
            assert run(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and message in captured.err, argv
        code, out = run_out(capsys, ["validate", game])
        assert code == 0
        assert message in json.loads(out)["violations"]

    def test_wrong_shape(self, capsys, tmp_path):
        def edit(edges):
            edges[0]["payoff_p"] = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

        game, strategy = self.write(tmp_path, edit)
        self.assert_rejected(
            capsys, game, strategy, "edge (1,3) payoff_p has shape (2, 3), expected (2, 2)"
        )

    def test_nan_payoff(self, capsys, tmp_path):
        def edit(edges):
            edges[1]["payoff_q"][0][1] = float("nan")

        game, strategy = self.write(tmp_path, edit)
        self.assert_rejected(capsys, game, strategy, "edge (2,3) payoff_q has non-finite entries")

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("p", 7, "edge 0 names unknown player 7"),
            ("payoff_q", None, "malformed edge 0: missing 'payoff_q'"),
            ("p", 2.2, "edge 0 end p must be an integer, got 2.2"),
            ("q", "2", "edge 0 end q must be an integer, got '2'"),
            ("q", True, "edge 0 end q must be an integer, got True"),
            ("game", [1, 2], "game JSON is not an object"),
            ("edge", [1, 2], "edge 0 is not an object"),
            ("payoff_p", [["x", 1.0], [2.0, 3.0]], "edge 0 payoff_p: could not convert string to float: 'x'"),
            ("payoff_q", [[1.0], [2.0, 3.0]], "edge 0 payoff_q: setting an array element with a sequence"),
            ("file", b"\xff\xfe{}", "malformed JSON in"),
        ],
    )
    def test_unreadable_edge(self, capsys, game_file, tmp_path, field, value, message):
        data = game_to_json_dict(random_oltpg(3, 2, 0))
        if field in ("game", "file"):  # the whole file: JSON, or bytes that are not UTF-8
            data = value
        elif field == "edge":  # the whole of edge 0
            data["edges"][0] = value
        elif value is None:
            del data["edges"][0][field]
        else:
            data["edges"][0][field] = value
        game = tmp_path / "bad.json"
        if field == "file":
            game.write_bytes(data)
        else:
            game.write_text(json.dumps(data))
        game = str(game)
        argvs = [
            ["validate", game],
            ["solve", "--mode", "pessimistic", game],
            ["solve", "--mode", "pure-olfe", game],
        ]
        if field == "file":  # read as a strategy and as a result file too
            argvs += [
                ["eval", "--strategy", game, "--mode", "pessimistic", game_file],
                ["verify", "--against", "grid", game_file, game],
            ]
        for argv in argvs:
            assert run(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and message in captured.err, argv

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda data: data["players"][0].pop("id"), "malformed player 0: missing 'id'"),
            (lambda data: data["players"][1].pop("actions"), "malformed player 1: missing 'actions'"),
            (lambda data: data.update(players=5), "players and edges must be lists"),
            (
                lambda data: data["players"][0].update(id=1.9),
                "malformed player 0: id must be an integer, got 1.9",
            ),
            (lambda data: data.update(leader=True), "leader must be an integer, got True"),
            (lambda data: data.update(leader="3"), "leader must be an integer, got '3'"),
            (
                lambda data: data["players"][0].update(actions="ab"),
                "malformed player 0: actions must be a list of strings, got 'ab'",
            ),
            (
                lambda data: data["players"][1].update(actions=[1.5, None]),
                "malformed player 1: actions must be a list of strings, got [1.5, None]",
            ),
            (lambda data: data["players"].__setitem__(0, [1, ["a", "b"]]), "player 0 is not an object"),
            (lambda data: data["players"][1].update(id=1), "duplicate player ids"),
            (lambda data: data.update(leader=9), "leader 9 is not a player"),
            (lambda data: data.pop("leader"), "malformed game JSON: missing 'leader'"),
        ],
        ids=[
            "no-id",
            "no-actions",
            "players-not-list",
            "float-id",
            "bool-leader",
            "string-leader",
            "string-actions",
            "non-string-labels",
            "player-not-object",
            "duplicate-ids",
            "unknown-leader",
            "no-leader",
        ],
    )
    def test_unreadable_player(self, capsys, tmp_path, edit, message):
        data = game_to_json_dict(random_oltpg(3, 2, 0))
        edit(data)
        game = tmp_path / "bad.json"
        game.write_text(json.dumps(data))
        for argv in (
            ["validate", str(game)],
            ["solve", "--mode", "pessimistic", str(game)],
            ["solve", "--mode", "pure-olfe", str(game)],
        ):
            assert run(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and message in captured.err, argv


    @pytest.mark.parametrize("player", [1, 3], ids=["follower", "leader"])
    def test_player_without_actions(self, capsys, tmp_path, player):
        data = game_to_json_dict(random_oltpg(3, 2, 0))
        data["players"][player - 1]["actions"] = []
        for edge in data["edges"]:
            if edge["p"] == player:
                edge["payoff_p"] = edge["payoff_q"] = []
            elif edge["q"] == player:
                edge["payoff_p"] = edge["payoff_q"] = [[], []]
        game = tmp_path / "bad.json"
        game.write_text(json.dumps(data))
        strategy = tmp_path / "s.json"
        strategy.write_text(json.dumps({"mode": "pessimistic", "value": 0.0, "strategy": [0.5, 0.5]}))
        argvs = [["solve", "--mode", mode, str(game)] for mode in ("pessimistic", "optimistic", "apx", "pure-olfe")]
        argvs += [
            ["validate", str(game)],
            ["eval", "--strategy", str(strategy), "--mode", "pessimistic", str(game)],
            ["verify", "--against", "1d", str(game), str(strategy)],
        ]
        for argv in argvs:
            assert run(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and f"player {player} has no actions" in captured.err, argv


class TestGenerate:
    def test_random_deterministic(self, capsys):
        argv = ["generate", "random", "--players", "3", "--actions", "2", "--seed", "5"]
        _, a = run_out(capsys, argv)
        _, b = run_out(capsys, argv)
        assert a == b
        assert json.loads(a)["leader"] == 3

    def test_clique(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text('{"vertices": 3, "edges": [[1, 2], [2, 3]]}')
        code, out = run_out(capsys, ["generate", "clique", "--graph", str(graph)])
        assert code == 0
        assert len(json.loads(out)["players"]) == 4

    def test_sat(self, capsys, tmp_path):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 3\n1 2 3 0\n-1 2 3 0\n1 -2 -3 0\n")
        code, out = run_out(capsys, ["generate", "sat-olfe", "--cnf", str(cnf)])
        assert code == 0
        assert len(json.loads(out)["players"]) == 4
        code, out = run_out(capsys, ["generate", "sat-plfe", "--cnf", str(cnf)])
        assert code == 0
        assert len(json.loads(out)["players"][0]["actions"]) == 25

    def test_negative_exponent_form(self, capsys):
        argv = ["generate", "random", "--players", "3", "--actions", "2"]
        code, spaced = run_out(capsys, [*argv, "--lo", "-1e3", "--hi", "5"])
        assert code == 0
        assert spaced == run_out(capsys, [*argv, "--lo=-1e3", "--hi", "5"])[1]

    def test_complete_graph_rejected(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text('{"vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}')
        assert run(["generate", "clique", "--graph", str(graph)]) == 1

    @pytest.mark.parametrize(
        "args,message",
        [
            (["sat-olfe", "--epsilon", "nan"], "epsilon must be positive and finite"),
            (["sat-plfe", "--epsilon", "inf"], "epsilon must be positive and finite"),
            (["random", "--players", "3", "--actions", "2", "--hi", "inf"], "need finite"),
            (["random", "--players", "3", "--actions", "2", "--lo", "nan"], "need finite"),
            (
                ["random", "--players", "3", "--actions", "2", "--lo=-1e308", "--hi", "1e308"],
                "need finite",
            ),
        ],
        ids=["olfe-nan-epsilon", "plfe-inf-epsilon", "inf-hi", "nan-lo", "range-overflow"],
    )
    def test_non_finite_parameter_is_domain_error(self, capsys, tmp_path, args, message):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 3 3\n1 2 3 0\n-1 2 3 0\n1 -2 -3 0\n")
        if args[0] != "random":
            args = [args[0], "--cnf", str(cnf), *args[1:]]
        assert_domain_error(capsys, ["generate", *args], message)


    @pytest.mark.parametrize(
        "what,text,message",
        [
            ("sat-olfe", "p dnf 3 1\n1 2 3 0\n", "bad problem line: 'p dnf 3 1'"),
            ("sat-olfe", "p cnf 3 1\n1 2 3\n", "last clause not terminated by 0"),
            ("sat-olfe", "p cnf 3 1\n1 2 0\n", "clause (1, 2) does not have exactly 3 literals"),
            ("sat-olfe", None, "cannot read input: "),
            ("sat-plfe", "p cnf 3 0\n", "need at least one clause"),
        ],
        ids=["dnf-header", "unterminated", "two-literals", "missing-file", "no-clauses"],
    )
    def test_unreadable_cnf_is_domain_error(self, capsys, tmp_path, what, text, message):
        cnf = tmp_path / "f.cnf"
        if text is not None:
            cnf.write_text(text)
        assert_domain_error(capsys, ["generate", what, "--cnf", str(cnf)], message)


def _type0(edit):
    """An edit of a Bayesian game's JSON that replaces type 0 by edit(type 0)."""

    def apply(data):
        data["types"][0] = edit(data["types"][0])

    return apply


class TestConvert:
    def test_round_trip_byte_identical(self, capsys, game_file):
        code, bg = run_out(capsys, ["convert", "--to", "bayesian", game_file])
        assert code == 0
        bg_path = game_file + ".bg"
        with open(bg_path, "w") as fh:
            fh.write(bg)
        code, back = run_out(capsys, ["convert", "--to", "polymatrix", bg_path])
        assert code == 0
        with open(game_file) as fh:
            original = json.load(fh)
        assert json.loads(back) == json.loads(dumps_canonical(original))

    def test_zero_probability_type_warns_on_one_line(self, capsys, tmp_path):
        payoff = [[1.0, 0.0], [0.0, 1.0]]
        types = [
            {"name": "live", "prob": 1.0, "follower_payoff": payoff, "leader_payoff": payoff},
            {"name": "dead", "prob": 0.0, "follower_payoff": payoff, "leader_payoff": payoff},
        ]
        bg = {"leader_actions": ["x", "y"], "follower_actions": ["a", "b"], "types": types}
        path = tmp_path / "bg.json"
        path.write_text(json.dumps({**bg, "kind": "interdependent"}))
        assert run(["convert", "--to", "polymatrix", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: dropping 1 zero-probability type(s)\n"
        assert [pl["id"] for pl in json.loads(captured.out)["players"]] == [1, 2]

    def test_leader_only_game_rejected(self, capsys, leader_only_file):
        assert_domain_error(
            capsys, ["convert", "--to", "bayesian", leader_only_file], "at least one follower type"
        )

    def test_followers_with_different_labels_rejected(self, capsys, tmp_path):
        data = game_to_json_dict(random_oltpg(3, 2, 0))
        data["players"][0]["actions"] = ["u", "v"]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data))
        code, out = run_out(capsys, ["validate", str(path)])
        assert code == 0
        report = json.loads(out)
        assert report["class"] == "oltpg"
        assert report["violations"] == ["leaf-players do not share one action set"]
        assert_domain_error(
            capsys,
            ["convert", "--to", "bayesian", str(path)],
            "followers must share one action set to form a Bayesian follower",
        )

    def test_general_game_rejected(self, capsys, tmp_path):
        z = [[0.0, 0.0], [0.0, 0.0]]
        data = {
            "players": [{"id": i, "actions": ["a", "b"]} for i in (1, 2, 3)],
            "leader": 3,
            "edges": [
                {"p": 1, "q": 2, "payoff_p": z, "payoff_q": z},
                {"p": 1, "q": 3, "payoff_p": z, "payoff_q": z},
                {"p": 2, "q": 3, "payoff_p": z, "payoff_q": z},
            ],
        }
        path = tmp_path / "tri.json"
        path.write_text(json.dumps(data))
        assert_domain_error(capsys, ["solve", "--mode", "optimistic", str(path)], "use pure-olfe")
        assert run(["convert", "--to", "bayesian", str(path)]) == 1

    @pytest.mark.parametrize(
        "edit,message",
        [
            (
                _type0(lambda t: {k: v for k, v in t.items() if k != "follower_payoff"}),
                "malformed type 0: missing 'follower_payoff'",
            ),
            (_type0(lambda t: "not an object"), "type 0 is not an object"),
            (_type0(lambda t: {**t, "prob": float("nan")}), "type 'player_1' has probability nan"),
            (_type0(lambda t: {**t, "prob": True}), "malformed type 0: prob must be a number, got True"),
            (_type0(lambda t: {**t, "prob": "0.5"}), "malformed type 0: prob must be a number, got '0.5'"),
            (_type0(lambda t: {**t, "name": [1, None]}), "malformed type 0: name must be a string, got [1, None]"),
            (
                _type0(lambda t: {**t, "follower_payoff": [[float("nan")] * len(r) for r in t["follower_payoff"]]}),
                "type 'player_1' has non-finite payoffs",
            ),
            (
                lambda data: data.update(leader_actions="xy"),
                "leader_actions must be a list of strings, got 'xy'",
            ),
            (
                lambda data: data.update(follower_actions=[1.5, None]),
                "follower_actions must be a list of strings, got [1.5, None]",
            ),
            (lambda data: [1, 2], "Bayesian-game JSON is not an object"),
            (lambda data: data.update(types={}), "malformed Bayesian-game JSON: types must be a list"),
            (
                _type0(lambda t: {k: v for k, v in t.items() if k != "leader_payoff"}),
                "type 'player_1' has no leader payoff",
            ),
            (
                _type0(lambda t: {**t, "follower_payoff": t["follower_payoff"][:-1]}),
                "type 'player_1' payoff shape mismatch",
            ),
        ],
        ids=[
            "no-follower-payoff",
            "type-not-object",
            "nan-prob",
            "bool-prob",
            "string-prob",
            "non-string-name",
            "nan-payoff",
            "string-leader-actions",
            "non-string-follower-labels",
            "not-object",
            "types-not-list",
            "no-leader-payoff",
            "shape-mismatch",
        ],
    )
    def test_unreadable_bayesian_type(self, capsys, game_file, tmp_path, edit, message):
        _, bg = run_out(capsys, ["convert", "--to", "bayesian", game_file])
        data = json.loads(bg)
        data = edit(data) or data
        path = tmp_path / "bg.json"
        path.write_text(json.dumps(data))
        assert run(["convert", "--to", "polymatrix", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err


class TestVerify:
    def test_grid_pass(self, capsys, game_file, tmp_path):
        _, solved = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        res = tmp_path / "r.json"
        res.write_text(solved)
        code, out = run_out(
            capsys, ["verify", "--against", "grid", "--resolution", "6", game_file, str(res)]
        )
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_grid_detects_inflated_value(self, capsys, game_file, tmp_path):
        _, solved = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        data = json.loads(solved)
        data["value"] += 50.0
        res = tmp_path / "r.json"
        res.write_text(json.dumps(data))
        code, out = run_out(
            capsys, ["verify", "--against", "grid", "--resolution", "6", game_file, str(res)]
        )
        assert code == 1
        assert json.loads(out)["ok"] is False

    def test_grid_accepts_pure_olfe_on_unsat_formula(self, capsys, tmp_path):
        cnf = CnfFormula(1, ((1, 1, 1), (-1, -1, -1), (1, 1, 1)))
        game = tmp_path / "sat.json"
        game.write_text(json.dumps(game_to_json_dict(sat_to_pg_olfe(cnf, 0.01))))
        code, solved = run_out(capsys, ["solve", "--mode", "pure-olfe", str(game)])
        assert code == 0
        res = tmp_path / "r.json"
        res.write_text(solved)
        code, out = run_out(
            capsys, ["verify", "--against", "grid", "--resolution", "4", str(game), str(res)]
        )
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        (grid,) = [c for c in data["checks"] if c["check"] == "grid_lower_bound"]
        assert grid["grid_value"] == pytest.approx(0.01)

    @pytest.mark.parametrize(
        "edit,evaluated",
        [({"value": 1e9}, 3), ({"strategy": [1, 0, 0]}, 0)],
        ids=["inflated-value", "other-strategy"],
    )
    def test_general_game_strategy_reevaluates(self, capsys, tmp_path, edit, evaluated):
        # the grid check alone holds for any value at least the grid's
        game = tmp_path / "g.json"
        game.write_text(json.dumps(game_to_json_dict(_general_game(1))))
        _, solved = run_out(capsys, ["solve", "--mode", "pure-olfe", str(game)])
        data = json.loads(solved)
        assert data["value"] == 3
        res = tmp_path / "r.json"
        res.write_text(json.dumps({**data, **edit}))
        code, out = run_out(capsys, ["verify", "--against", "grid", str(game), str(res)])
        assert code == 1
        report = json.loads(out)
        assert report["ok"] is False
        assert report["checks"][0] == {"check": "strategy_reevaluates", "ok": False, "evaluated": evaluated}
        assert report["checks"][1]["check"] == "grid_lower_bound" and report["checks"][1]["ok"] is True

    # followers 1 and 2 play matching pennies, and follower 1 gains 5 from
    # action h when the leader plays y: a pure equilibrium exists at y, none at x
    PENNIES_GAME = {
        "players": [{"id": 1, "actions": ["h", "t"]}, {"id": 2, "actions": ["h", "t"]}, {"id": 3, "actions": ["x", "y"]}],
        "leader": 3,
        "edges": [
            {"p": 1, "q": 2, "payoff_p": [[1, -1], [-1, 1]], "payoff_q": [[-1, 1], [1, -1]]},
            {"p": 1, "q": 3, "payoff_p": [[0, 5], [0, 0]], "payoff_q": [[0, 0], [0, 0]]},
            {"p": 2, "q": 3, "payoff_p": [[0, 0], [0, 0]], "payoff_q": [[0, 0], [0, 0]]},
        ],
    }

    def test_strategy_without_pure_equilibrium_fails(self, capsys, tmp_path):
        game = tmp_path / "g.json"
        game.write_text(json.dumps(self.PENNIES_GAME))
        res = tmp_path / "r.json"
        res.write_text(json.dumps({"mode": "pure-olfe", "value": 0, "strategy": [1, 0]}))
        code, out = run_out(capsys, ["verify", "--against", "grid", str(game), str(res)])
        assert code == 1
        report = json.loads(out)
        assert report["checks"][0] == {"check": "strategy_reevaluates", "ok": False, "evaluated": None}

    def test_general_game_enumeration_refusal_is_domain_error(self, capsys, tmp_path, monkeypatch):
        game = tmp_path / "g.json"
        game.write_text(json.dumps(game_to_json_dict(_general_game(1))))
        _, solved = run_out(capsys, ["solve", "--mode", "pure-olfe", str(game)])
        res = tmp_path / "r.json"
        res.write_text(solved)
        monkeypatch.setattr(game_model, "_NE_CELL_GUARD", 1)
        assert_domain_error(
            capsys, ["verify", "--against", "grid", str(game), str(res)], "follower profile space too large"
        )

    def test_1d_oracle(self, capsys, tmp_path):
        game = tmp_path / "g2.json"
        game.write_text(json.dumps(game_to_json_dict(random_oltpg(3, 2, 4))))
        code, solved = run_out(capsys, ["solve", "--mode", "pessimistic", str(game)])
        assert code == 0
        res = tmp_path / "r.json"
        res.write_text(solved)
        code, out = run_out(capsys, ["verify", "--against", "1d", str(game), str(res)])
        assert code == 0
        assert json.loads(out)["ok"] is True

    # one follower indifferent between its two actions; the leader gets 5
    # against a0 and 0 against a1, so the optimistic value is 5 and the
    # pessimistic supremum 0
    TIED_GAME = {
        "players": [{"id": 1, "actions": ["a0", "a1"]}, {"id": 2, "actions": ["x", "y"]}],
        "leader": 2,
        "edges": [{"p": 1, "q": 2, "payoff_p": [[1, 0], [1, 0]], "payoff_q": [[5, 5], [0, 0]]}],
    }

    def _verify(self, capsys, tmp_path, game, mode, shift=0.0, against=("1d",)):
        """Solves the game in mode, adds shift to the value and verifies it
        against an oracle: (exit code, solved value, the oracle's check)."""
        path = tmp_path / "g.json"
        path.write_text(json.dumps(game))
        code, solved = run_out(capsys, ["solve", "--mode", mode, str(path)])
        assert code == 0
        data = json.loads(solved)
        data["value"] += shift
        res = tmp_path / "r.json"
        res.write_text(json.dumps(data))
        code, out = run_out(capsys, ["verify", "--against", *against, str(path), str(res)])
        (check,) = [c for c in json.loads(out)["checks"] if c["check"] != "strategy_reevaluates"]
        return code, data["value"], check

    @pytest.mark.parametrize("mode", ["optimistic", "pure-olfe"])
    def test_1d_accepts_optimistic_value_above_supremum(self, capsys, tmp_path, mode):
        code, value, check = self._verify(capsys, tmp_path, self.TIED_GAME, mode)
        assert (value, check["oracle_value"]) == (5, 0)
        assert code == 0 and check["ok"] is True

    @pytest.mark.parametrize(
        "mode,shift", [("optimistic", -6.0), ("pessimistic", -1.0), ("pessimistic", 1.0)]
    )
    def test_1d_rejects_value_past_supremum(self, capsys, tmp_path, mode, shift):
        # an optimistic value below the supremum, a pessimistic one off it
        code, _, check = self._verify(capsys, tmp_path, self.TIED_GAME, mode, shift)
        assert code == 1 and check["ok"] is False

    def test_1d_accepts_apx_value_below_supremum(self, capsys, tmp_path):
        game = game_to_json_dict(random_oltpg(5, 2, 0))
        code, value, check = self._verify(capsys, tmp_path, game, "apx")
        assert value < check["oracle_value"] - 1.0
        assert code == 0 and check["ok"] is True
        above = check["oracle_value"] - value + 1.0
        code, _, check = self._verify(capsys, tmp_path, game, "apx", above)
        assert code == 1 and check["ok"] is False

    def test_grid_checks_apx_ratio_not_optimum(self, capsys, tmp_path):
        # the grid value bounds the optimum, which a correct approximation's
        # value times the follower count bounds in turn
        game = game_to_json_dict(random_oltpg(5, 2, 0))
        grid = ("grid", "--resolution", "6")
        code, value, check = self._verify(capsys, tmp_path, game, "apx", against=grid)
        assert check["check"] == "grid_apx_ratio" and check["followers"] == 4
        assert check["grid_value"] > value + 1.0
        assert code == 0 and check["ok"] is True
        below = check["grid_value"] / 4 - value - 1.0
        code, _, check = self._verify(capsys, tmp_path, game, "apx", below, grid)
        assert code == 1 and check["ok"] is False

    def test_grid_compares_nothing_when_apx_guarantee_is_void(self, capsys, tmp_path):
        game = game_to_json_dict(random_oltpg(3, 3, 0, lo=-100.0))
        grid = ("grid", "--resolution", "4")
        code, _, check = self._verify(capsys, tmp_path, game, "apx", -1e3, grid)
        assert check == {"check": "grid_apx_ratio", "ok": True, "guarantee_valid": False}
        assert code == 0

    @pytest.mark.parametrize(
        "against,message",
        [
            pytest.param(["1d"], "requires exactly 2 leader actions", id="1d-three-actions"),
            pytest.param(["grid", "--resolution", "0"], "resolution must be positive", id="resolution-0"),
        ],
    )
    def test_oracle_refusal_is_domain_error(self, capsys, game_file, tmp_path, against, message):
        # the game's leader has three actions
        _, solved = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        res = tmp_path / "r.json"
        res.write_text(solved)
        assert_domain_error(capsys, ["verify", "--against", *against, game_file, str(res)], message)

    def test_unknown_mode_is_domain_error(self, capsys, game_file, tmp_path):
        _, solved = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        data = json.loads(solved)
        data["mode"] = "bogus"
        res = tmp_path / "r.json"
        res.write_text(json.dumps(data))
        assert_domain_error(
            capsys,
            ["verify", "--against", "grid", "--resolution", "4", game_file, str(res)],
            "unknown mode 'bogus'",
        )


    @pytest.mark.parametrize(
        "field,bad,message",
        [
            pytest.param("value", "abc", "value must be a number, got 'abc'", id="value"),
            pytest.param("alpha", "abc", "alpha must be a number, got 'abc'", id="alpha"),
            pytest.param("value", None, "value must be a number, got None", id="null-value"),
            pytest.param("attained", "no", "has a non-boolean attained: 'no'", id="attained"),
            pytest.param("alpha", math.nan, "alpha must be positive and finite, got nan", id="nan"),
            pytest.param("alpha", math.inf, "alpha must be positive and finite, got inf", id="inf"),
            pytest.param("alpha", -math.inf, "alpha must be positive and finite, got -inf", id="-inf"),
            pytest.param("alpha", 0, "alpha must be positive and finite, got 0.0", id="zero"),
            pytest.param("alpha", -1, "alpha must be positive and finite, got -1.0", id="negative"),
        ],
    )
    def test_non_numeric_field_is_domain_error(
        self, capsys, game_file, tmp_path, field, bad, message
    ):
        _, solved = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        data = json.loads(solved)
        data["attained"] = False  # verify reads alpha only for an unattained supremum
        data[field] = bad
        res = tmp_path / "r.json"
        res.write_text(json.dumps(data))
        code = run(["verify", "--against", "grid", "--resolution", "4", game_file, str(res)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: result file {message}")

    @pytest.mark.parametrize(
        "edit,message",
        [
            pytest.param(
                lambda d: {"value": str(d["value"])},
                "value must be a number, got '154.29256856302163'",
                id="numeric-string-value",
            ),
            pytest.param(lambda d: {"value": True}, "value must be a number, got True", id="bool-value"),
            pytest.param(
                lambda d: {"attained": False, "alpha": True}, "alpha must be a number, got True", id="bool-alpha"
            ),
        ],
    )
    def test_numbers_must_be_json_numbers(self, capsys, tmp_path, edit, message):
        # each edit once passed verify as a number: the string with exit 0
        # and ok true, as did the bool alpha; the bool value as 1.0
        game = tmp_path / "g.json"
        _, text = run_out(capsys, ["generate", "random", "--players", "3", "--actions", "2", "--seed", "0"])
        game.write_text(text)
        _, solved = run_out(capsys, ["solve", "--mode", "pessimistic", str(game)])
        data = json.loads(solved)
        data.update(edit(data))
        res = tmp_path / "r.json"
        res.write_text(json.dumps(data))
        assert_domain_error(capsys, ["verify", "--against", "1d", str(game), str(res)], f"result file {message}")

    @pytest.mark.parametrize(
        "text,message",
        [
            pytest.param("[1, 2, 3]", "expected a JSON object", id="list"),
            pytest.param('{"value": 1.0, "strategy": []}', "missing 'mode'", id="no-mode"),
        ],
    )
    def test_result_not_a_solve_output_is_domain_error(
        self, capsys, game_file, tmp_path, text, message
    ):
        res = tmp_path / "r.json"
        res.write_text(text)
        assert_domain_error(
            capsys,
            ["verify", "--against", "grid", "--resolution", "4", game_file, str(res)],
            f"result file is not a solve output: {message}",
        )

    def test_invalid_strategy_is_domain_error(self, capsys, game_file, tmp_path):
        _, solved = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        data = json.loads(solved)
        for bad in ([1.5, -0.25, -0.25], ["a", "b", "c"], ["0.5", "0.25", "0.25"], [True, False, False], 1.0):
            data["strategy"] = bad
            res = tmp_path / "r.json"
            res.write_text(json.dumps(data))
            code = run(["verify", "--against", "grid", "--resolution", "4", game_file, str(res)])
            assert code == 1
            assert capsys.readouterr().err.startswith("error: invalid strategy:")


    def test_nan_strategy_is_domain_error(self, capsys, game_file, tmp_path):
        _, solved = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        data = json.loads(solved)
        data["strategy"] = [float("nan")] * 3
        res = tmp_path / "r.json"
        res.write_text(json.dumps(data))
        assert run(["verify", "--against", "grid", "--resolution", "4", game_file, str(res)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid strategy:")


class TestBench:
    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--seeds", "0"),
            ("--n", "1"),
            ("--m", "0"),
            ("--time-limit", "nan"),
            ("--time-limit", "-1"),
            ("--threads", "0"),
        ],
    )
    def test_bad_argument_is_domain_error(self, capsys, flag, value):
        assert run(["bench", "--n", "3", "--m", "2", "--seeds", "1", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and flag in captured.err

    def test_tiny_bench_csv(self, capsys):
        code, out = run_out(
            capsys, ["bench", "--n", "3", "--m", "2", "--seeds", "2", "--time-limit", "10"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,m,mean_seconds,std_seconds,timeouts,profiles_enumerated"
        n, m, mean, std, timeouts, profiles = lines[1].split(",")
        # two followers with two actions each: 4 profiles
        assert (n, m, timeouts, profiles) == ("3", "2", "0", "4")

    def test_counts_timeouts(self, capsys):
        # no time for a single LP: every seed's solve stops early
        code, out = run_out(
            capsys, ["bench", "--n", "5", "--m", "6", "--seeds", "2", "--time-limit", "0"]
        )
        assert code == 0
        n, m, mean, std, timeouts, profiles = out.splitlines()[1].split(",")
        assert (n, m, timeouts) == ("5", "6", "2")

    def test_solver_failure_is_domain_error(self, capsys, monkeypatch):
        # run maps a SolverFailure of every command, bench's too, to exit 1
        def fail(*args, **kwargs):
            raise SolverFailure("max-min LP ended with LpStatus.FAILED")

        monkeypatch.setattr(cli, "solve_plfe", fail)
        assert run(["bench", "--n", "3", "--m", "2", "--seeds", "1"]) == 1
        assert capsys.readouterr().err == "error: solver failure: max-min LP ended with LpStatus.FAILED\n"

    def test_failure_keeps_finished_rows(self, capsys, monkeypatch):
        # rows stream as they finish: a failure in the second grid point
        # leaves the header and the first row on stdout
        solved = []

        def fail_second(*args, **kwargs):
            solved.append(None)
            if len(solved) == 2:
                raise SolverFailure("max-min LP ended with LpStatus.FAILED")
            return solve_plfe(*args, **kwargs)

        monkeypatch.setattr(cli, "solve_plfe", fail_second)
        assert run(["bench", "--n", "3", "--m", "2,3", "--seeds", "1"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "n,m,mean_seconds,std_seconds,timeouts,profiles_enumerated"
        assert len(lines) == 2 and lines[1].startswith("3,2,")
        assert captured.err.startswith("error: solver failure: ")


class TestModuleEntry:
    def test_python_m_classify(self, game_file):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "polystack.cli", "classify", game_file],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"schema": "polystack/1", "class": "oltpg"}


class TestUsage:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_solve_requires_mode(self, game_file):
        with pytest.raises(SystemExit) as exc:
            run(["solve", game_file])
        assert exc.value.code == 2

    def test_bad_integer_list_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["bench", "--n", "3,x"])
        assert exc.value.code == 2
        assert "argument --n: bad integer list '3,x'" in capsys.readouterr().err
