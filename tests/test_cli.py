import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polystack.cli import dumps_canonical, run
from polystack.game_model import game_to_json_dict
from polystack.instance_gen import random_oltpg


@pytest.fixture
def game_file(tmp_path):
    path = tmp_path / "game.json"
    path.write_text(json.dumps(game_to_json_dict(random_oltpg(3, 3, 1))))
    return str(path)


def run_out(capsys, argv):
    code = run(argv)
    return code, capsys.readouterr().out


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

    def test_threads_byte_identical(self, capsys, game_file):
        _, a = run_out(capsys, ["solve", "--mode", "pessimistic", "--threads", "1", game_file])
        _, b = run_out(capsys, ["solve", "--mode", "pessimistic", "--threads", "4", game_file])
        assert a == b

    def test_repeat_byte_identical(self, capsys, game_file):
        _, a = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        _, b = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        assert a == b


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

    def test_complete_graph_rejected(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text('{"vertices": 3, "edges": [[1, 2], [2, 3], [1, 3]]}')
        assert run(["generate", "clique", "--graph", str(graph)]) == 1


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
        assert run(["convert", "--to", "bayesian", str(path)]) == 1


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


    def test_invalid_strategy_is_domain_error(self, capsys, game_file, tmp_path):
        _, solved = run_out(capsys, ["solve", "--mode", "pessimistic", game_file])
        data = json.loads(solved)
        for bad in ([1.5, -0.25, -0.25], ["a", "b", "c"]):
            data["strategy"] = bad
            res = tmp_path / "r.json"
            res.write_text(json.dumps(data))
            code = run(["verify", "--against", "grid", "--resolution", "4", game_file, str(res)])
            assert code == 1
            assert capsys.readouterr().err.startswith("error: invalid strategy:")


class TestBench:
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
