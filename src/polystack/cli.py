"""Command-line interface: validate/classify games, run the solvers,
convert Bayesian games, generate instances, verify results against the
brute-force oracles, and benchmark solver scaling.

All results are JSON on stdout (schema "polystack/1") with floats printed
at 17 significant digits so identical runs are byte-identical. Exit codes:
0 success, 1 domain error, 2 usage error. Commands raise on failure, and
``run`` alone turns the failure into exit 1 and one stderr line:
``error: <message>`` for a ``DomainError`` (bad input), a
``GameClassError`` or a ``NoPureCommitmentError``, and
``error: solver failure: <message>`` for a ``SolverFailure``. ``bench``
writes and flushes each CSV row as its grid point finishes, so a failure
mid-run leaves the header and the finished rows on stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import statistics
import sys
import time
import warnings

import numpy as np

from . import bayesian_bridge, instance_gen, oracles
from .apx_solver import solve_plfe_apx
from .game_model import (
    GameClassError,
    MixedStrategy,
    PolymatrixGame,
    enumerate_pure_ne,
    evaluate_commitment,
    game_from_json_dict,
    game_to_json_dict,
    json_number,
    payoff_violations,
    validate,
)
from .olfe_solver import NoPureCommitmentError, solve_olfe
from .plfe_exact import LfeResult, SolverFailure, solve_plfe

SCHEMA = "polystack/1"
MODES = ("pessimistic", "optimistic", "apx", "pure-olfe")
THREADS_HELP = "accepted for compatibility; solves run on one thread"


class DomainError(RuntimeError):
    pass


# -- deterministic JSON --------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        if not np.isfinite(x):
            raise ValueError("non-finite number in output")
        return format(float(x), ".17g")
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    if isinstance(x, dict):
        items = sorted(x.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(f"{json.dumps(str(k))}:{_fmt(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(x, (list, tuple, np.ndarray)):
        return "[" + ",".join(_fmt(v) for v in x) + "]"
    raise TypeError(f"cannot serialize {type(x)!r}")


def dumps_canonical(obj) -> str:
    return _fmt(obj)


def _emit(obj) -> None:
    sys.stdout.write(dumps_canonical(obj) + "\n")


# -- input helpers -------------------------------------------------------


def _read_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DomainError(f"malformed JSON in {path}: {exc}") from exc


def _load_game(path: str) -> tuple[PolymatrixGame, dict | None]:
    try:
        return game_from_json_dict(_read_json(path))
    except ValueError as exc:
        raise DomainError(f"bad game file {path}: {exc}") from exc


def _load_solvable_game(path: str) -> PolymatrixGame:
    """A game whose payoff matrices have the right shapes and finite entries."""
    game, _ = _load_game(path)
    violations = payoff_violations(game)
    if violations:
        raise DomainError(f"bad game file {path}: {'; '.join(violations)}")
    return game


def _check_time_limit(time_limit: float | None) -> None:
    if time_limit is not None and not time_limit >= 0:
        raise DomainError(f"--time-limit must be a non-negative number, got {time_limit!r}")


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise DomainError(f"--threads must be at least 1, got {threads}")


def _checked_strategy(probs, game: PolymatrixGame) -> MixedStrategy:
    try:
        if not isinstance(probs, list):
            raise ValueError(f"expected a list of numbers, got {probs!r}")
        s = MixedStrategy(
            game.leader, np.array([json_number(x, "strategy entry") for x in probs], dtype=float)
        )
        s.validate(game.num_actions(game.leader))
    except ValueError as exc:
        raise DomainError(f"invalid strategy: {exc}") from exc
    return s


def _load_strategy(path: str, game: PolymatrixGame) -> MixedStrategy:
    data = _read_json(path)
    if isinstance(data, dict):
        data = data.get("strategy", data.get("probs"))
    if not isinstance(data, list):
        raise DomainError(f"{path}: expected a probability list or a solve output")
    return _checked_strategy(data, game)


def _profile_pairs(profile: dict[int, int]) -> list[list[int]]:
    return [[p, a] for p, a in sorted(profile.items())]


def _result_json(mode: str, res: LfeResult) -> dict:
    return {
        "schema": SCHEMA,
        "mode": mode,
        "value": res.value,
        "strategy": list(res.strategy.probs),
        "profile": _profile_pairs(res.profile),
        "attained": res.attained,
        "alpha": res.alpha,
        "anytime_complete": res.anytime_complete,
        "profiles_enumerated": res.profiles_enumerated,
    }


# -- subcommands ---------------------------------------------------------


def _cmd_validate(args) -> int:
    game, renum = _load_game(args.game)
    report = validate(game)
    _emit(
        {
            "schema": SCHEMA,
            "class": report.game_class.value,
            "violations": report.violations,
            "renumbering": None if renum is None else {str(k): v for k, v in renum.items()},
        }
    )
    return 0


def _cmd_classify(args) -> int:
    game, _ = _load_game(args.game)
    _emit({"schema": SCHEMA, "class": validate(game).game_class.value})
    return 0


def _cmd_solve(args) -> int:
    game = _load_solvable_game(args.game)
    if args.mode in ("pessimistic", "apx") and not 0 < args.alpha < float("inf"):
        raise DomainError(f"alpha must be positive and finite, got {args.alpha!r}")
    _check_time_limit(args.time_limit)
    _check_threads(args.threads)
    if args.mode == "pessimistic":
        out = _result_json(args.mode, solve_plfe(game, alpha=args.alpha, time_limit=args.time_limit))
    elif args.mode in ("optimistic", "pure-olfe"):
        if args.mode == "optimistic" and not game.is_one_level_tree():
            raise DomainError("mode optimistic requires a one-level tree game; use pure-olfe")
        out = _result_json(args.mode, solve_olfe(game, time_limit=args.time_limit))
    else:  # apx
        report = solve_plfe_apx(game, alpha=args.alpha)
        out = _result_json(args.mode, report.result)
        out["subgame_value"] = report.subgame_value
        out["best_follower"] = report.best_follower
        out["certified_lower_bound"] = report.certified_lower_bound
        out["guarantee_valid"] = report.guarantee_valid
    _emit(out)
    return 0


def _cmd_eval(args) -> int:
    game = _load_solvable_game(args.game)
    s = _load_strategy(args.strategy, game)
    value, profile = evaluate_commitment(game, s, args.mode)
    _emit(
        {
            "schema": SCHEMA,
            "mode": args.mode,
            "value": value,
            "profile": _profile_pairs(profile),
        }
    )
    return 0


def _cmd_convert(args) -> int:
    try:
        if args.to == "polymatrix":
            bg = bayesian_bridge.bg_from_json_dict(_read_json(args.input))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                game = bayesian_bridge.bg_to_polymatrix(bg)
            sys.stderr.write("".join(f"warning: {w.message}\n" for w in caught))
            _emit(game_to_json_dict(game))
        else:
            bg = bayesian_bridge.polymatrix_to_bg(_load_solvable_game(args.input))
            _emit(bayesian_bridge.bg_to_json_dict(bg))
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    return 0


def _cmd_generate(args) -> int:
    try:
        if args.what == "random":
            game = instance_gen.random_oltpg(
                args.players, args.actions, args.seed, args.lo, args.hi, args.kind
            )
        elif args.what == "clique":
            graph = oracles.graph_from_json_dict(_read_json(args.graph))
            game = instance_gen.clique_to_spg(graph)
        else:
            with open(args.cnf) as fh:
                cnf = instance_gen.parse_dimacs(fh.read())
            if args.what == "sat-olfe":
                game = instance_gen.sat_to_pg_olfe(cnf, args.epsilon)
            else:
                game = instance_gen.sat_to_pg_plfe(cnf, args.epsilon)
    except OSError as exc:
        raise DomainError(f"cannot read input: {exc}") from exc
    except ValueError as exc:
        raise DomainError(str(exc)) from exc
    _emit(game_to_json_dict(game))
    return 0


def _cmd_verify(args) -> int:
    game = _load_solvable_game(args.game)
    result = _read_json(args.result)
    if not isinstance(result, dict):
        raise DomainError("result file is not a solve output: expected a JSON object")
    try:
        mode, value, strategy = result["mode"], result["value"], result["strategy"]
    except KeyError as exc:
        raise DomainError(f"result file is not a solve output: missing {exc}") from exc
    try:
        value = json_number(value, "value")
    except ValueError as exc:
        raise DomainError(f"result file {exc}") from exc
    if mode not in MODES:
        raise DomainError(f"result file has an unknown mode {mode!r}")
    eval_mode = "optimistic" if mode in ("optimistic", "pure-olfe") else "pessimistic"
    checks = []

    s = _checked_strategy(strategy, game)
    attained = result.get("attained", True)
    if not isinstance(attained, bool):
        raise DomainError(f"result file has a non-boolean attained: {attained!r}")
    try:
        slack = 0.0 if attained else json_number(result.get("alpha", 0.0), "alpha")
    except ValueError as exc:
        raise DomainError(f"result file {exc}") from exc
    if not attained and not 0 < slack < float("inf"):
        raise DomainError(f"result file alpha must be positive and finite, got {slack!r}")
    if game.is_one_level_tree():
        got, _ = evaluate_commitment(game, s, eval_mode)
    else:
        # the leader's payoff at the best (optimistic) or worst pure equilibrium
        try:
            profiles = enumerate_pure_ne(game, s, 1e-7)
        except ValueError as exc:
            raise DomainError(str(exc)) from exc
        vals = [oracles._leader_utility(game, s.probs, a) for a in profiles]
        got = (max if eval_mode == "optimistic" else min)(vals, default=None)
    good = got is not None and got >= value - slack - 1e-7
    checks.append({"check": "strategy_reevaluates", "ok": good, "evaluated": got})

    if args.against == "grid" and mode == "apx" and any(
        (game.leader_edge(p)[1] < 0).any() for p in game.followers
    ):
        # a negative leader payoff voids the approximation guarantee, the
        # only bound the grid could check
        checks.append({"check": "grid_apx_ratio", "ok": True, "guarantee_valid": False})
    elif args.against == "grid":
        try:
            grid = oracles.grid_oracle(game, args.resolution, eval_mode)
        except ValueError as exc:
            raise DomainError(str(exc)) from exc
        if mode == "apx":
            # the grid value bounds only the optimum OPT, and with k
            # followers an approximation's value v promises OPT <= k * v
            k = len(game.followers)
            good = grid.value <= k * (value + slack) + 1e-6
            check = {"check": "grid_apx_ratio", "ok": good, "followers": k}
        else:
            good = grid.value <= value + 1e-6
            check = {"check": "grid_lower_bound", "ok": good}
        checks.append(dict(check, grid_value=grid.value, skipped_points=grid.skipped))
    else:
        try:
            sup, attained = oracles.supremum_1d(game)
        except ValueError as exc:
            raise DomainError(str(exc)) from exc
        # the oracle's pessimistic supremum bounds an optimistic value from
        # below and an approximation's from above
        if mode == "pessimistic":
            good = abs(sup - value) <= 1e-6
        elif mode == "apx":
            good = value <= sup + 1e-6
        else:
            good = sup <= value + 1e-6
        checks.append(
            {"check": "supremum_1d", "ok": good, "oracle_value": sup, "oracle_attained": attained}
        )

    ok = all(check["ok"] for check in checks)
    _emit({"schema": SCHEMA, "ok": ok, "checks": checks})
    return 0 if ok else 1


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _cmd_bench(args) -> int:
    if args.seeds < 1:
        raise DomainError(f"--seeds must be at least 1, got {args.seeds}")
    if any(n < 2 for n in args.n) or any(m < 1 for m in args.m):
        raise DomainError("--n needs at least 2 players and --m at least 1 action")
    _check_time_limit(args.time_limit)
    _check_threads(args.threads)
    sys.stdout.write("n,m,mean_seconds,std_seconds,timeouts,profiles_enumerated\n")
    for n in args.n:
        for m in args.m:
            times = []
            timeouts = 0
            profiles = 0
            for seed in range(args.seeds):
                game = instance_gen.random_oltpg(n, m, seed)
                t0 = time.perf_counter()
                res = solve_plfe(game, time_limit=args.time_limit)
                times.append(time.perf_counter() - t0)
                if not res.anytime_complete:
                    timeouts += 1
                profiles = max(profiles, res.profiles_enumerated)
            mean = statistics.fmean(times)
            std = statistics.stdev(times) if len(times) > 1 else 0.0
            sys.stdout.write(
                f"{n},{m},{mean:.6f},{std:.6f},{timeouts},{profiles}\n"
            )
            sys.stdout.flush()
    return 0


# -- argument parsing ----------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads exponent forms such as -1e3 as negative numbers too, not only
    -5 and -0.5: no option of this CLI looks like a number."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="polystack",
        description="Leader-follower equilibrium solvers for polymatrix games.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate and classify a game file")
    p.add_argument("game")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("classify", help="print the game class only")
    p.add_argument("game")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("solve", help="compute an equilibrium")
    p.add_argument("--mode", required=True, choices=MODES)
    p.add_argument("--alpha", type=float, default=1e-6)
    p.add_argument(
        "--time-limit",
        type=float,
        default=None,
        help="seconds after which the pessimistic and optimistic searches stop "
        "and report the best profile found so far; does not apply to apx",
    )
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.add_argument("game")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="evaluate a committed strategy exactly")
    p.add_argument("--strategy", required=True)
    p.add_argument("--mode", required=True, choices=["pessimistic", "optimistic"])
    p.add_argument("game")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("convert", help="convert between Bayesian and polymatrix form")
    p.add_argument("--to", required=True, choices=["polymatrix", "bayesian"])
    p.add_argument("input")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("generate", help="generate an instance on stdout")
    gsub = p.add_subparsers(dest="what", required=True)
    g = gsub.add_parser("random")
    g.add_argument("--players", type=int, required=True)
    g.add_argument("--actions", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--lo", type=float, default=0.0)
    g.add_argument("--hi", type=float, default=100.0)
    g.add_argument("--kind", choices=["oltpg", "spg"], default="oltpg")
    g.set_defaults(func=_cmd_generate)
    g = gsub.add_parser("clique")
    g.add_argument("--graph", required=True)
    g.set_defaults(func=_cmd_generate)
    for name in ("sat-olfe", "sat-plfe"):
        g = gsub.add_parser(name)
        g.add_argument("--cnf", required=True)
        g.add_argument("--epsilon", type=float, default=0.01)
        g.set_defaults(func=_cmd_generate)

    p = sub.add_parser("verify", help="cross-check a solve output against an oracle")
    p.add_argument("--against", required=True, choices=["grid", "1d"])
    p.add_argument("--resolution", type=int, default=8)
    p.add_argument("game")
    p.add_argument("result", help="solve output; a huge finite alpha is a valid but vacuous claim")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="runtime scaling benchmark, CSV on stdout")
    p.add_argument("--n", type=_parse_int_list, default=[3, 4, 5, 6])
    p.add_argument("--m", type=_parse_int_list, default=list(range(2, 13)))
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--time-limit", type=float, default=60.0, help="time limit of each solve in seconds")
    p.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p.set_defaults(func=_cmd_bench)
    return ap


_parser = functools.cache(build_parser)  # built on the first run, then reused


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, GameClassError, NoPureCommitmentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except SolverFailure as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
    return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
