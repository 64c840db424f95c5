"""One-line digest of every LP and every ``solve`` output on a fixed game set.

Run from the repository root with ``PYTHONPATH=src python tests/lp_digest.py``.
It prints the number of games, the number of ``lp_core.maximize`` calls
with their count per calling function (the LP kinds of ``test_lp_kinds``)
and per solve mode, so a change shows which solver it moved,
the number of simplex pivots, the number of tableau cells those pivots
update (the sum of ``T.size`` over every pivot), the number of calls that
run phase 1 (those with an equality row or a negative right-hand side,
whose slack basis is not feasible), a sha256 over every
call's inputs, status, ``x`` bytes and ``repr`` of its objective, and a
sha256 over every ``solve`` exit code, stdout and stderr. Pivots and cells
are counted by wrapping ``lp_core._pivot``, as ``perfbench/spans.py`` does.
A change meant to keep every LP and every output bit-for-bit prints the
same line before and after, save ``cells`` when it narrows or widens the
tableau. A change that skips LPs, such as a tighter search, moves
``calls`` and ``lp``, and one that starts LPs nearer their optimum moves
``pivots`` and ``phase1``, but neither may move ``cli``; ``test_lp_digest``
pins it. The games: ``random_oltpg`` n 3-5 x m 2-4 x seeds 0-2 in both
kinds, in all four tree modes; every game of ``test_golden`` in its stored
modes; and ``pure-olfe`` on ``test_plfe_exact._general_game(0..5)``. pytest
does not collect this file.
"""

import collections
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from polystack import lp_core
from polystack.game_model import game_to_json_dict
from polystack.instance_gen import random_oltpg

from test_golden import TREE_MODES, _run, cases
from test_plfe_exact import _general_game


def games():
    """(game, modes) of every solve the digest covers."""
    for kind in ("oltpg", "spg"):
        for n in range(3, 6):
            for m in range(2, 5):
                for seed in range(3):
                    yield random_oltpg(n, m, seed, kind=kind), TREE_MODES
    for _, game, modes in cases():
        yield game, modes
    for seed in range(6):
        yield _general_game(seed), ("pure-olfe",)


def _arg_bytes(a) -> bytes:
    if a is None:
        return b"none;"
    a = np.asarray(a, dtype=float)
    return repr(a.shape).encode() + a.tobytes() + b";"


def digest():
    """(number of games, ``maximize`` calls per calling function, sha256 hex
    of every LP, sha256 hex of every ``solve`` output, number of pivots,
    number of tableau cells the pivots update, number of calls that run
    phase 1, ``maximize`` calls per solve mode) over ``games()``."""
    lp_hash, cli_hash = hashlib.sha256(), hashlib.sha256()
    callers, per_mode = collections.Counter(), collections.Counter()
    maximize, pivot = lp_core.maximize, lp_core._pivot
    pivots = cells = phase1 = 0

    def counted(*args):
        nonlocal pivots, cells
        pivots += 1
        cells += args[0].size
        pivot(*args)

    def recorded(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
        nonlocal phase1
        callers[sys._getframe(1).f_code.co_name] += 1
        per_mode[mode] += 1
        if (A_eq is not None and len(A_eq)) or (b_ub is not None and (np.asarray(b_ub) < 0).any()):
            phase1 += 1
        res = maximize(c, A_ub, b_ub, A_eq, b_eq)
        for a in (c, A_ub, b_ub, A_eq, b_eq):
            lp_hash.update(_arg_bytes(a))
        x = b"none" if res.x is None else res.x.tobytes()
        lp_hash.update(f"{res.status.value};{res.objective!r};".encode() + x + b"|")
        return res

    lp_core.maximize, lp_core._pivot = recorded, counted
    count = 0
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "game.json"
            for game, modes in games():
                count += 1
                path.write_text(json.dumps(game_to_json_dict(game)))
                for mode in modes:
                    code, out, err = _run(["solve", "--mode", mode, str(path)])
                    cli_hash.update(f"{code}\0{out}\0{err}\0".encode())
    finally:
        lp_core.maximize, lp_core._pivot = maximize, pivot
    return count, callers, lp_hash.hexdigest(), cli_hash.hexdigest(), pivots, cells, phase1, per_mode


def main():
    count, callers, lp, cli, pivots, cells, phase1, per_mode = digest()
    kinds = " ".join(f"{name}={n}" for name, n in sorted(callers.items()))
    modes = " ".join(f"{name}={n}" for name, n in sorted(per_mode.items()))
    print(
        f"games {count} calls {sum(callers.values())} ({kinds}) modes ({modes}) pivots {pivots}"
        f" cells {cells} phase1 {phase1} lp {lp} cli {cli}"
    )


if __name__ == "__main__":
    main()
