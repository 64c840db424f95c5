"""Spans around the library's public entry points, recorded from outside.

`Tracer.install` swaps module attributes of polystack for timing wrappers
and `uninstall` puts the originals back, so untraced rounds run the
unmodified program. Spans stay in memory; the benchmark aggregates them per
round and writes one round of them out when it ends.

Every call of `lp_core.maximize` becomes a span whose kind is the name of
the solver function that called it. Simplex pivots are counted by wrapping
`lp_core._pivot`, which `maximize` looks up as a module global at each
call, so no line of `lp_core` changes.
"""

from __future__ import annotations

import math
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field

# solver function calling lp_core.maximize -> LP kind
LP_KINDS = {
    "_strict_eps_lp": "lp.prefilter",
    "_emptiness": "lp.interior",
    "_max_min": "lp.maxmin",
    "_attainment": "lp.attain",
    "_find_apx": "lp.find_apx",
    "_region_eps": "lp.olfe_region",
    "_profile_lp": "lp.olfe_profile",
}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    group: str  # benchmark operation group the span ran under
    round: int
    t0: float
    t1: float = 0.0
    attrs: dict = field(default_factory=dict)
    scaled: float = 0.0  # duration in reference seconds, see hostspeed

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    def as_json(self) -> dict:
        return {
            "id": self.sid,
            "parent": self.parent,
            "name": self.name,
            "group": self.group,
            "round": self.round,
            "start": self.t0,
            "end": self.t1,
            **self.attrs,
        }


def tableau_cells(c, A_ub, b_ub, A_eq) -> int:
    """Rows x columns of the tableau `maximize` builds for these arguments:
    one slack per inequality row, one artificial per equality row and per
    inequality row with a negative right-hand side, plus the rhs column."""
    n = len(c)
    n_ub = 0 if A_ub is None else len(A_ub)
    n_eq = 0 if A_eq is None else len(A_eq)
    flipped = 0 if n_ub == 0 else sum(1 for b in b_ub if b < 0)
    return (n_ub + n_eq) * (n + n_ub + n_eq + flipped + 1)


class Tracer:
    """Spans of one benchmark run; `group` and `round` are set by the
    benchmark before each operation and stamped on every span it opens."""

    def __init__(self):
        self.spans: list[Span] = []
        self.group = ""
        self.round = -1
        self.root: int | None = None  # the open operation span
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str, **attrs) -> Span:
        st = self._stack()
        with self._lock:
            sid = self._next
            self._next += 1
        parent = st[-1] if st else self.root
        span = Span(sid, parent, name, self.group, self.round, time.perf_counter(), attrs=attrs)
        st.append(sid)
        return span

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        self._stack().pop()
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn, after=None, before=None):
        def traced(*args, **kwargs):
            span = self.open(name, **(before(*args, **kwargs) if before else {}))
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(span)
            if after is not None:
                span.attrs.update(after(out))
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def _patch(self, module, attr: str, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        from polystack import (
            apx_solver,
            bayesian_bridge,
            cli,
            game_model,
            instance_gen,
            lp_core,
            oracles,
        )

        if self._saved:
            return
        local = self._local

        orig_pivot = lp_core._pivot

        def pivot(*args):
            local.pivots = getattr(local, "pivots", 0) + 1
            return orig_pivot(*args)

        self._patch(lp_core, "_pivot", pivot)

        orig_max = lp_core.maximize

        def maximize(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
            kind = LP_KINDS.get(sys._getframe(1).f_code.co_name, "lp.other")
            cells = tableau_cells(c, A_ub, b_ub, A_eq)
            before = getattr(local, "pivots", 0)
            span = self.open("lp_core.maximize", kind=kind, cells=cells)
            try:
                return orig_max(c, A_ub, b_ub, A_eq, b_eq)
            finally:
                self.close(span)
                span.attrs["pivots"] = getattr(local, "pivots", 0) - before

        self._patch(lp_core, "maximize", maximize)

        def survivors(res):
            return {"survivors": res.diagnostics["survivors"], "profiles": res.profiles_enumerated}

        self._patch(cli, "solve_plfe", self.wrap("plfe_exact.solve_plfe", cli.solve_plfe, survivors))
        self._patch(
            cli,
            "solve_olfe",
            self.wrap(
                "olfe_solver.solve_olfe",
                cli.solve_olfe,
                lambda r: {"inducible": r.diagnostics["inducible_profiles"]},
            ),
        )
        self._patch(cli, "solve_plfe_apx", self.wrap("apx_solver.solve_plfe_apx", cli.solve_plfe_apx))
        self._patch(apx_solver, "solve_plfe", self.wrap("apx_solver.subsolve", apx_solver.solve_plfe))
        self._patch(cli, "game_from_json_dict", self.wrap("cli.parse", cli.game_from_json_dict))
        self._patch(cli, "dumps_canonical", self.wrap("cli.emit", cli.dumps_canonical))

        def grid_points(game, k, mode="pessimistic"):
            m_n = game.num_actions(game.leader)
            return {"points": math.comb(k + m_n - 1, m_n - 1)}

        self._patch(oracles, "grid_oracle", self.wrap("oracles.grid_oracle", oracles.grid_oracle, before=grid_points))
        self._patch(oracles, "supremum_1d", self.wrap("oracles.supremum_1d", oracles.supremum_1d))
        evaluate = self.wrap("game_model.evaluate_commitment", game_model.evaluate_commitment)
        for mod in (game_model, oracles, cli, apx_solver):
            self._patch(mod, "evaluate_commitment", evaluate)
        for name in ("random_oltpg", "clique_to_spg", "sat_to_pg_olfe"):
            self._patch(instance_gen, name, self.wrap("instance_gen", getattr(instance_gen, name)))
        self._patch(
            bayesian_bridge,
            "bg_to_polymatrix",
            self.wrap("instance_gen", bayesian_bridge.bg_to_polymatrix),
        )

    def uninstall(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)


def _is_time(name: str) -> bool:
    return name.endswith(("_s", ".s"))


def layer_metrics(tracer: Tracer, rounds: list[int], scale) -> tuple[dict, bool]:
    """Per-layer metrics of the traced rounds: each time is the median over
    those rounds, with every span scaled by ``scale(start, end)`` like the
    end-to-end times; counts and ratios of counts must repeat exactly in
    every round, which the second value reports."""
    per_round = []
    for rnd in rounds:
        spans = [s for s in tracer.spans if s.round == rnd]
        for s in spans:
            s.scaled = s.dur * scale(s.t0, s.t1)
        per_round.append(_aggregate(spans))
    counts = [{k: v for k, v in r.items() if not _is_time(k)} for r in per_round]
    repeat = all(c == counts[0] for c in counts)
    return {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}, repeat


def _aggregate(spans) -> dict[str, float]:
    solve_groups = ("plfe", "olfe", "apx")
    m: dict[str, float] = {}
    lp = [s for s in spans if s.name == "lp_core.maximize" and s.group in solve_groups]
    m["lp_core.calls"] = len(lp)
    m["lp_core.s"] = sum(s.scaled for s in lp)
    m["lp_core.cells_mean"] = sum(s.attrs["cells"] for s in lp) / max(1, len(lp))
    m["lp_core.pivots"] = sum(s.attrs["pivots"] for s in lp)
    for kind in ("prefilter", "interior", "maxmin", "attain", "find_apx", "olfe_region", "olfe_profile"):
        mine = [s for s in lp if s.attrs["kind"] == f"lp.{kind}"]
        m[f"lp.{kind}.calls"] = len(mine)
        m[f"lp.{kind}.s"] = sum(s.scaled for s in mine)

    def total(name, group=None):
        return sum(s.scaled for s in spans if s.name == name and (group is None or s.group == group))

    def lp_time(group):
        return sum(s.scaled for s in lp if s.group == group)

    plfe = [s for s in spans if s.name == "plfe_exact.solve_plfe" and s.group == "plfe"]
    m["plfe_exact.self_s"] = sum(s.scaled for s in plfe) - lp_time("plfe")
    m["plfe.profiles"] = sum(s.attrs["profiles"] for s in plfe)
    m["plfe.survivors"] = sum(s.attrs["survivors"] for s in plfe)
    interior = sum(1 for s in lp if s.group == "plfe" and s.attrs["kind"] == "lp.interior")
    m["plfe.interior_yield"] = m["plfe.survivors"] / interior if interior else 0.0
    olfe = [s for s in spans if s.name == "olfe_solver.solve_olfe" and s.group == "olfe"]
    m["olfe_solver.self_s"] = sum(s.scaled for s in olfe) - lp_time("olfe")
    m["olfe.inducible"] = sum(s.attrs["inducible"] for s in olfe)
    region = sum(1 for s in lp if s.group == "olfe" and s.attrs["kind"] == "lp.olfe_region")
    m["olfe.region_yield"] = m["olfe.inducible"] / region if region else 0.0
    sub = total("apx_solver.subsolve", "apx")
    m["apx_solver.subsolve_s"] = sub
    m["apx_solver.self_s"] = total("apx_solver.solve_plfe_apx", "apx") - sub
    m["cli.parse_s"] = total("cli.parse")
    m["cli.emit_s"] = total("cli.emit")
    m["oracles.grid_s"] = total("oracles.grid_oracle")
    m["oracles.grid_points"] = sum(s.attrs["points"] for s in spans if s.name == "oracles.grid_oracle")
    m["oracles.sup1d_s"] = total("oracles.supremum_1d")
    evals = [s for s in spans if s.name == "game_model.evaluate_commitment"]
    m["game_model.eval_calls"] = len(evals)
    m["game_model.eval_s"] = sum(s.scaled for s in evals)
    return m
