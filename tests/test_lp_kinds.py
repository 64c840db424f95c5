"""Every LP the solvers run is one of the kinds the benchmark names.

``perfbench/spans.py`` names an LP's kind after the function that calls
``lp_core.maximize`` (``LP_KINDS``). A refactor that moves a ``maximize``
call into a helper would move its LPs to "lp.other" without any error, so
this test runs each solver on games that reach every kind and checks the
callers against that table.
"""

import collections
import importlib.util
import sys
from pathlib import Path

from polystack.apx_solver import solve_plfe_apx
from polystack.instance_gen import CnfFormula, clique_to_spg, random_oltpg, sat_to_pg_olfe
from polystack.olfe_solver import solve_olfe
from polystack.oracles import Graph
from polystack.plfe_exact import solve_plfe

from test_golden import _rounded_tree

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
LIVE_KINDS = {"_strict_eps_lp", "_emptiness", "_max_min", "_attainment", "_find_apx", "_profile_lp"}


def lp_kinds() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.LP_KINDS


def test_every_maximize_caller_is_a_named_kind(lp_calls, knife_edge_game):
    # knife edge: unattained supremum; rounded tree: tied rows, unattained;
    # clique P4: a star game; random_oltpg(5, 6, 1): the search bounds
    # prefixes and full profiles by the dual bound LP
    p4 = clique_to_spg(Graph(4, ((1, 2), (2, 3), (3, 4))))
    for game in (knife_edge_game, _rounded_tree(), p4, random_oltpg(5, 6, 1)):
        solve_plfe(game)
        solve_olfe(game)
        solve_plfe_apx(game)
    solve_olfe(sat_to_pg_olfe(CnfFormula(3, ((1, 2, 3), (-1, 2, 3), (1, -2, -3))), 0.01))
    callers = collections.Counter(name for name, _, _ in lp_calls)
    assert set(callers) <= set(lp_kinds()), callers
    assert set(callers) == LIVE_KINDS, callers
