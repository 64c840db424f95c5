"""The DOBSS mixed-integer program as an independent oracle on one-level trees.

By the paper's equivalence a one-level tree is a Bayesian leadership game
with one type per follower, and the big-M MILP of DOBSS (Paruchuri et al.,
AAMAS 2008) gives its optimistic value exactly. On trees where no
follower has two actions with equal payoff rows on her leader edge, it is
the pessimistic supremum too. It bounds OLFE only from above when some
inducible region has measure zero, so it runs on random trees alone.
"""

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

from polystack.instance_gen import random_oltpg
from polystack.olfe_solver import solve_olfe
from polystack.plfe_exact import solve_plfe


def dobss_value(game):
    """Optimal value of the DOBSS MILP. Columns: the commitment s, then per
    follower p its leader value v_p and its own value a_p, then a binary
    q_pa per (follower, action) with sum_a q_pa = 1. For each action a:
    v_p <= L_p[a] s + M (1 - q_pa) and F_p[a] s <= a_p <= F_p[a] s + M (1 - q_pa),
    with F_p and L_p the follower's and the leader's payoffs on p's edge."""
    followers = game.followers
    m_n = game.num_actions(game.leader)
    nf = len(followers)
    edges = [game.leader_edge(p) for p in followers]
    big = 1.0 + max(np.ptp(X) for edge in edges for X in edge)
    ncols = m_n + 2 * nf + sum(len(F) for F, _ in edges)
    rows, lo, hi = [], [], []

    def add(entries, low, high):
        row = np.zeros(ncols)
        for cols, values in entries:
            row[cols] = values
        rows.append(row)
        lo.append(low)
        hi.append(high)

    add([(slice(0, m_n), 1.0)], 1.0, 1.0)
    q = m_n + 2 * nf
    for i, (F, L) in enumerate(edges):
        v, a_p = m_n + i, m_n + nf + i
        add([(slice(q, q + len(F)), 1.0)], 1.0, 1.0)
        for a in range(len(F)):
            add([(v, 1.0), (slice(0, m_n), -L[a]), (q + a, big)], -np.inf, big)
            add([(a_p, 1.0), (slice(0, m_n), -F[a])], 0.0, np.inf)
            add([(a_p, 1.0), (slice(0, m_n), -F[a]), (q + a, big)], -np.inf, big)
        q += len(F)
    c = np.zeros(ncols)
    c[m_n : m_n + nf] = -1.0
    integrality = np.zeros(ncols)
    integrality[m_n + 2 * nf :] = 1
    lb, ub = np.zeros(ncols), np.ones(ncols)
    lb[m_n : m_n + 2 * nf], ub[m_n : m_n + 2 * nf] = -np.inf, np.inf
    res = milp(
        c,
        constraints=LinearConstraint(np.array(rows), lo, hi),
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0, res.message
    return -res.fun


@pytest.mark.parametrize("n,m,seed", [(4, 6, 0), (5, 6, 0), (5, 6, 1), (6, 4, 0), (7, 4, 0)])
def test_solvers_match_dobss_milp(n, m, seed):
    game = random_oltpg(n, m, seed)
    want = dobss_value(game)
    assert solve_olfe(game).value == pytest.approx(want, abs=1e-7)
    assert solve_plfe(game).value == pytest.approx(want, abs=1e-7)
