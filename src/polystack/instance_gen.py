"""Game generators: random benchmark trees, a clique-to-game reduction
with known equilibrium value, and two 3-SAT reductions whose leader value
separates satisfiable from unsatisfiable formulas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .game_model import PolymatrixGame
from .oracles import Graph

Literal = int  # signed variable index; positive sign = positive literal
Clause = tuple[Literal, Literal, Literal]


@dataclass(frozen=True)
class CnfFormula:
    """3-CNF formula. Clauses have exactly three literals; repeats allowed."""

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "clauses", tuple(tuple(int(l) for l in c) for c in self.clauses)
        )
        for c in self.clauses:
            if len(c) != 3:
                raise ValueError(f"clause {c} does not have exactly 3 literals")
            for lit in c:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range 1..{self.num_vars}")

    def satisfied_by(self, assignment: dict[int, bool]) -> bool:
        return all(
            any(assignment[abs(l)] == (l > 0) for l in c) for c in self.clauses
        )


def parse_dimacs(text: str) -> CnfFormula:
    """Simplified DIMACS: 'p cnf <vars> <clauses>' header, 'c' comments,
    clause lines of literals terminated by 0 (possibly spanning lines)."""
    num_vars = None
    tokens: list[int] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            num_vars = int(parts[2])
            continue
        tokens.extend(int(t) for t in line.split())
    if num_vars is None:
        raise ValueError("missing 'p cnf' header")
    clauses = []
    cur: list[int] = []
    for t in tokens:
        if t == 0:
            if cur:
                clauses.append(tuple(cur))
                cur = []
        else:
            cur.append(t)
    if cur:
        raise ValueError("last clause not terminated by 0")
    return CnfFormula(num_vars, tuple(clauses))


def dimacs_dumps(cnf: CnfFormula) -> str:
    lines = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    lines += [" ".join(str(l) for l in c) + " 0" for c in cnf.clauses]
    return "\n".join(lines) + "\n"


def is_satisfiable(cnf: CnfFormula) -> bool:
    """Exhaustive check, capped at 20 variables."""
    if cnf.num_vars > 20:
        raise ValueError("satisfiability check capped at 20 variables")
    for bits in itertools.product((False, True), repeat=cnf.num_vars):
        if cnf.satisfied_by({v: b for v, b in enumerate(bits, start=1)}):
            return True
    return False


def random_oltpg(
    n: int,
    m: int,
    seed: int,
    lo: float = 0.0,
    hi: float = 100.0,
    kind: str = "oltpg",
) -> PolymatrixGame:
    """One-level tree on n players (leader = n), m actions each, payoffs
    i.i.d. uniform on [lo, hi]. kind='spg' reuses one leader matrix across
    all edges so the output classifies as a star game."""
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 players and m >= 1 actions")
    if not np.isfinite([lo, hi, hi - lo]).all():
        raise ValueError("need finite lo, hi and hi - lo")
    if not lo < hi:
        raise ValueError("need lo < hi")
    if kind not in ("oltpg", "spg"):
        raise ValueError(f"unknown kind {kind!r}")
    rng = np.random.default_rng(seed)
    actions = {p: tuple(f"a{j}" for j in range(m)) for p in range(1, n + 1)}
    shared_leader = rng.uniform(lo, hi, (m, m)) if kind == "spg" else None
    edges = {}
    for p in range(1, n):
        follower_mat = rng.uniform(lo, hi, (m, m))
        leader_mat = shared_leader if kind == "spg" else rng.uniform(lo, hi, (m, m))
        edges[(p, n)] = (follower_mat, leader_mat)
    return PolymatrixGame(tuple(range(1, n + 1)), actions, n, edges)


def clique_to_spg(graph: Graph) -> PolymatrixGame:
    """Star game whose pessimistic leader value equals the maximum clique
    size of the graph: one follower per vertex with actions {a0, a1}, one
    leader action per vertex. A follower only accepts a1 when her own
    vertex gets enough probability and no non-neighbor does; the huge a0
    reward on non-edges (1 + r^2) enforces the clique structure.

    Complete graphs are rejected (their value equals the vertex count
    outright, so they carry no information)."""
    r = graph.vertices
    if r < 2:
        raise ValueError("need at least 2 vertices")
    if graph.is_complete():
        raise ValueError("complete graph rejected: maximum clique is the whole graph")
    edge_set = set(graph.edges)

    def connected(a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in edge_set

    n = r + 1
    actions = {p: ("a0", "a1") for p in range(1, r + 1)}
    actions[n] = tuple(f"v{i}" for i in range(1, r + 1))
    leader_mat = np.zeros((2, r))
    leader_mat[1, :] = 1.0
    edges = {}
    for p in range(1, r + 1):
        fol = np.zeros((2, r))
        for i in range(1, r + 1):
            # own vertex counts as "connected": a0 must not profit from it
            fol[0, i - 1] = 1.0 if (i == p or connected(p, i)) else 1.0 + r * r
        fol[1, p - 1] = float(r)
        edges[(p, n)] = (fol, leader_mat)
    return PolymatrixGame(tuple(range(1, n + 1)), actions, n, edges)


def sat_to_pg_olfe(cnf: CnfFormula, epsilon: float = 0.01) -> PolymatrixGame:
    """One follower per clause on a complete graph plus the leader.

    The leader's actions are the variables plus a dummy; committing more
    than 1/(r+1) probability to a variable reads as setting it true. A
    follower can profit from a literal action only when her clause is
    satisfied by that reading; otherwise the mutually-rewarding all-a0
    profile takes over and caps the optimistic leader value at epsilon
    instead of 1."""
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    s = len(cnf.clauses)
    if s < 3:
        raise ValueError("reduction requires at least 3 clauses")
    r = cnf.num_vars
    n = s + 1
    m_n = r + 1  # variables plus a_w
    actions = {p: ("a0", "a1", "a2", "a3") for p in range(1, s + 1)}
    actions[n] = tuple(f"v{i}" for i in range(1, r + 1)) + ("w",)

    edges = {}
    for p in range(1, s + 1):
        clause = cnf.clauses[p - 1]
        fol = np.zeros((4, m_n))
        for i, lit in enumerate(clause, start=1):
            v = abs(lit)
            if lit > 0:
                fol[i, v - 1] = r + 1.0
            else:
                fol[i, :] = (r + 1.0) / r
                fol[i, v - 1] = 0.0
        lead = np.full((4, m_n), 1.0 / s)
        lead[0, :] = epsilon / s
        edges[(p, n)] = (fol, lead)

    for p, q in itertools.combinations(range(1, s + 1), 2):
        mp = np.zeros((4, 4))
        mp[0, 1:] = 1.0 / (s - 1)
        mp[0, 0] = r + 1.0
        mq = np.zeros((4, 4))
        mq[1:, 0] = 1.0 / (s - 1)
        mq[0, 0] = r + 1.0
        edges[(p, q)] = (mp, mq)
    return PolymatrixGame(tuple(range(1, n + 1)), actions, n, edges)


def _clause_patterns(cnf: CnfFormula):
    """Actions of the pessimistic-reduction followers other than f: one per
    (clause, sign pattern over its three literal slots). Returns labels,
    signed-literal triples, and whether the pattern's assignment satisfies
    its clause (patterns assigning a repeated variable both ways count as
    not satisfying)."""
    labels, triples, satisfies = [], [], []
    for c, clause in enumerate(cnf.clauses, start=1):
        for bits in range(8):
            lits = tuple(
                abs(lit) if bits >> i & 1 else -abs(lit)
                for i, lit in enumerate(clause)
            )
            labels.append(f"phi{c}_" + "".join("pn"[l < 0] for l in lits))
            triples.append(lits)
            consistent = all(-l not in lits for l in lits)
            satisfies.append(consistent and any(l in lits for l in clause))
    return labels, triples, satisfies


def sat_to_pg_plfe(cnf: CnfFormula, epsilon: float = 0.01) -> PolymatrixGame:
    """Three followers plus the leader, leader actions = variables + dummy.

    Follower actions are sign patterns over each clause's literal slots
    plus an escape action f. The follower-follower payoffs force every
    equilibrium relevant to the pessimistic value to be a unanimous
    pattern, and the leader earns 1 on patterns that satisfy their clause
    versus epsilon on patterns that do not; a satisfiable formula lets the
    leader steer every unanimous equilibrium onto satisfying patterns."""
    if not 0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    r = cnf.num_vars
    s = len(cnf.clauses)
    if s < 1:
        raise ValueError("need at least one clause")
    labels, triples, satisfies = _clause_patterns(cnf)
    k = len(labels)  # 8s pattern actions; index k is f
    m_f = k + 1
    m_n = r + 1
    n = 4
    actions = {p: tuple(labels) + ("f",) for p in (1, 2, 3)}
    actions[n] = tuple(f"v{i}" for i in range(1, r + 1)) + ("w",)

    edges = {}
    for p in (1, 2, 3):
        fol = np.zeros((m_f, m_n))
        for a, lits in enumerate(triples):
            lit = lits[p - 1]  # this follower reads the p-th slot
            v = abs(lit)
            if lit > 0:
                fol[a, v - 1] = 1.0
            else:
                fol[a, :] = 1.0
                fol[a, v - 1] = 0.0
        lead = np.zeros((m_f, m_n))
        for a in range(k):
            lead[a, :] = 1.0 / 3 if satisfies[a] else epsilon / 3
        lead[k, :] = 1.0
        edges[(p, n)] = (fol, lead)

    low = 1.0 / (2 * (r + 1.0))
    high = r / (2 * (r + 1.0))
    for p, q in itertools.combinations((1, 2, 3), 2):
        mp = np.full((m_f, m_f), -1.0)  # p's payoff, indexed [a_p][a_q]
        mq = np.full((m_f, m_f), -1.0)  # q's payoff, same indexing
        np.fill_diagonal(mp, 0.0)
        np.fill_diagonal(mq, 0.0)
        for a, lits in enumerate(triples):
            # p plays f against q's pattern: reward keyed to p's slot sign
            mp[k, a] = low if lits[p - 1] > 0 else high
            # q plays her pattern against p's f
            mq[k, a] = low if lits[q - 1] > 0 else high
            mp[a, k] = 1.0
            mq[a, k] = 0.0
        mp[k, k] = 0.0
        mq[k, k] = 1.0
        edges[(p, q)] = (mp, mq)
    return PolymatrixGame(tuple(range(1, n + 1)), actions, n, edges)
