"""Independent checks of `solve` and `verify` outputs.

The checker reads the same game files the CLI reads and uses only its own
numpy code and scipy's HiGHS LP solver. It imports nothing from polystack,
so a fault in the solvers, in `evaluate_commitment` or in the oracles
cannot also hide itself here. Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import itertools

import numpy as np

SCHEMA = "polystack/1"
BR_TOL = 1e-9  # a follower is indifferent between actions this close
VALUE_TOL = 1e-6  # relative agreement asked of two computed values
# relative gap between a reported value and its own strategy's value that
# still counts as attaining it; the solve outputs checked here use an alpha
# far above this, so an unattained supremum stays distinguishable
ATTAIN_TOL = 1e-8
INTERIOR_TOL = 1e-9  # a region with a smaller margin has empty interior

# fixed commitments every value must beat: the simplex vertices, its
# barycentre and 32 points drawn once from a fixed generator
_SAMPLE_RNG_SEED = 20180730
_SAMPLE_COUNT = 32


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= VALUE_TOL * max(1.0, abs(a), abs(b))


class Game:
    """A game file as plain arrays: follower payoffs F[p] and leader payoffs
    L[p], both [follower action][leader action], plus follower-follower
    payoffs ff[(p, q)] indexed [action of p][action of q]."""

    def __init__(self, data: dict):
        self.leader = int(data["leader"])
        self.m = {int(pl["id"]): len(pl["actions"]) for pl in data["players"]}
        self.followers = sorted(p for p in self.m if p != self.leader)
        self.m_n = self.m[self.leader]
        self.F, self.L, self.ff = {}, {}, {}
        for e in data["edges"]:
            p, q = int(e["p"]), int(e["q"])
            a = np.array(e["payoff_p"], dtype=float)
            b = np.array(e["payoff_q"], dtype=float)
            if q == self.leader:
                self.F[p], self.L[p] = a, b
            elif p == self.leader:
                self.F[q], self.L[q] = b.T, a.T
            else:
                self.ff[(p, q)] = a
                self.ff[(q, p)] = b.T
        for p in self.followers:
            self.F.setdefault(p, np.zeros((self.m[p], self.m_n)))
            self.L.setdefault(p, np.zeros((self.m[p], self.m_n)))
        self.tree = not self.ff
        self.profiles = int(np.prod([self.m[p] for p in self.followers]))

    # -- evaluation of one commitment ------------------------------------

    def tree_value(self, s: np.ndarray, mode: str) -> float:
        total = 0.0
        for p in self.followers:
            u = self.F[p] @ s
            lv = (self.L[p] @ s)[u >= u.max() - BR_TOL]
            total += float(lv.min() if mode == "pessimistic" else lv.max())
        return total

    def general_value(self, s: np.ndarray, mode: str) -> float | None:
        """Worst or best leader value over the pure follower equilibria at
        s; None when there is none."""
        fs = self.followers
        shape = tuple(self.m[p] for p in fs)
        nf = len(fs)
        ne = np.ones(shape, dtype=bool)
        lead = np.zeros(shape)
        for k, p in enumerate(fs):
            axis = [1] * nf
            axis[k] = self.m[p]
            util = np.broadcast_to((self.F[p] @ s).reshape(axis), shape).copy()
            lead = lead + (self.L[p] @ s).reshape(axis)
            for j, q in enumerate(fs):
                if (p, q) in self.ff:
                    mat = self.ff[(p, q)]
                    ax = [1] * nf
                    ax[k], ax[j] = self.m[p], self.m[q]
                    util = util + (mat if k < j else mat.T).reshape(ax)
            ne &= util >= util.max(axis=k, keepdims=True) - BR_TOL
        if not ne.any():
            return None
        vals = lead[ne]
        return float(vals.min() if mode == "pessimistic" else vals.max())

    def value_at(self, s: np.ndarray, mode: str) -> float | None:
        return self.tree_value(s, mode) if self.tree else self.general_value(s, mode)

    def samples(self) -> list[np.ndarray]:
        pts = list(np.eye(self.m_n))
        pts.append(np.full(self.m_n, 1.0 / self.m_n))
        rng = np.random.default_rng(_SAMPLE_RNG_SEED)
        pts.extend(rng.dirichlet(np.ones(self.m_n), size=_SAMPLE_COUNT))
        return pts

    # -- reference values by HiGHS ---------------------------------------

    def _nontied(self, p: int, a: int) -> list[int]:
        F = self.F[p]
        return [b for b in range(self.m[p]) if not np.array_equal(F[a], F[b])]

    def _tied(self, p: int, a: int) -> list[int]:
        F = self.F[p]
        return [b for b in range(self.m[p]) if np.array_equal(F[a], F[b])]

    def _margins(self, p: int, a: int) -> np.ndarray:
        nt = self._nontied(p, a)
        return self.F[p][a] - self.F[p][nt] if nt else np.zeros((0, self.m_n))

    def _interior(self, D: np.ndarray) -> float:
        """max eps s.t. D s >= eps, s on the simplex, eps <= 1."""
        from scipy.optimize import linprog

        if D.shape[0] == 0:
            return 1.0
        k, mn = D.shape
        c = np.zeros(mn + 1)
        c[-1] = -1.0
        res = linprog(
            c,
            A_ub=np.hstack([-D, np.ones((k, 1))]),
            b_ub=np.zeros(k),
            A_eq=np.append(np.ones(mn), 0.0)[None, :],
            b_eq=[1.0],
            bounds=[(0, None)] * mn + [(None, 1.0)],
            method="highs",
        )
        if res.status != 0:
            raise RuntimeError(f"HiGHS interior LP: {res.message}")
        return -float(res.fun)

    def _maxmin(self, combo, D: np.ndarray) -> float | None:
        """sup of the pessimistic value over the closed region of a profile;
        None when even the closed region is empty."""
        from scipy.optimize import linprog

        mn, fs = self.m_n, self.followers
        nf = len(fs)
        rows, rhs = [], []
        for i, (p, a) in enumerate(zip(fs, combo)):
            for b in self._tied(p, a):
                row = np.zeros(mn + nf)
                row[:mn] = -self.L[p][b]
                row[mn + i] = 1.0
                rows.append(row)
                rhs.append(0.0)
        for d in D:
            rows.append(np.append(-d, np.zeros(nf)))
            rhs.append(0.0)
        c = np.append(np.zeros(mn), -np.ones(nf))
        res = linprog(
            c,
            A_ub=np.array(rows),
            b_ub=np.array(rhs),
            A_eq=np.append(np.ones(mn), np.zeros(nf))[None, :],
            b_eq=[1.0],
            bounds=[(0, None)] * mn + [(None, None)] * nf,
            method="highs",
        )
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"HiGHS max-min LP: {res.message}")
        return -float(res.fun)

    def _optimistic(self, combo, D: np.ndarray) -> float | None:
        from scipy.optimize import linprog

        mn = self.m_n
        c = -sum(self.L[p][a] for p, a in zip(self.followers, combo))
        res = linprog(
            c,
            A_ub=-D if D.shape[0] else None,
            b_ub=np.zeros(D.shape[0]) if D.shape[0] else None,
            A_eq=np.ones((1, mn)),
            b_eq=[1.0],
            bounds=[(0, None)] * mn,
            method="highs",
        )
        if res.status == 2:
            return None
        if res.status != 0:
            raise RuntimeError(f"HiGHS optimistic LP: {res.message}")
        return -float(res.fun)

    def reference_values(self) -> tuple[float, float]:
        """(PLFE, OLFE) of a one-level tree, recomputed over every follower
        profile whose best-response region has nonempty interior."""
        fs = self.followers
        margins = {(p, a): self._margins(p, a) for p in fs for a in range(self.m[p])}
        ok = {key: self._interior(D) > INTERIOR_TOL for key, D in margins.items()}
        cands = []
        for combo in itertools.product(*[range(self.m[p]) for p in fs]):
            if all(ok[(p, a)] for p, a in zip(fs, combo)):
                D = np.vstack([margins[(p, a)] for p, a in zip(fs, combo)])
                cands.append((combo, D))
        interior = {}

        def survives(combo, D) -> bool:
            if combo not in interior:
                interior[combo] = len(fs) == 1 or self._interior(D) > INTERIOR_TOL
            return interior[combo]

        def best(lp):
            # highest value first; the first profile whose region has an
            # interior gives the optimum over all such profiles
            values = [(lp(combo, D), combo, D) for combo, D in cands]
            for v, combo, D in sorted((t for t in values if t[0] is not None), key=lambda t: -t[0]):
                if survives(combo, D):
                    return v
            raise RuntimeError("no profile has a full-dimensional region")

        return best(self._maxmin), best(self._optimistic)


# -- checks of single outputs ---------------------------------------------


def check_solve(game: Game, mode: str, out: dict) -> list[str]:
    """Problems with one `solve` output, judged from the game alone."""
    bad = []
    try:
        value = float(out["value"])
        s = np.array(out["strategy"], dtype=float)
        attained = out["attained"]
        alpha = float(out["alpha"])
        if out["schema"] != SCHEMA or out["mode"] != mode:
            bad.append(f"schema/mode {out['schema']!r}/{out['mode']!r}")
        profile = {int(p): int(a) for p, a in out["profile"]}
        enumerated = out["profiles_enumerated"]
        complete = out["anytime_complete"]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]
    if s.shape != (game.m_n,) or (s < -1e-12).any() or abs(s.sum() - 1.0) > 1e-9:
        return bad + [f"strategy is not a distribution over {game.m_n} actions"]
    if complete is not True:
        bad.append("anytime_complete is not true without a time limit")
    if sorted(profile) != game.followers or any(
        not 0 <= a < game.m[p] for p, a in profile.items()
    ):
        bad.append(f"profile {out['profile']} does not name one action per follower")
    # apx enumerates only the chosen follower's single-follower subgame
    want = game.m.get(out.get("best_follower")) if mode == "apx" else game.profiles
    if enumerated != want:
        bad.append(f"profiles_enumerated {enumerated} != {want}")

    eval_mode = "optimistic" if mode in ("optimistic", "pure-olfe") else "pessimistic"
    got = game.value_at(s, eval_mode)
    if got is None:
        bad.append("the strategy induces no pure follower equilibrium")
    elif attained is True:
        if abs(got - value) > ATTAIN_TOL * max(1.0, abs(value)):
            bad.append(f"strategy evaluates to {got!r}, reported value {value!r}")
    elif attained is False and mode == "pessimistic":
        tol = ATTAIN_TOL * max(1.0, abs(value))
        if got < value - alpha - tol:
            bad.append(f"strategy evaluates to {got!r}, below value - alpha = {value - alpha!r}")
        elif got > value - tol:
            bad.append(f"strategy attains {got!r}, yet the value {value!r} is reported unattained")
    else:
        bad.append(f"attained flag {attained!r}")

    if mode != "apx":
        for pt in game.samples():
            v = game.value_at(pt, eval_mode)
            if v is not None and v > value + VALUE_TOL * max(1.0, abs(v)):
                bad.append(f"sampled commitment reaches {v!r} > value {value!r}")
                break
    return bad


def check_verify(out: dict) -> list[str]:
    try:
        ok = out["ok"]
        checks = out["checks"]
    except (KeyError, TypeError) as exc:
        return [f"malformed verify output: {exc!r}"]
    if ok is not True or not checks or any(c.get("ok") is not True for c in checks):
        return [f"verify rejected the solve output: {checks}"]
    return []


# -- checks across the outputs of one game ----------------------------------


def check_plfe_olfe(plfe: dict, olfe: dict) -> list[str]:
    if plfe["value"] > olfe["value"] + VALUE_TOL * max(1.0, abs(olfe["value"])):
        return [f"PLFE {plfe['value']!r} > OLFE {olfe['value']!r}"]
    return []


def check_apx(game: Game, plfe: dict, apx: dict) -> list[str]:
    v, a, alpha = plfe["value"], apx["value"], apx["alpha"]
    nf = len(game.followers)
    slack = VALUE_TOL * max(1.0, abs(v))
    if a > v + slack or a < v / nf - alpha - slack:
        return [f"apx value {a!r} outside [PLFE/{nf} - alpha, PLFE] with PLFE {v!r}"]
    return []


def check_reference(game: Game, plfe: dict, olfe: dict) -> list[str]:
    ref_p, ref_o = game.reference_values()
    bad = []
    if not _close(plfe["value"], ref_p):
        bad.append(f"PLFE {plfe['value']!r}, HiGHS recomputation {ref_p!r}")
    if not _close(olfe["value"], ref_o):
        bad.append(f"OLFE {olfe['value']!r}, HiGHS recomputation {ref_o!r}")
    return bad


def max_clique(vertices: int, edges) -> int:
    adj = {(min(a, b), max(a, b)) for a, b in edges}
    best = 1
    for size in range(2, vertices + 1):
        if not any(
            all(pair in adj for pair in itertools.combinations(c, 2))
            for c in itertools.combinations(range(1, vertices + 1), size)
        ):
            break
        best = size
    return best


def satisfiable(nvars: int, clauses) -> bool:
    for bits in itertools.product((False, True), repeat=nvars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in clauses):
            return True
    return False


def check_clique(plfe: dict, vertices: int, edges) -> list[str]:
    omega = max_clique(vertices, edges)
    if not _close(plfe["value"], float(omega)):
        return [f"clique game value {plfe['value']!r}, maximum clique {omega}"]
    return []


def check_sat(olfe: dict, nvars: int, clauses, epsilon: float) -> list[str]:
    want = 1.0 if satisfiable(nvars, clauses) else epsilon
    if not _close(olfe["value"], want):
        return [f"SAT game value {olfe['value']!r}, expected {want!r}"]
    return []
