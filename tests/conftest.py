"""Shared test oracles and factories.

The oracles here are deliberately naive and independent of the library's
algorithms: exhaustive subset search for free diagonals, prime-field
elimination for rank, dict-based objective evaluation for entropy.
"""

import json
import math
import os
import random
from fractions import Fraction
from itertools import chain, combinations, product
from pathlib import Path

import numpy as np
import pytest

import irrev
from irrev import BudgetExceededError, Support, Tensor, is_free_diagonal, rho_upper

MERSENNE_P = (1 << 31) - 1

# Child interpreters import the same irrev as this process, also when it is
# found through pytest's `pythonpath` setting rather than PYTHONPATH.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(irrev.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


class _Budget(Exception):
    pass


def brute_force_max_free_diagonal(points, max_diagonals=None) -> int | None:
    """Largest free diagonal by exhaustive DFS over all diagonals.

    Subsets with pairwise-distinct coordinates are subset-closed, so the DFS
    visits every diagonal; each is tested with the full predicate. With
    max_diagonals, None once the DFS has visited that many diagonals.
    """
    pts = sorted(points)
    dims = tuple(max(p[a] for p in pts) + 1 for a in range(3))
    sup = Support(dims, frozenset(pts))
    best = visited = 0

    def dfs(start, chosen):
        nonlocal best, visited
        visited += 1
        if max_diagonals is not None and visited > max_diagonals:
            raise _Budget
        if len(chosen) > best and is_free_diagonal(sup, chosen):
            best = len(chosen)
        for i in range(start, len(pts)):
            p = pts[i]
            if all(p[a] != q[a] for q in chosen for a in (0, 1, 2)):
                dfs(i + 1, chosen + [p])

    try:
        dfs(0, [])
    except _Budget:
        return None
    return best


def direct_sum_blocks(points) -> list[list]:
    """The direct-sum blocks of a point set: the classes of the relation
    "shares a coordinate on some axis", closed transitively.

    A union-find over the (axis, coordinate) pairs joins each point's three
    pairs; a block is the points whose pairs share a root.
    """
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in points:
        roots = {find((a, p[a])) for a in range(3)}
        top = roots.pop()
        for r in roots:
            parent[r] = top
    blocks = {}
    for p in sorted(points):
        blocks.setdefault(find((0, p[0])), []).append(p)
    return list(blocks.values())


def reference_max_free_diagonal(support, node_budget=10**8, *, admissible=True, orbit_of=None,
                                stabiliser_of=None):
    """The set-based free-diagonal search, independent of the bitset search.

    Returns (size, witness, exact, nodes, bound_prunes, box_prunes).  A
    node's candidates are the points after its last one that avoid every
    coordinate it uses: a child keeps those of its parent's after itself
    that avoid its own coordinates.  The box check rescans the whole
    support.  The incumbent starts as the lowest point, which is a free
    diagonal, so the root's bound prunes a support that uses one coordinate
    on some axis.  The node that would exceed the budget is not counted as
    visited.

    With admissible, a node with a nonempty diagonal that the bound does not
    prune box-checks all its candidates first, whatever the budget left.  It
    drops the refused ones, so its children never see them, bounds again on
    the rest if it dropped any (an empty rest is no prune), and branches on
    the rest without checking them again.  Without it this is the plain
    walk, which checks each candidate when it comes to it.

    With orbit_of, a map from each point to its orbit's name, the root
    branches once per orbit, at its lowest point, and a root branch's
    subtree holds no point of an orbit whose branch came before.  With
    stabiliser_of, a map from each point r the root branches on to such a
    map, the root's child at r does the same with stabiliser_of[r].
    """
    if node_budget < 1:
        raise ValueError("node_budget must be positive")
    pts = sorted(support.points)
    support_set = support.points
    best = pts[:1]
    nodes = bound_prunes = box_prunes = 0
    chosen = []

    def box_ok(p):
        u = [{q[a] for q in chosen} | {p[a]} for a in range(3)]
        c = set(chosen)
        for s in support_set:
            if s != p and s not in c and s[0] in u[0] and s[1] in u[1] and s[2] in u[2]:
                return False
        return True

    def cannot_beat(candidates):
        return len(chosen) + min(len({p[a] for p in candidates}) for a in range(3)) <= len(best)

    def walk(candidates):
        nonlocal nodes, best, bound_prunes, box_prunes
        nodes += 1
        if nodes > node_budget:
            raise _Budget
        if len(chosen) > len(best):
            best = list(chosen)
        if not candidates:
            return
        if cannot_beat(candidates):
            bound_prunes += 1
            return
        checked = admissible and chosen
        if checked:
            kept = [p for p in candidates if box_ok(p)]
            if len(kept) < len(candidates):
                box_prunes += len(candidates) - len(kept)
                candidates = kept
                if kept and cannot_beat(kept):
                    bound_prunes += 1
                    return
        taken = set()  # at a node that branches once per orbit, the orbits branched on
        labels = None
        if not chosen:
            labels = orbit_of
        elif len(chosen) == 1 and stabiliser_of is not None:
            labels = stabiliser_of[chosen[0]]
        for j, p in enumerate(candidates):
            orbit = labels[p] if labels is not None else None
            if orbit is not None and orbit in taken:
                continue
            if not checked and not box_ok(p):
                box_prunes += 1
                continue
            chosen.append(p)
            walk([q for q in candidates[j + 1:] if all(q[a] != p[a] for a in range(3))
                  and (orbit is None or labels[q] not in taken)])
            chosen.pop()
            if orbit is not None:
                taken.add(orbit)

    exact = True
    try:
        walk(pts)
    except _Budget:
        exact = False
    return len(best), tuple(best), exact, min(nodes, node_budget), bound_prunes, box_prunes


def naive_grid_max(points, theta, resolution: int) -> float:
    """Largest weighted marginal entropy over the distributions on `points`
    whose probabilities are multiples of 1/resolution.

    Compositions come from itertools (stars and bars: the m - 1 bar positions
    among resolution + m - 1 slots); each is scored with a dict of marginals.
    """
    m = len(points)
    slots = resolution + m - 1
    best = -math.inf
    for bars in combinations(range(slots), m - 1):
        cuts = (-1,) + bars + (slots,)
        counts = [cuts[j + 1] - cuts[j] - 1 for j in range(m)]
        total = 0.0
        for axis in range(3):
            marg = {}
            for p, c in zip(points, counts):
                marg[p[axis]] = marg.get(p[axis], 0) + c
            probs = [c / resolution for c in marg.values() if c]
            total += theta[axis] * -sum(x * math.log2(x) for x in probs)
        best = max(best, total)
    return best


def reference_grid_max(points, th, resolution: int) -> float:
    """The full-range line bisection that the bracketed grid search replaced,
    built without the library's grid code.

    The counts of all points but the last two run over every vector of
    m - 2 nonnegative ints with sum at most R (stars and bars, as in
    `naive_grid_max`); the last two share the rest S.  Every line
    x + (S - x) is bisected over the whole of [0, S] on the sign of
    f(x + 1) - f(x), and the result is the largest f at the points found.
    Each axis's marginal counts come from a 0/1 matrix of its values by
    the points.
    """
    R, m = resolution, len(points)
    if m == 1:
        return 0.0
    p = m - 2
    n = math.comb(R + p, p)
    bars = np.fromiter(chain.from_iterable(combinations(range(R + p), p)), np.int64, n * p)
    ends = np.ones((n, 1), dtype=np.int64)
    parts = np.diff(np.hstack([-ends, bars.reshape(n, p), (R + p) * ends]), axis=1) - 1
    lead, S = parts[:, :p], parts[:, p]
    xlog2x = np.array([c / R * math.log2(c / R) if c else 0.0 for c in range(R + 1)])
    axes = []  # per weighted axis: its weight, the lead's marginal counts, the last two's values
    for i in range(3):
        if th[i]:
            values = sorted({q[i] for q in points})
            holds = np.array([[int(q[i] == v) for q in points[:p]] for v in values], dtype=np.int64)
            axes.append((th[i], holds @ lead.T,
                         values.index(points[p][i]), values.index(points[p + 1][i])))

    def f(x):
        total = np.zeros(len(x))
        for weight, marg, at0, at1 in axes:
            counts = marg.copy()
            counts[at0] += x
            counts[at1] += S - x
            total -= weight * xlog2x[counts].sum(axis=0)
        return total

    def rise(cols, x):
        """f(x + 1) - f(x) on the lines cols: only the marginals of the last
        two points' values move, and not where they share the value."""
        total = np.zeros(len(cols))
        for weight, marg, at0, at1 in axes:
            if at0 != at1:
                a, b = marg[at0, cols] + x, marg[at1, cols] + S[cols] - x
                total += weight * (xlog2x[a] - xlog2x[a + 1] + xlog2x[b] - xlog2x[b - 1])
        return total

    lo, hi = np.zeros_like(S), S.copy()
    todo = np.flatnonzero(S)
    while len(todo):
        x = (lo[todo] + hi[todo]) // 2
        up = rise(todo, x) > 0
        lo[todo[up]] = x[up] + 1
        hi[todo[~up]] = x[~up]
        todo = todo[lo[todo] < hi[todo]]
    return float(f(lo).max())


def certificate_gap(points, probs, theta) -> tuple[float, float]:
    """(f, max score - f) of a distribution on points, built from dicts.

    f is the theta-weighted marginal entropy in bits, and a point's score is
    -sum_i theta_i log2 marginal_i(point_i), +inf on an empty marginal
    entry.  By concavity, max score - f bounds the distance from f to the
    maximum.
    """
    margs = [{} for _ in range(3)]
    for p, x in zip(points, probs):
        for i in range(3):
            margs[i][p[i]] = margs[i].get(p[i], 0.0) + x
    f = -sum(th * sum(v * math.log2(v) for v in margs[i].values() if v > 0)
             for i, th in enumerate(theta) if th)

    def score(p):
        if any(th and margs[i][p[i]] <= 0 for i, th in enumerate(theta)):
            return math.inf
        return -sum(th * math.log2(margs[i][p[i]]) for i, th in enumerate(theta) if th)

    return f, max(map(score, points)) - f


def dense_newton_direction(points, probs, theta):
    """Newton direction on the stationarity system g_a(P) = lambda, in point space.

    Over the active points A (probability above 1e-14) it solves the
    (|A| + 1)-system [[J, -1], [1^T, 0]] (delta, nu) = (f - g_A, 0) by least
    squares, with J_ab = -sum_i theta_i [a_i == b_i] / (mu_i(a_i) ln 2), the
    Jacobian of the scores g_a = -sum_i theta_i log2 mu_i(a_i).  Marginals,
    scores and Jacobian are built entry by entry from dicts.  Returns delta
    on all points, 0 off A.
    """
    margs = []
    for axis in range(3):
        marg = {}
        for p, x in zip(points, probs):
            marg[p[axis]] = marg.get(p[axis], 0.0) + x
        margs.append(marg)
    scores = [
        -sum(th * math.log2(margs[i][p[i]]) for i, th in enumerate(theta) if th)
        for p, x in zip(points, probs)
        if x > 1e-14
    ]
    f = sum(
        -th * sum(v * math.log2(v) for v in margs[i].values() if v > 0)
        for i, th in enumerate(theta)
        if th
    )
    active = [j for j, x in enumerate(probs) if x > 1e-14]
    k = len(active)
    A = np.zeros((k + 1, k + 1))
    for r, a in enumerate(active):
        for s, b in enumerate(active):
            A[r, s] = -sum(
                th / (margs[i][points[a][i]] * math.log(2.0))
                for i, th in enumerate(theta)
                if th and points[a][i] == points[b][i]
            )
        A[r, k] = -1.0
        A[k, r] = 1.0
    rhs = np.array([f - g for g in scores] + [0.0])
    sol = np.linalg.lstsq(A, rhs, rcond=None)[0]
    delta = np.zeros(len(points))
    delta[active] = sol[:k]
    return delta


def rank_mod_p(matrix, p: int = MERSENNE_P) -> int:
    """Rank by plain Gaussian elimination over a large prime field."""
    rows_map = {}
    for (r, c), v in matrix.entries.items():
        num = v.numerator % p
        den = pow(v.denominator % p, p - 2, p)
        rows_map.setdefault(r, {})[c] = num * den % p
    rows = [row for row in rows_map.values() if row]
    rank = 0
    while rows:
        prow = rows.pop()
        pc = min(prow)
        inv = pow(prow[pc], p - 2, p)
        rank += 1
        nxt = []
        for row in rows:
            a = row.pop(pc, 0)
            if a:
                factor = a * inv % p
                merged = dict(row)
                for c, y in prow.items():
                    if c != pc:
                        merged[c] = (merged.get(c, 0) - factor * y) % p
                row = {c: v for c, v in merged.items() if v}
            if row:
                nxt.append(row)
        rows = nxt
    return rank


def random_unit_tensor(rng: random.Random, max_dim=4, max_size=6) -> Tensor:
    """Random 0/1 tensor, resampled until it is not simple."""
    while True:
        dims = tuple(rng.randint(2, max_dim) for _ in range(3))
        size = rng.randint(2, max_size)
        cells = list(product(*(range(d) for d in dims)))
        pts = rng.sample(cells, min(size, len(cells)))
        try:
            return Tensor(dims, {p: 1 for p in pts})
        except ValueError:
            continue


def random_rational_tensor(rng: random.Random, max_dim=3, max_size=6) -> Tensor:
    """Random sparse tensor with small rational coefficients, never simple."""
    while True:
        dims = tuple(rng.randint(2, max_dim) for _ in range(3))
        size = rng.randint(2, max_size)
        cells = list(product(*(range(d) for d in dims)))
        pts = rng.sample(cells, min(size, len(cells)))
        entries = {}
        for p in pts:
            num = rng.choice([n for n in range(-5, 6) if n])
            entries[p] = Fraction(num, rng.randint(1, 4))
        try:
            return Tensor(dims, entries)
        except ValueError:
            continue


def reference_to_json(t: Tensor) -> str:
    """The tensor file text built by json.dumps: entries sorted by index,
    num and den as decimal strings, separators ", " and ": "."""
    entries = [
        {"i": i, "j": j, "k": k, "num": str(c.numerator), "den": str(c.denominator)}
        for (i, j, k), c in sorted(t.entries.items())
    ]
    return json.dumps({"dims": list(t.dims), "entries": entries}, separators=(", ", ": "))


# A 10-point support in a 5x5x5 box on which the optimizer stalls at this
# theta, with one axis weight near 1e-11 and tol 1e-10: neither the Newton
# step nor the Frank-Wolfe step makes progress, so the solve stops with its
# residual just above tol. ROADMAP item 2's log-space route is meant to
# solve it; the tests that use it then turn into convergence tests.
STALL_POINTS = ((0, 4, 3), (0, 4, 4), (2, 1, 2), (2, 1, 4), (2, 3, 0),
                (2, 4, 1), (3, 0, 0), (3, 4, 4), (4, 1, 4), (4, 3, 3))
STALL_THETA = (0.6139588340532245, 0.38604116593677545, 1.0000056338554941e-11)


def stalling_rho_upper(*stalls: int):
    """A stand-in for rho_upper whose calls numbered in `stalls` (from 1)
    raise BudgetExceededError, with the real result as their best."""
    calls = 0

    def solve(*args, **kwargs):
        nonlocal calls
        calls += 1
        res = rho_upper(*args, **kwargs)
        if calls in stalls:
            raise BudgetExceededError(f"stalled after {res.iterations} iterations", best=res)
        return res

    return solve


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
