"""Entropy maximization over tensor-support distributions.

The central quantity is the maximum, over probability distributions P on the
support of a tensor, of the weighted average of the Shannon entropies of the
three marginals of P.  The objective is concave (marginals are linear in P,
entropy is concave), so a first-order certificate bounds the distance to the
global optimum.  Evaluated in the tensor's given basis, the maximum
upper-bounds the base-2 logarithm of the asymptotic subrank.

All entropies are in bits, with 0 * log 0 = 0 by continuity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .defaults import DEFAULT_ITER_BUDGET, DEFAULT_RESOLUTION, DEFAULT_TOL
from .errors import BudgetExceededError, ResourceLimitError
from .tensor import Index, Support, Tensor, cw_param

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Theta:
    """Axis weights: nonnegative, summing to one."""

    t1: float
    t2: float
    t3: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.t1, self.t2, self.t3))):
            raise ValueError("theta components must be finite")
        if min(self.t1, self.t2, self.t3) < 0:
            raise ValueError("theta components must be nonnegative")
        if abs(self.t1 + self.t2 + self.t3 - 1.0) > 1e-12:
            raise ValueError("theta components must sum to 1")

    @classmethod
    def uniform(cls) -> "Theta":
        return cls(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.t1, self.t2, self.t3)

    def is_uniform(self) -> bool:
        return all(abs(v - 1.0 / 3.0) <= 1e-12 for v in self.as_tuple())


@dataclass(frozen=True)
class SupportDistribution:
    """Probability distribution on a finite set of support points."""

    points: tuple[Index, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.points) != len(self.probs):
            raise ValueError("points and probs must have equal length")
        if any(p < 0 for p in self.probs):
            raise ValueError("probabilities must be nonnegative")
        if abs(sum(self.probs) - 1.0) > 1e-12:
            raise ValueError("probabilities must sum to 1")


def binary_entropy(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary entropy needs 0 <= p <= 1, got {p!r}")
    return 0.0 - _xlog2x(p) - _xlog2x(1 - p)


@dataclass(frozen=True)
class RhoResult:
    """Certificate of an entropy-maximization run.

    value is the achieved objective (bits); residual is the first-order
    optimality gap at termination, so the true maximum lies within residual
    of value.  steps counts the accepted steps by kind: "newton" (damped
    Newton), "drop" (a Newton step cut at the ratio test, which empties a
    point exactly), "toward" and "away" (Frank-Wolfe); on convergence they
    sum to iterations - 1.  entropies holds the entropies (bits) of the
    three marginals of the final iterate; sum_i theta_i entropies[i], summed
    in axis order, is value exactly.
    """

    value: float
    argmax: SupportDistribution
    residual: float
    iterations: int
    steps: dict[str, int]
    entropies: tuple[float, float, float]

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "argmax": {
                "probabilities": [
                    {"point": list(p), "prob": x} for p, x in zip(self.argmax.points, self.argmax.probs)
                ]
            },
            "residual": self.residual,
            "iterations": self.iterations,
            "steps": self.steps,
        }


class _AxisEncoding:
    """Per-axis integer recoding of support points for vectorized marginals:
    each coordinate becomes its rank among the axis's distinct coordinates
    (np.unique's inverse codes, built from a dict, which is faster on the
    few points of a support)."""

    def __init__(self, points: Sequence[Index]):
        self.idx: list[np.ndarray] = []
        self.sizes: list[int] = []
        for axis in range(3):
            coords = [p[axis] for p in points]
            code = {c: j for j, c in enumerate(sorted(set(coords)))}
            self.idx.append(np.array([code[c] for c in coords], dtype=np.intp))
            self.sizes.append(len(code))


def _entropy_and_log2(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Entropy in bits of a marginal, and its log2 (-inf on empty entries)."""
    pos = m > 0
    logm = np.full(m.shape, -np.inf)
    logm[pos] = np.log2(m[pos])
    return float(-(m[pos] * logm[pos]).sum()), logm


def _objective_and_scores(P: np.ndarray, enc: _AxisEncoding, th: tuple) -> tuple:
    """The iterate (P, f, g, margs, gap) of the solve at P: the objective
    value f, per-point scores g_a = -sum_i th_i log2 marginal_i(a_i), the
    marginals of P on all three axes, which every step reads, and the gap.

    The objective equals sum_a P_a g_a; scores minus their P-average give the
    concavity certificate gap = max_a g_a - f >= f* - f.
    """
    margs = [np.bincount(enc.idx[i], weights=P, minlength=enc.sizes[i]) for i in range(3)]
    f = 0.0
    scores = np.zeros(len(P))
    for i in range(3):
        if th[i] == 0.0:
            continue
        h, logm = _entropy_and_log2(margs[i])
        f += th[i] * h
        scores -= th[i] * logm[enc.idx[i]]
    return P, f, scores, margs, float(scores.max() - f)


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Halve [lo, hi] down to adjacent floats, keeping the half above the
    midpoint where f is positive there and the half below it otherwise.
    Returns the last (lo, hi)."""
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return lo, hi


def _line_search(bases: list[np.ndarray], dirs: list[np.ndarray], th: tuple, gamma_max: float) -> float:
    """Exact maximization of the objective along marginal direction dirs.

    On m = base + gamma d, 0 <= gamma <= gamma_max, the objective phi is
    concave with phi' = -sum_i th_i sum_c d_c log2 m_c (each d sums to zero),
    so phi' never increases along the segment.  An entry the direction
    empties (d_c < 0, m_c zero up to rounding) makes phi' = -inf.  Returns
    gamma_max when phi' >= 0 there; otherwise bisects on the sign of phi'
    down to adjacent floats and returns the last gamma with phi' > 0.
    """

    def slope(gamma: float) -> float:
        d1 = 0.0
        for i in range(3):
            if th[i] == 0.0:
                continue
            d = dirs[i]
            m = bases[i] + gamma * d
            pos = m > 1e-15 * bases[i]
            if (d[~pos] < 0).any():
                return -math.inf
            d1 -= th[i] * float(d[pos] @ np.log2(m[pos]))
        return d1

    if slope(gamma_max) >= 0:
        return gamma_max
    return _bisect(slope, 0.0, gamma_max)[0]


class _ActiveSystem:
    """The parts of the Newton system that depend only on the active set.

    B is the 0/1 incidence of the active points (mass above 1e-14) and the
    n coordinates they use on weighted axes, G = B^T B and c = diag G.
    `basis` indexes columns of G, independent exactly where those of B are
    (null(G) = null(B)), that span its range: those whose diagonal survives
    an unpivoted QR of G, |R_jj| > 1e-9 max |R_jj|.  `cols` holds each
    active point's columns as positions in the basis, len(basis) for one
    outside it.  A and rhs hold the bordered system on the basis.  `basis`
    is None, and nothing is built, when n > 1024; away-step Frank-Wolfe then
    takes every step.  Alone, it stalled near residual 1e-6 on all random
    supports of 400-1000 points tried (n = 566-724), which Newton solves.
    The cap stays because a rebuild costs O(n^3) time and O(n^2) memory
    (0.13 s and 25 MB at n = 1026, 0.72 s and 100 MB at n = 2046, one BLAS
    thread), a solve that drops many points rebuilds on nearly every step,
    and Frank-Wolfe alone still solves some larger supports.
    """

    def __init__(self, active: np.ndarray, enc: _AxisEncoding, th: tuple):
        self.active = active
        self.axes = [i for i in range(3) if th[i] != 0.0]
        self.used = np.concatenate(
            [np.bincount(enc.idx[i][active], minlength=enc.sizes[i]) > 0 for i in self.axes]
        )
        n = int(np.count_nonzero(self.used))
        self.basis = None
        if n > 1024:
            return
        offsets = np.cumsum([0] + [enc.sizes[i] for i in self.axes])
        col_of = np.cumsum(self.used) - 1
        cols = np.stack([col_of[enc.idx[i][active] + offsets[j]] for j, i in enumerate(self.axes)], axis=1)
        self.weight = np.repeat([th[i] for i in self.axes], np.diff(offsets))[self.used]
        pairs = cols[:, :, None] * n + cols[:, None, :]
        G = np.bincount(pairs.ravel(), minlength=n * n).reshape(n, n).astype(float)
        r = np.abs(np.diag(np.linalg.qr(G, mode="r")))
        self.basis = np.flatnonzero(r > 1e-9 * r.max())
        s = len(self.basis)
        pos = np.full(n, s)
        pos[self.basis] = np.arange(s)
        self.cols = pos[cols]
        self.GS = G[self.basis]
        self.cS = np.diag(G)[self.basis]
        self.A = np.zeros((s + 1, s + 1))
        self.A[:s, s] = self.A[s, :s] = self.cS
        self.rhs = np.zeros(s + 1)


def _newton_direction(margs: list, f: float, system: _ActiveSystem) -> np.ndarray | None:
    """Newton direction delta on the active points for the stationarity
    system g_a(P) = lambda, or None, and Frank-Wolfe takes the step, when
    the active set uses more than 1024 coordinates (see `_ActiveSystem`) or
    the solve finds the system singular.

    Ascent steps stall once the objective saturates at float resolution (it
    is quadratically flat near the optimum, the gap only linearly so);
    solving for equal scores converges quadratically in the gap.  The score
    Jacobian is -B W B^T, W_c = th_i / (mu_c ln 2), so delta = B y for any
    solution of [[G W G, c], [c^T, 0]] (y, nu) = (-(G s + f c), 0) with
    s_c = th_i log2 mu_c.  That system is singular: null(B) holds the sum of
    each weighted axis's columns and, on tight supports, more.  It is solved
    on the column basis S: B_S spans range(B), so delta = B_S y_S reaches
    every step the full system does; each dropped row is the combination of
    kept rows that its column is of kept columns; and (G W G)_SS is
    positive definite, so [[(G W G)_SS, c_S], [c_S^T, 0]] is nonsingular.
    """
    if system.basis is None:
        return None
    mu = np.concatenate([margs[i] for i in system.axes])[system.used]
    A, rhs, GS, s = system.A, system.rhs, system.GS, len(system.basis)
    A[:s, :s] = (GS * (system.weight / (mu * _LN2))) @ GS.T
    rhs[:s] = -(GS @ (system.weight * np.log2(mu)) + f * system.cS)
    try:
        y = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return None
    y[s] = 0.0  # nu, in the slot that stands for the columns outside the basis
    return y[system.cols].sum(axis=1)


def _newton_step(it: tuple, enc: _AxisEncoding, th: tuple, system: _ActiveSystem) -> tuple[tuple, str] | None:
    """One Newton step from the iterate `it` along `_newton_direction`, or None.

    Candidates, in order: if some active mass would go negative along delta,
    the step to the ratio-test boundary reach = min_a P_a / (-delta_a), with
    the first point to hit zero set to exactly 0 ("drop"); then the step
    clamped at zero and renormalized at damping 1, 1/2, 1/4, 1/8 ("newton").
    Points outside the active set keep their mass.  Returns (iterate, kind)
    for the first candidate that lowers the gap, else None.
    """
    P, f, _, margs, gap = it
    delta = _newton_direction(margs, f, system)
    if delta is None:
        return None
    active = system.active
    x = P[active]
    trials = [(damp, "newton") for damp in (1.0, 0.5, 0.25, 0.125)]
    neg = np.flatnonzero(x + delta < 0)
    if len(neg):
        ratios = x[neg] / -delta[neg]
        first = neg[ratios.argmin()]
        trials.insert(0, (float(ratios.min()), "drop"))
    for damp, kind in trials:
        moved = np.maximum(x + damp * delta, 0.0)
        if kind == "drop":
            moved[first] = 0.0
        P2 = P.copy()
        P2[active] = moved
        total = P2.sum()
        if total <= 0:
            continue
        P2 /= total
        trial = _objective_and_scores(P2, enc, th)
        if trial[4] < gap:
            return trial, kind
    return None


def _frank_wolfe_step(it: tuple, enc: _AxisEncoding, th: tuple) -> tuple[tuple, str] | None:
    """(iterate, kind) after one away-step Frank-Wolfe step from the iterate
    `it`, or None if it neither raises the objective nor lowers the gap.  A
    tiny step onto a dust point can lower the gap a lot while the
    renormalisation moves f down by an ulp; it is taken."""
    P, f, g, margs, gap = it
    b = int(g.argmax())
    # Away from an active point only: dust (mass at most 1e-14, left by
    # a clamped Newton step) cannot move the objective.
    a = int(np.where(P > 1e-14, g, np.inf).argmin())
    # Toward b (s = 1) or away from a (s = -1): P + s gamma (e_v - P).
    if g[b] - f >= f - g[a] or P[a] >= 1.0 - 1e-12:
        v, s, gamma_max, kind = b, 1.0, 1.0, "toward"
    else:
        v, s, gamma_max, kind = a, -1.0, P[a] / (1.0 - P[a]), "away"
    dirs = [-s * margs[i] for i in range(3)]
    for i in range(3):
        dirs[i][enc.idx[i][v]] += s
    step = s * _line_search(margs, dirs, th, gamma_max)
    P2 = (1.0 - step) * P
    P2[v] += step
    P2 = np.maximum(P2, 0.0)
    P2 /= P2.sum()
    trial = _objective_and_scores(P2, enc, th)
    if trial[1] > f or trial[4] < gap:
        return trial, kind
    return None


def rho_upper_on_support(
    support: Support,
    theta: Theta | None = None,
    tol: float = DEFAULT_TOL,
    iter_budget: int = DEFAULT_ITER_BUDGET,
) -> RhoResult:
    """Maximize the theta-weighted marginal entropy over distributions on a support.

    Every iteration first tries a Newton step on the stationarity
    conditions (`_newton_step`), taken only if it lowers the gap; its
    ratio-test candidate drops a point at the boundary, so boundary optima
    (points whose optimal mass is zero while their score touches the
    maximum) take a few steps.  When Newton is refused, away-step
    Frank-Wolfe with an exact line search (`_frank_wolfe_step`) moves toward
    the best-scoring vertex or away from the worst active one, whichever
    linearizes better, and is taken if it raises the objective or lowers
    the gap.  An iteration where neither step makes progress raises
    BudgetExceededError.
    Terminates when the first-order gap is at most tol, certifying
    |value - max| <= tol.
    """
    if theta is None:
        theta = Theta.uniform()
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    if iter_budget < 1:
        raise ValueError("iter_budget must be positive")
    th = theta.as_tuple()
    points = sorted(support.points)
    m = len(points)
    enc = _AxisEncoding(points)

    it = _objective_and_scores(np.full(m, 1.0 / m), enc, th)
    steps = dict.fromkeys(("newton", "drop", "toward", "away"), 0)
    system = how = None
    for k in range(1, iter_budget + 1):
        if it[4] <= tol:
            break
        active = np.flatnonzero(it[0] > 1e-14)
        if system is None or not np.array_equal(active, system.active):
            system = _ActiveSystem(active, enc, th)
        # Both steps are deterministic, so a refused iteration would repeat.
        step = _newton_step(it, enc, th, system) or _frank_wolfe_step(it, enc, th)
        if step is None:
            how = f"stalled after {k}"
            break
        it, kind = step
        steps[kind] += 1
    else:
        # tol is checked before a step: one that reaches it last is over budget.
        how = f"within {iter_budget}"
    P, f, _, margs, gap = it
    probs = np.maximum(P, 0.0)
    probs = probs / probs.sum()
    res = RhoResult(value=f, argmax=SupportDistribution(tuple(points), tuple(float(x) for x in probs)),
                    residual=max(gap, 0.0), iterations=k, steps=steps,
                    entropies=tuple(_entropy_and_log2(x)[0] for x in margs))
    if how is None:
        return res
    raise BudgetExceededError(f"no convergence to gap <= {tol} {how} iterations", best=res)


def rho_upper(
    t: Tensor,
    theta: Theta | None = None,
    tol: float = DEFAULT_TOL,
    iter_budget: int = DEFAULT_ITER_BUDGET,
) -> RhoResult:
    """Entropy-maximization upper bound on log2 asymptotic subrank of t (fixed basis)."""
    return rho_upper_on_support(t.support(), theta, tol, iter_budget)


# ---------------------------------------------------------------------------
# Independent grid oracle


# Largest resolution, and count of lines in the dense grid, the grid oracle takes.
ORACLE_GRID_LIMIT = 1 << 22
# Columns per block of the grid oracle, which bounds the memory it holds.
# On a 2-vCPU x86_64 machine, with every line built, the benchmark's oracle
# workload (seeds 24-27) peaked at 38.1, 38.7 and 41.1 MB RSS at 2**12,
# 2**13 and 2**14; with the face bound of `_grid_max`, at 38.3-38.5 MB at
# each of 2**11 to 2**14.
_GRID_BLOCK = 1 << 12
# Multiplicative-weight steps toward the maximum of a face before it is
# bounded.  On the same machine, over the 300 seeded oracle supports of
# seeds 100-159, the median time against building every line was 0.43 at
# m = 4 and 0.18 at m = 5 with 4 steps, 0.33 and 0.17 with 8 or 16; 6
# points at R = 97 built 2.1% of their lines with 4 steps, 0.5% with 8 and
# 0.09% with 16.
_FACE_STEPS = 16


def _grid_leads(p: int, R: int, block: int = _GRID_BLOCK, keep=None):
    """Yield (p, n) int arrays, 0 < n <= block, whose columns are the vectors
    of p nonnegative ints with sum at most R, each exactly once.

    The first p - 1 parts, the heads, come block by block from the same
    generator, so each level holds one block of heads at a time.  A head with
    sum s takes the R - s + 1 values of the last part; the columns of a block
    of heads are numbered in one flat range, cut into blocks.  For each
    block, searchsorted on the heads' start offsets finds the heads it
    overlaps, and np.repeat copies them.

    `keep`, if given, maps each block of heads, at every level from the one
    empty head up, to the columns to expand; the columns of the heads it
    drops are never built.
    """
    if p == 0:
        yield np.zeros((0, 1), dtype=np.intp)
        return
    for heads in _grid_leads(p - 1, R, block, keep):
        if keep is not None:
            heads = keep(heads)
        offsets = np.concatenate([[0], np.cumsum(R + 1 - heads.sum(axis=0))])
        total = int(offsets[-1])
        for lo in range(0, total, block):
            hi = min(lo + block, total)
            a = int(np.searchsorted(offsets, lo, side="right")) - 1
            b = int(np.searchsorted(offsets, hi, side="left"))
            counts = np.diff(np.clip(offsets[a : b + 1], lo, hi))
            last = np.arange(lo, hi) - np.repeat(offsets[a:b], counts)
            yield np.vstack([np.repeat(heads[:, a:b], counts, axis=1), last])


def _incidence(points: Sequence[Index], th: tuple) -> list[tuple[float, np.ndarray]]:
    """Per axis of nonzero weight, (theta_i, A_i): A_i is the 0/1 matrix
    whose row v marks the points with coordinate value v on the axis, values
    in increasing order, so A_i @ x holds the axis's marginals of x."""
    return [(th[i], np.array([[p[i] == v for p in points] for v in sorted({p[i] for p in points})],
                             dtype=float))
            for i in range(3) if th[i] != 0.0]


def _grid_lines(axes: list[tuple[float, np.ndarray]], R: int):
    """The line search of `_grid_max` at resolution R on the support whose
    `_incidence` is `axes`, as (lines, search).

    A column of `lead` holds the counts of all points but the last two, and
    spans the line x + (S - x) of the last two, S = R - sum(lead).  On it
    f(x + 1) - f(x) = rise(x) = sum_s w_s (drop[a_s + x] - drop[b_s - x]),
    one side s per weighted axis on which the last two points differ: a_s
    counts the other points with the first's value, b_s those with the
    second's plus S - 1, and drop[c] = t(c) - t(c + 1), t(c) = (c/R)
    log2 (c/R), is strictly decreasing.  So side s rises iff x < r_s =
    (b_s - a_s + 1) // 2, and the first x that does not rise (S if none)
    lies in [lo, hi] = [min r_s, max r_s] clipped to [0, S]; lo = hi = 0
    with no side, where f is constant.  By discrete concavity f is largest
    on the line at that x.

    lines(lead) returns the bracket, as (S, rests, lo, hi).  search(lead,
    best) bisects every line on the sign of rise inside [lo, hi] and returns
    the largest of best and f at the points found, each axis's terms summed
    before the axis is weighted, the order in which the unit(2) maximum comes
    out as exactly 1.0.
    """
    p = np.arange(R + 1) / R
    table = p * np.log2(p, out=np.zeros_like(p), where=p > 0)
    drop = table[:-1] - table[1:]
    m = axes[0][1].shape[1]
    # Per weighted axis, the points of each value, read off the rows of A.
    groups = [(w, [np.flatnonzero(row).tolist() for row in A]) for w, A in axes]
    sides = [(w, [r for r in a if r < m - 2], [r for r in b if r < m - 2])
             for w, g in groups for a in g for b in g if m - 2 in a and m - 1 in b and a != b]

    def rise(rests, x):
        return sum((w * (drop[a + x] - drop[b - x]) for w, a, b in rests), 0 * x)

    def lines(lead):
        S = R - lead.sum(axis=0)
        rests = [(w, sum((lead[r] for r in a), 0 * S), sum((lead[r] for r in b), S - 1))
                 for w, a, b in sides]
        roots = [(b - a + 1) >> 1 for _, a, b in rests] or [0 * S]
        lo = np.minimum(np.maximum(reduce(np.minimum, roots), 0), S)
        hi = np.minimum(np.maximum(reduce(np.maximum, roots), 0), S)
        return S, rests, lo, hi

    def search(lead, best):
        S, rests, lo, hi = lines(lead)
        todo = np.flatnonzero(lo < hi)
        while len(todo):
            x = (lo[todo] + hi[todo]) // 2
            up = rise([(w, a[todo], b[todo]) for w, a, b in rests], x) > 0
            lo[todo[up]] = x[up] + 1
            hi[todo[~up]] = x[~up]
            todo = todo[lo[todo] < hi[todo]]
        rows, f = [*lead, lo, S - lo], np.zeros(len(S))
        for w, g in groups:
            f -= w * reduce(np.add, [table.take(reduce(np.add, [rows[r] for r in v])) for v in g])
        return float(f.max(initial=best))

    return lines, search


def _grid_max(points: Sequence[Index], th: tuple, resolution: int) -> float:
    """Largest weighted marginal entropy over all distributions on `points`
    whose probabilities are multiples of 1/resolution.

    Integer counts, entropy terms looked up in a table of (c/R) log2 (c/R).
    The counts of all points but the last two are enumerated, as the columns
    of `_grid_leads(m - 2, R)`; the last two share the rest, S.  f is
    concave, so discretely concave on each line x + (S - x).  `_grid_lines`
    brackets the maximum of each line built and bisects it in its bracket.

    Before a head of 0 < k < m - 2 counts is expanded, f is bounded on its
    face, where the other m - k points share S.  At any x0 in the face, the
    scores s_p = -sum_i theta_i log2 marg_i(p_i) give f(x0) = sum_p s_p x0_p,
    and they are the gradient of f less a constant, which the face's fixed
    sum cancels.  So, f being concave, f <= sum_head s_p x0_p + (S/R) max_free
    s_p on the face.  x0 is the even split of S after _FACE_STEPS
    multiplicative-weight steps x_p <- x_p 2^s_p on the free points.  A head
    whose bound is below the best f found less 1e-12 is dropped with all its
    lines.  Each block of heads first searches the line through a grid
    rounding of its best x0, so that best is already high when the block is
    judged.  The value returned is f at the points found, a value f takes on
    the grid.
    """
    m, R = len(points), resolution
    if m == 1:
        return 0.0  # the one grid point is a point mass
    axes = _incidence(points, th)
    _, search = _grid_lines(axes, R)
    # The incidence rows of every weighted axis: the marginals of x are M @ x,
    # and w holds minus the weight of each row's axis.
    M = np.vstack([A for _, A in axes])
    w = np.concatenate([np.full(len(A), -t) for t, A in axes])[:, None]
    best = -math.inf

    def keep(heads):
        nonlocal best
        k = len(heads)
        if k == 0:
            return heads  # the bound on the whole grid is at least its maximum
        S = R - heads.sum(axis=0)
        share = np.full((m - k, heads.shape[1]), 1.0 / (m - k))
        for step in range(_FACE_STEPS + 1):
            x = np.vstack([heads / R, share * (S / R)])
            # The floor meets only empty marginals: of points that all carry
            # 0, where s x reads 0, or on a face with S = 0, where the bound
            # is f(x0) whatever s is.  Each step keeps at least 2^-30 of
            # every share, so no free marginal empties when S > 0.
            s = M.T @ (w * np.log2(np.maximum(M @ x, 1e-300)))
            if step < _FACE_STEPS:
                share *= np.exp2(np.maximum(s[k:] - s[k:].max(axis=0), -30.0))
                share /= share.sum(axis=0)
        bound = (s[:k] * x[:k]).sum(axis=0) + S / R * s[k:].max(axis=0)
        j = int((s * x).sum(axis=0).argmax())
        cuts = np.rint(np.cumsum(share[:, j]) * S[j])
        cuts[-1] = S[j]
        lead = np.concatenate([heads[:, j], np.diff(cuts, prepend=0.0).astype(np.intp)])
        best = search(lead[: m - 2, None], best)
        return heads[:, ~(bound < best - 1e-12)]

    for lead in _grid_leads(m - 2, R, keep=keep):
        best = search(lead, best)
    return best


def rho_grid_oracle(
    t: Tensor, theta: Theta | None = None, resolution: int = DEFAULT_RESOLUTION
) -> float:
    """Brute-force lower estimate of the entropy maximum, for cross-checking.

    Dense mode returns the maximum over all distributions with denominator
    `resolution` on any support of at most 24 points whose grid holds at
    most ORACLE_GRID_LIMIT lines: R is at most 97 on 6 points, 52 on 7, 34
    on 8, 25 on 9 and 7 on 24.  The splits between the last two points form
    lines on which the entropy is concave: the roots of its per-axis slopes
    bracket each line's maximum, and every line built is bisected inside its
    bracket (see `_grid_lines`).
    Before any line is built, the counts of the first points are fixed one
    at a time, and a face of the grid whose first-order concavity bound is
    below the best value found is dropped with all its lines (see
    `_grid_max`).
    For the Coppersmith-Winograd families (recognized structurally) and
    uniform theta, concavity plus support symmetry reduce the search to the
    symmetric family, read from its closed forms: cw_q's is the uniform
    point, and CW_q's is concave in x, so its largest step on the grid lies
    next to the closed-form argmax.  None of this shares code with the
    optimizer.  A resolution over ORACLE_GRID_LIMIT, a dense grid with more
    lines, or a dense support of 25 points or more, at any R, raises
    ResourceLimitError before any grid is built.
    """
    if theta is None:
        theta = Theta.uniform()
    if resolution < 1:
        raise ValueError("resolution must be positive")
    if resolution > ORACLE_GRID_LIMIT:
        raise ResourceLimitError(f"grid oracle: resolution {resolution} over the limit {ORACLE_GRID_LIMIT}")
    if theta.is_uniform():
        q = cw_param(t, big=True)
        if q is not None and q >= 1:
            # Each of the 3q middle points carries x = j / (3qR), each corner 1/3 - q x.
            s = cw_big_entropy_argmax(q) * 3 * q * resolution
            steps = range(max(math.floor(s) - 1, 0), min(math.ceil(s) + 1, resolution) + 1)
            return max(cw_big_marginal_entropy(q, j / (3 * q * resolution)) for j in steps)
        q = cw_param(t)
        if q is not None:
            # Support symmetry group is transitive: the uniform distribution
            # is the symmetrized family, a single point.
            return cw_small_entropy_bound(q)

    p = len(t.entries) - 2
    # `_grid_leads` nests p deep, and the incidence table grows with the
    # square of the points.  Refusing p past the cap's bit length at every R
    # keeps both, and the count of lines itself, small.
    if p >= ORACLE_GRID_LIMIT.bit_length() or math.comb(resolution + p, p) > ORACLE_GRID_LIMIT:
        raise ResourceLimitError(f"grid oracle: resolution {resolution} too large for a support of {p + 2} points")
    return _grid_max(sorted(t.support().points), theta.as_tuple(), resolution)


# ---------------------------------------------------------------------------
# Closed forms for the Coppersmith-Winograd families and tn


def _xlog2x(v: float) -> float:
    return v * math.log2(v) if v > 0 else 0.0


def cw_small_entropy_bound(q: int) -> float:
    """Weighted marginal entropy of the uniform distribution on supp(cw_q):
    log2(3) - 2/3 + (2/3) log2(q).  This is the entropy maximum for cw_q."""
    if q < 1:
        raise ValueError("needs q >= 1")
    return math.log2(3.0) - 2.0 / 3.0 + (2.0 / 3.0) * math.log2(q)


def cw_big_marginal_entropy(q: int, x: float) -> float:
    """Average marginal entropy of the symmetric distribution on supp(CW_q)
    putting x on each of the 3q middle points and 1/3 - qx on each corner."""
    if q < 1:
        raise ValueError("needs q >= 1")
    if not -1e-15 <= x <= 1.0 / (3.0 * q) + 1e-15:
        raise ValueError(f"x must lie in [0, 1/(3q)], got {x!r}")
    x = min(max(x, 0.0), 1.0 / (3.0 * q))
    return -(_xlog2x(2.0 / 3.0 - q * x) + q * _xlog2x(2.0 * x) + _xlog2x(1.0 / 3.0 - q * x))


def cw_big_entropy_argmax(q: int) -> float:
    """Maximizer of cw_big_marginal_entropy(q, .) on [0, 1/(3q)], in closed form:
    the root (3q - sqrt(q^2 + 32)) / (6(q^2 - 4)) with its 0/0 at q = 2
    cancelled."""
    if q < 1:
        raise ValueError("needs q >= 1")
    return 4.0 / (3.0 * (3.0 * q + math.sqrt(q * q + 32.0)))


def tn_entropy_bound(m: int) -> float:
    """Upper bound on the entropy maximum for tn(m) at uniform theta.

    Cross-entropy is at least entropy, so any axis distributions q bound the
    maximum by max_s sum_i theta_i log2(1/q_i(s_i)).  On supp(tn(m)), with
    q(a) proportional to x^a on the first two axes and to x^(m-1-a) on the
    third, every point scores log2 Z(x) - ((m-1)/3) log2 x, Z(x) = sum_a x^a,
    for each x in (0, 1].  The score is least where sum_a (a - (m-1)/3) x^a
    = 0; bisection on its sign, down to adjacent floats, finds that x.
    """
    if m < 2:
        raise ValueError("needs m >= 2")
    c = (m - 1) / 3.0
    hi = _bisect(lambda x: math.fsum((c - a) * x**a for a in range(m)), 0.0, 1.0)[1]
    return math.log2(math.fsum(hi**a for a in range(m))) - c * math.log2(hi)
