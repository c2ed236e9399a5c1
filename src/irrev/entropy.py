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
from typing import Mapping, Sequence

import numpy as np

from .errors import BudgetExceededError, ResourceLimitError
from .tensor import Index, Support, Tensor, cw, cw_big

DEFAULT_TOL = 1e-10
DEFAULT_ITER_BUDGET = 10**6
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


def marginal(dist: SupportDistribution, axis: int) -> dict[int, float]:
    """Pushforward of the distribution along one coordinate (axis in {1,2,3})."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis!r}")
    out: dict[int, float] = {}
    for point, p in zip(dist.points, dist.probs):
        coord = point[axis - 1]
        out[coord] = out.get(coord, 0.0) + p
    return out


def entropy_bits(probs) -> float:
    """Shannon entropy in bits of a probability vector (dict values or iterable)."""
    values = list(probs.values()) if isinstance(probs, Mapping) else list(probs)
    if any(p < 0 for p in values):
        raise ValueError("probabilities must be nonnegative")
    if abs(sum(values) - 1.0) > 1e-12:
        raise ValueError("probabilities must sum to 1")
    return -sum(p * math.log2(p) for p in values if p > 0)


def binary_entropy(p: float) -> float:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"binary entropy needs 0 <= p <= 1, got {p!r}")
    out = 0.0
    if p > 0:
        out -= p * math.log2(p)
    if p < 1:
        out -= (1 - p) * math.log2(1 - p)
    return out


@dataclass(frozen=True)
class RhoResult:
    """Certificate of an entropy-maximization run.

    value is the achieved objective (bits); residual is the first-order
    optimality gap at termination, so the true maximum lies within residual
    of value.  steps counts the accepted steps by kind: "newton" (damped
    Newton), "drop" (a Newton step cut at the ratio test, which empties a
    point exactly), "toward" and "away" (Frank-Wolfe); on convergence they
    sum to iterations - 1.
    """

    value: float
    argmax: SupportDistribution
    residual: float
    iterations: int
    steps: dict[str, int]


class _AxisEncoding:
    """Per-axis integer recoding of support points for vectorized marginals."""

    def __init__(self, points: Sequence[Index]):
        self.idx: list[np.ndarray] = []
        self.sizes: list[int] = []
        for axis in range(3):
            coords = np.array([p[axis] for p in points])
            _, inverse = np.unique(coords, return_inverse=True)
            self.idx.append(inverse)
            self.sizes.append(int(inverse.max()) + 1)


def _objective_and_scores(P: np.ndarray, enc: _AxisEncoding, th: tuple) -> tuple[float, np.ndarray]:
    """Objective value and per-point scores g_a = -sum_i th_i log2 marginal_i(a_i).

    The objective equals sum_a P_a g_a; scores minus their P-average give the
    concavity certificate max_a g_a - f >= f* - f.
    """
    f = 0.0
    scores = np.zeros(len(P))
    for i in range(3):
        if th[i] == 0.0:
            continue
        m = np.bincount(enc.idx[i], weights=P, minlength=enc.sizes[i])
        pos = m > 0
        logm = np.full(m.shape, -np.inf)
        logm[pos] = np.log2(m[pos])
        f += th[i] * float(-(m[pos] * logm[pos]).sum())
        scores -= th[i] * logm[enc.idx[i]]
    return f, scores


def _line_search(bases: list[np.ndarray], dirs: list[np.ndarray], th: tuple, gamma_max: float) -> float:
    """Exact maximization of the objective along marginal direction dirs.

    On m = base + gamma d, 0 <= gamma <= gamma_max, the objective phi is
    concave with phi' = -sum_i th_i sum_c d_c log2 m_c (each d sums to zero)
    and phi'' = -sum_i th_i sum_c d_c^2 / (m_c ln 2).  An entry the
    direction empties (d_c < 0, m_c zero up to rounding) makes phi' = -inf.
    Returns gamma_max when phi' >= 0 there; otherwise runs Newton's method on
    phi' inside a sign-change bracket, bisecting when a step leaves it.
    """

    def derivs(gamma: float) -> tuple[float, float]:
        d1 = d2 = 0.0
        for i in range(3):
            if th[i] == 0.0:
                continue
            d = dirs[i]
            m = bases[i] + gamma * d
            pos = m > 1e-15 * bases[i]
            if (d[~pos] < 0).any():
                return -math.inf, math.nan
            d, m = d[pos], m[pos]
            d1 -= th[i] * float(d @ np.log2(m))
            d2 -= th[i] * float((d * d / m).sum())
        return d1, d2 / _LN2

    if derivs(gamma_max)[0] >= 0:
        return gamma_max
    lo, hi = 0.0, gamma_max
    gamma = 0.5 * gamma_max
    for _ in range(80):
        d1, d2 = derivs(gamma)
        if d1 == 0:
            return gamma
        if d1 > 0:
            lo = gamma
        else:
            hi = gamma
        nxt = gamma - d1 / d2 if d2 < 0 else math.nan
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - gamma) <= 1e-15 * nxt:
            return nxt
        gamma = nxt
    return gamma


class _ActiveSystem:
    """The parts of the Newton system that depend only on the active set.

    B is the 0/1 incidence of the active points (mass above 1e-14) and the
    n coordinates they use on weighted axes, G = B^T B and c = diag G.
    `basis` indexes columns of G, independent exactly where those of B are
    (null(G) = null(B)), that span its range: those whose diagonal survives
    an unpivoted QR of G, |R_jj| > 1e-9 max |R_jj|.  `cols` holds each
    active point's columns as positions in the basis, len(basis) for one
    outside it.  A and rhs hold the bordered system on the basis.  `basis`
    is None, and nothing is built, when n + 1 > 513: a rebuild there costs
    about 28 ms at one BLAS thread, some 40 away steps, and a solve that
    drops many points rebuilds on nearly every step.
    """

    def __init__(self, active: np.ndarray, enc: _AxisEncoding, th: tuple):
        self.active = active
        self.axes = [i for i in range(3) if th[i] != 0.0]
        self.used = np.concatenate(
            [np.bincount(enc.idx[i][active], minlength=enc.sizes[i]) > 0 for i in self.axes]
        )
        n = int(np.count_nonzero(self.used))
        self.basis = None
        if n + 1 > 513:
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


def _newton_direction(P: np.ndarray, f: float, enc: _AxisEncoding, system: _ActiveSystem) -> np.ndarray | None:
    """Newton direction delta on the active points for the stationarity
    system g_a(P) = lambda, or None if the system is over its size cap or
    the solve finds it singular.

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
    mus = [np.bincount(enc.idx[i], weights=P, minlength=enc.sizes[i]) for i in system.axes]
    mu = np.concatenate(mus)[system.used]
    A, rhs, GS, s = system.A, system.rhs, system.GS, len(system.basis)
    A[:s, :s] = (GS * (system.weight / (mu * _LN2))) @ GS.T
    rhs[:s] = -(GS @ (system.weight * np.log2(mu)) + f * system.cS)
    try:
        y = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        return None
    y[s] = 0.0  # nu, in the slot that stands for the columns outside the basis
    return y[system.cols].sum(axis=1)


def _newton_step(
    P: np.ndarray, f: float, g: np.ndarray, enc: _AxisEncoding, th: tuple, system: _ActiveSystem
) -> tuple[np.ndarray, float, np.ndarray, float, str] | None:
    """One Newton step along `_newton_direction`, or None.

    Candidates, in order: if some active mass would go negative along delta,
    the step to the ratio-test boundary reach = min_a P_a / (-delta_a), with
    the first point to hit zero set to exactly 0 ("drop"); then the step
    clamped at zero and renormalized at damping 1, 1/2, 1/4, 1/8 ("newton").
    Points outside the active set keep their mass.  Returns (P, f, g, gap,
    kind) for the first candidate that lowers the gap, else None.
    """
    delta = _newton_direction(P, f, enc, system)
    if delta is None:
        return None
    active = system.active
    x = P[active]
    gap = float(g.max() - f)
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
        f2, g2 = _objective_and_scores(P2, enc, th)
        gap2 = float(g2.max() - f2)
        if gap2 < gap:
            return P2, f2, g2, gap2, kind
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
    Frank-Wolfe with an exact line search (`_line_search`) moves toward the
    best-scoring vertex or away from the worst active one, whichever
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

    def result(f: float, P: np.ndarray, gap: float, it: int) -> RhoResult:
        probs = np.maximum(P, 0.0)
        probs = probs / probs.sum()
        dist = SupportDistribution(points=tuple(points), probs=tuple(float(x) for x in probs))
        return RhoResult(value=f, argmax=dist, residual=max(gap, 0.0), iterations=it, steps=steps)

    def afw_step(P: np.ndarray, f: float, g: np.ndarray, gap: float):
        """(P, f, g, gap, kind) after one away-step Frank-Wolfe step, or
        None if it neither raises the objective nor lowers the gap.  A
        tiny step onto a dust point can lower the gap a lot while the
        renormalisation moves f down by an ulp; it is taken."""
        bases = [np.bincount(enc.idx[i], weights=P, minlength=enc.sizes[i]) for i in range(3)]
        b = int(g.argmax())
        # Away from an active point only: dust (mass at most 1e-14, left by
        # a clamped Newton step) cannot move the objective.
        ga = np.where(P > 1e-14, g, np.inf)
        a = int(ga.argmin())
        toward = g[b] - f >= f - g[a] or P[a] >= 1.0 - 1e-12
        dirs = []
        for i in range(3):
            if toward:
                d = -bases[i].copy()
                d[enc.idx[i][b]] += 1.0
            else:
                d = bases[i].copy()
                d[enc.idx[i][a]] -= 1.0
            dirs.append(d)
        gamma_max = 1.0 if toward else P[a] / (1.0 - P[a])
        gamma = _line_search(bases, dirs, th, gamma_max)
        if toward:
            P2 = (1.0 - gamma) * P
            P2[b] += gamma
            kind = "toward"
        else:
            P2 = (1.0 + gamma) * P
            P2[a] -= gamma
            P2 = np.maximum(P2, 0.0)
            kind = "away"
        P2 /= P2.sum()
        f2, g2 = _objective_and_scores(P2, enc, th)
        gap2 = float(g2.max() - f2)
        if f2 > f or gap2 < gap:
            return P2, f2, g2, gap2, kind
        return None

    P = np.full(m, 1.0 / m)
    f, g = _objective_and_scores(P, enc, th)
    gap = float(g.max() - f)
    steps = dict.fromkeys(("newton", "drop", "toward", "away"), 0)
    system = None
    for it in range(1, iter_budget + 1):
        if gap <= tol:
            return result(f, P, gap, it)
        active = np.flatnonzero(P > 1e-14)
        if system is None or not np.array_equal(active, system.active):
            system = _ActiveSystem(active, enc, th)
        # Both steps are deterministic, so a refused iteration would repeat.
        step = _newton_step(P, f, g, enc, th, system) or afw_step(P, f, g, gap)
        if step is None:
            break
        P, f, g, gap, kind = step
        steps[kind] += 1
    how = f"stalled after {it}" if step is None else f"within {iter_budget}"
    raise BudgetExceededError(
        f"no convergence to gap <= {tol} {how} iterations",
        best=result(f, P, gap, min(it, iter_budget)),
    )


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


def _cw_big_param(t: Tensor) -> int | None:
    """q if supp(t) is supp(cw_big(q)); the count test spares building cw_big(q)."""
    q = t.dims[0] - 2
    match = t.dims == (q + 2,) * 3 and len(t.entries) == 3 * q + 3
    return q if match and t.entries.keys() == cw_big(q).entries.keys() else None


def _cw_small_param(t: Tensor) -> int | None:
    """q if supp(t) is supp(cw(q)); the count test spares building cw(q)."""
    q = t.dims[0] - 1
    match = t.dims == (q + 1,) * 3 and len(t.entries) == 3 * q
    return q if match and t.entries.keys() == cw(q).entries.keys() else None


# Largest resolution, and count of lines or CW_q point-steps, the grid oracle scores.
ORACLE_GRID_LIMIT = 1 << 22
# Columns per block of the grid oracle: on a 2-vCPU x86_64 machine the
# benchmark's oracle workload ran 7% slower at 2**12 and 10% at 2**16, with
# peak RSS 42.3, 44.7 and 53.7 MB at 2**12, 2**14 and 2**16.
_GRID_BLOCK = 1 << 14


def _grid_tails(k: int, rem: int, limit: int):
    """Yield (k, n) int arrays with 0 < n <= limit: the compositions of rem
    into k <= 3 parts, each exactly once."""
    if k == 1:
        yield np.array([[rem]])
        return
    if k == 2:
        for lo in range(0, rem + 1, limit):
            a = np.arange(lo, min(lo + limit, rem + 1))
            yield np.stack([a, rem - a])
        return
    lo = 0
    while lo <= rem:
        # A first part a leaves rem - a + 1 compositions of the other two.
        lens = rem + 1 - np.arange(lo, rem + 1)
        if lens[0] > limit:
            for tail in _grid_tails(2, rem - lo, limit):
                yield np.vstack([np.full((1, tail.shape[1]), lo), tail])
            lo += 1
            continue
        hi = lo + int(np.searchsorted(np.cumsum(lens), limit, side="right"))
        lens = lens[: hi - lo]
        starts = np.cumsum(lens) - lens
        a = np.repeat(np.arange(lo, hi), lens)
        b = np.arange(len(a)) - np.repeat(starts, lens)
        yield np.stack([a, b, rem - a - b])
        lo = hi


def _grid_batches(m: int, resolution: int, block: int = _GRID_BLOCK):
    """Yield (m, n) int arrays whose columns are the compositions of
    `resolution` into m nonnegative parts, each composition exactly once.

    The last k = min(m, 3) parts are built with numpy, one sum level `rem`
    at a time and in pieces of at most `block` columns.  The leading m - k
    parts are enumerated recursively and grouped by the `rem` they leave,
    so each tail is built once and paired with all its leads at once.
    Every block has at most `block` columns, and all but the last at least
    half as many.
    """
    R = resolution
    k = min(m, 3)
    leads_by_rem: dict[int, list[tuple[int, ...]]] = {}

    def leads(prefix: tuple[int, ...], rem: int):
        if len(prefix) == m - k:
            leads_by_rem.setdefault(rem, []).append(prefix)
            return
        for c in range(rem + 1):
            leads(prefix + (c,), rem - c)

    leads((), R)
    buf, fill = np.empty((m, block), dtype=np.intp), 0
    for rem, group in leads_by_rem.items():
        lead = np.array(group, dtype=np.intp).reshape(len(group), m - k).T
        for tail in _grid_tails(k, rem, block):
            n = tail.shape[1]
            step = max(1, block // n)
            for lo in range(0, lead.shape[1], step):
                part = lead[:, lo : lo + step]
                piece = tail if m == k else np.vstack(
                    [np.repeat(part, n, axis=1), np.tile(tail, part.shape[1])]
                )
                # Pieces of at least half a block are yielded as they are;
                # smaller ones are packed until the next would overflow.
                if 2 * piece.shape[1] >= block:
                    yield piece
                    continue
                if fill + piece.shape[1] > block:
                    yield buf[:, :fill]
                    buf, fill = np.empty((m, block), dtype=np.intp), 0
                buf[:, fill : fill + piece.shape[1]] = piece
                fill += piece.shape[1]
    if fill:
        yield buf[:, :fill]


def _axis_groups(points: Sequence[Index]) -> list[list[tuple[int, ...]]]:
    """Per axis, the row indices of the points sharing each coordinate value,
    in increasing order of the value."""
    groups = []
    for axis in range(3):
        values = sorted({p[axis] for p in points})
        groups.append([tuple(r for r, p in enumerate(points) if p[axis] == v) for v in values])
    return groups


def _columns_objective(rows: np.ndarray, groups, th: tuple, xlogx) -> np.ndarray:
    """Weighted marginal entropy of each column of `rows` (one row per point).

    `xlogx` maps a marginal row to its terms p log2 p.  Each axis's terms
    are summed before the axis is weighted by theta, the order in which the
    unit(2) maximum comes out as exactly 1.0.  A term shared by two axes
    (the same set of rows) is computed once.
    """
    f = np.zeros(rows.shape[1])
    terms: dict[tuple[int, ...], np.ndarray] = {}
    for i in range(3):
        if th[i] == 0.0:
            continue
        h = np.zeros(rows.shape[1])
        for g in groups[i]:
            if g not in terms:
                marg = rows[g[0]]
                for r in g[1:]:
                    marg = marg + rows[r]
                terms[g] = xlogx(marg)
            h += terms[g]
        h *= th[i]
        f -= h
    return f


def _grid_max(points: Sequence[Index], th: tuple, resolution: int) -> float:
    """Largest weighted marginal entropy over all distributions on `points`
    whose probabilities are multiples of 1/resolution.

    Integer counts, entropy terms looked up in a table of (c/R) log2 (c/R).
    The counts of all points but the last two are enumerated: the rows of
    `_grid_batches(m - 1, R)` but the last, S, which the last two share.  f
    is concave, so discretely concave on each line x + (S - x): bisecting
    on the sign of f(x + 1) - f(x) finds the line's maximum (up to signs at
    rounding level) in about C(R + m - 2, m - 2) log2(R) column evaluations.
    The value returned is f at the points found, a value f takes on the grid.
    """
    R, m = resolution, len(points)
    if m == 1:
        return 0.0  # the one grid point is a point mass
    table = _xlog2x_rows(np.arange(R + 1) / R)
    drop = table[:-1] - table[1:]
    groups = _axis_groups(points)
    # f(x + 1) - f(x) = sum th_i (drop[rest_a + x] - drop[rest_b + S - 1 - x])
    # over the axes whose groups a and b part the last two points.
    sides = [(th[i], [r for r in a if r < m - 2], [r for r in b if r < m - 2])
             for i in range(3) for a in groups[i] for b in groups[i]
             if th[i] != 0.0 and m - 2 in a and m - 1 in b and a != b]
    best = -math.inf
    for batch in _grid_batches(m - 1, R):
        lead, S = batch[:-1], batch[-1]
        rests = [(w, lead[a].sum(axis=0), lead[b].sum(axis=0) + S - 1) for w, a, b in sides]
        lo, hi, todo = np.zeros_like(S), S.copy(), np.flatnonzero(S)
        while len(todo):
            x = (lo[todo] + hi[todo]) // 2
            rise = sum((w * (drop[a[todo] + x] - drop[b[todo] - x]) for w, a, b in rests), 0 * x)
            up = rise > 0
            lo[todo[up]] = x[up] + 1
            hi[todo[~up]] = x[~up]
            todo = todo[lo[todo] < hi[todo]]
        counts = np.vstack([lead, lo, S - lo])
        best = max(best, float(_columns_objective(counts, groups, th, table.take).max()))
    return best


def rho_grid_oracle(t: Tensor, theta: Theta | None = None, resolution: int = 1000) -> float:
    """Brute-force lower estimate of the entropy maximum, for cross-checking.

    Dense mode returns the maximum over all distributions with denominator
    `resolution` on supports of at most 6 points, bisecting the split
    between the last two by concavity (see `_grid_max`).  For the
    Coppersmith-Winograd families (recognized structurally) and uniform
    theta, concavity plus support symmetry reduce the search to the
    symmetric family, handled at any size: all resolution + 1 steps of it
    are scored in one vectorized pass.  None of this shares code with the
    optimizer.  Grids over ORACLE_GRID_LIMIT raise ResourceLimitError
    before anything is allocated.
    """
    if theta is None:
        theta = Theta.uniform()
    if resolution < 1:
        raise ValueError("resolution must be positive")
    th = theta.as_tuple()
    points = sorted(t.support().points)

    if theta.is_uniform():
        q = _cw_big_param(t)
        if q is not None and q >= 1:
            if len(points) * (resolution + 1) > ORACLE_GRID_LIMIT:
                raise ResourceLimitError(f"grid oracle: resolution {resolution} too large for CW_{q}")
            # Each of the 3q middle points carries x, each corner 1/3 - q x.
            x = np.arange(resolution + 1) / resolution / (3 * q)
            rows = np.array([x if p.count(0) == 1 else 1.0 / 3.0 - q * x for p in points])
            return float(_columns_objective(rows, _axis_groups(points), th, _xlog2x_rows).max())
        q = _cw_small_param(t)
        if q is not None:
            # Support symmetry group is transitive: the uniform distribution
            # is the symmetrized family, a single point.
            rows = np.full((len(points), 1), 1.0 / len(points))
            return float(_columns_objective(rows, _axis_groups(points), th, _xlog2x_rows)[0])

    if len(points) > 6:
        raise ValueError(
            "support too large for the dense grid oracle and no symmetry reduction applies"
        )
    if max(resolution, math.comb(resolution + len(points) - 2, len(points) - 2)) > ORACLE_GRID_LIMIT:
        raise ResourceLimitError(f"grid oracle: resolution {resolution} too large for this tensor")
    return _grid_max(points, th, resolution)


def _xlog2x_rows(p: np.ndarray) -> np.ndarray:
    """Elementwise p log2 p, with 0 where p <= 0."""
    return p * np.log2(p, out=np.zeros_like(p), where=p > 0)


# ---------------------------------------------------------------------------
# Closed forms for the Coppersmith-Winograd families


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
    """Maximizer of cw_big_marginal_entropy(q, .) on [0, 1/(3q)], in closed form."""
    if q < 1:
        raise ValueError("needs q >= 1")
    if q == 1:
        return (math.sqrt(33.0) - 3.0) / 18.0
    if q == 2:
        return 1.0 / 9.0
    return (3.0 * q - math.sqrt(32.0 + q * q)) / (6.0 * (q * q - 4.0))
