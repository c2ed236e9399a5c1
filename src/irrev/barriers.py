"""Irreversibility lower bounds and the barrier formulas they imply.

The irreversibility of a tensor is the ratio of the logs of its asymptotic
rank and asymptotic subrank.  Here the asymptotic rank is lower-bounded by
the largest flattening rank and the asymptotic subrank is upper-bounded by
the entropy maximum over support distributions, so

    irr_lb = log2(max flattening rank) / entropy maximum

is a certified lower bound on irreversibility.  Every barrier formula in this
module is a closed-form function of such lower bounds: any upper bound on the
matrix multiplication exponent proved through an intermediate tensor t is at
least 2 * irr(t), and imposing more structure (Schonhage-style outer sums,
rectangular targets, the laser method on cw_q) strengthens the barrier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .entropy import (
    DEFAULT_ITER_BUDGET,
    DEFAULT_TOL,
    RhoResult,
    Theta,
    binary_entropy,
    cw_big_entropy_argmax,
    cw_big_marginal_entropy,
    cw_small_entropy_bound,
    rho_upper,
    tn_entropy_bound,
)
from .errors import BudgetExceededError, DegenerateInputError
from .linalg import flattening_ranks
from .tensor import Tensor, cw_param, to_json

# The interpreter's own SHA-256, which loads no OpenSSL (hashlib's import
# costs about 6 ms and 3.4 MB of RSS); hashlib where it is missing.
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256


@dataclass(frozen=True)
class BarrierReport:
    """Everything the irreversibility bound says about one tensor."""

    tensor_id: str
    flattening_ranks: tuple[int, int, int]
    rho: RhoResult
    theta_used: Theta
    irr_lb: float
    barrier_basic: float
    barrier_laser: float | None
    notes: str

    def to_json_dict(self) -> dict:
        return {
            "tensor_id": self.tensor_id,
            "flattening_ranks": list(self.flattening_ranks),
            "rho": self.rho.to_json_dict(),
            "theta_used": list(self.theta_used.as_tuple()),
            "irr_lb": self.irr_lb,
            "barrier_basic": self.barrier_basic,
            "barrier_laser": self.barrier_laser,
            "notes": self.notes,
        }


def tensor_content_id(t: Tensor) -> str:
    """Stable id for a tensor: short hash of its canonical serialization."""
    return _sha256(to_json(t).encode()).hexdigest()[:12]


def _irr(log_rank: float, rho: float) -> float:
    """The irreversibility bound log_rank / rho, from a log2 rank bound and
    an entropy maximum."""
    if rho <= 0.0:
        raise DegenerateInputError(
            "entropy maximum is zero; irreversibility bound undefined for this input"
        )
    return log_rank / rho


def irr_lower(
    t: Tensor,
    theta: Theta | None = None,
    tol: float = DEFAULT_TOL,
    search_theta: bool = False,
    iter_budget: int = DEFAULT_ITER_BUDGET,
) -> BarrierReport:
    """Irreversibility lower bound for t, with the basic barrier 2 * irr_lb.

    Any single theta yields a valid bound; search_theta minimizes the entropy
    maximum over the theta simplex to tighten it, and notes the search's
    solve count and duality gap.  Giving both theta and search_theta is a
    ValueError: the search would replace the given theta.
    """
    if theta is not None and search_theta:
        raise ValueError("give either theta or search_theta, not both")
    if theta is None:
        theta = Theta.uniform()
    ranks = flattening_ranks(t)
    notes: list[str] = []
    if search_theta:
        search = min_rho_over_theta(t, tol=tol, iter_budget=iter_budget)
        theta, rho = search.theta, search.rho
        early = f" ({search.stalled} stopped early, cuts only)" if search.stalled else ""
        notes.append(f"theta search: {search.solves} solves{early}, duality gap {search.gap:.2g}")
    else:
        rho = rho_upper(t, theta, tol=tol, iter_budget=iter_budget)
    irr_lb = _irr(math.log2(max(ranks)), rho.value)
    if irr_lb < 1.0:
        notes.append("bound-vacuous: irr_lb < 1, the bound carries no information")
    laser = None
    q = cw_param(t)
    if q is not None and q >= 2:
        laser = cw_laser_barrier(q, "flattening")
        notes.append(f"laser barrier attached for recognized cw_{q} support")
    return BarrierReport(
        tensor_id=tensor_content_id(t),
        flattening_ranks=ranks,
        rho=rho,
        theta_used=theta,
        irr_lb=irr_lb,
        barrier_basic=2.0 * irr_lb,
        barrier_laser=laser,
        notes="; ".join(notes),
    )


# Cap on the entropy solves of one theta search.  The cutting-plane search
# closes the gap in one solve on cyclically symmetric supports and in at most
# 44 on 500 random 4- to 10-point supports tried; the cap only bounds the cost
# of a support where float noise keeps the gap open.
THETA_SEARCH_MAX_SOLVES = 60


@dataclass(frozen=True)
class ThetaSearch:
    """The best theta found and the rho_upper result there, with the
    search's evidence: solves, the number of entropy solves; stalled, how
    many of them stopped early and gave only their cut; and gap, the final
    duality gap (smallest value seen minus the certified lower bound,
    clamped at 0).
    """

    theta: Theta
    rho: RhoResult
    solves: int
    stalled: int
    gap: float


def _cut_minimum(cuts: np.ndarray) -> tuple[float, np.ndarray]:
    """Minimum over the theta simplex of max_k theta . cuts[k], and the next
    theta to solve at.

    The model is convex and piecewise linear, so its minimum sits at a vertex
    of its linearity regions: a simplex corner, a point of a simplex edge
    where two cuts tie, or a point where three cuts tie.  In homogeneous
    coordinates each is the cross product of two plane normals, normalised to
    sum 1; all of them are tried, and the best is the next theta.
    """
    eye = np.eye(3)
    cands = [eye]
    k = len(cuts)
    if k >= 2:
        i, j = np.triu_indices(k, 1)
        diff = cuts[i] - cuts[j]
        cands.append(np.cross(diff[:, None, :], eye[None, :, :]).reshape(-1, 3))
    if k >= 3:
        i, j, l = np.array(list(combinations(range(k), 3))).T
        cands.append(np.cross(cuts[i] - cuts[j], cuts[i] - cuts[l]))
    c = np.vstack(cands)
    s = c.sum(axis=1)
    c, s = c[s != 0.0], s[s != 0.0]
    theta = c / s[:, None]
    theta = theta[(theta >= -1e-12).all(axis=1)]
    theta = np.maximum(theta, 0.0)
    theta /= theta.sum(axis=1, keepdims=True)
    model = (theta @ cuts.T).max(axis=1)
    nxt = model.argmin()
    return float(model[nxt]), theta[nxt]


def min_rho_over_theta(
    t: Tensor,
    tol: float = DEFAULT_TOL,
    iter_budget: int = DEFAULT_ITER_BUDGET,
) -> ThetaSearch:
    """Minimize the entropy maximum over the theta simplex, with a certificate.

    phi(theta) = max_P sum_i theta_i H_i(P) is convex in theta, and by Sion's
    minimax theorem its minimum equals max_P min_i H_i(P).  Cutting planes
    (Kelley's method): each solve at theta_k reports the marginal entropies
    h_k of its final P_k (`RhoResult.entropies`), which give the cut
    theta . h_k <= phi(theta).  The minimum over the simplex of the cuts'
    maximum is a lower bound LB on the minimum of phi; by LP duality and
    concavity of entropy, the mixture of the P_k with the LP's dual weights
    has min_i H_i >= LB.  The smallest value seen is the upper bound UB.  The
    search starts at uniform theta and moves to the cut model's minimiser.
    It stops once UB - LB <= tol, when the next theta was solved already, or
    after THETA_SEARCH_MAX_SOLVES solves.

    A solve after the first that raises BudgetExceededError still gives the
    cut of its best P (`exc.best.entropies`), since every P on the support
    has theta . h(P) <= phi(theta); its value is never the reported one.  A first solve that
    raises ends the search with that error.

    Returns theta and rho of the smallest value seen, so the result
    never loses to uniform theta and its rho is a plain rho_upper result at
    that theta.  Any theta yields a valid bound, so a search stopped by the
    cap only bounds less tightly.
    """
    theta = Theta.uniform()
    seen = {theta}
    best: tuple[Theta, RhoResult] | None = None
    cuts: list[tuple[float, float, float]] = []
    stalled = 0
    for solves in range(1, THETA_SEARCH_MAX_SOLVES + 1):
        try:
            rho = rho_upper(t, theta, tol=tol, iter_budget=iter_budget)
            if best is None or rho.value < best[1].value:
                best = (theta, rho)
        except BudgetExceededError as exc:
            if best is None:
                raise
            rho, stalled = exc.best, stalled + 1
        cuts.append(rho.entropies)
        lower, point = _cut_minimum(np.array(cuts))
        gap = best[1].value - lower
        if gap <= tol:
            break
        theta = Theta(*(float(x) for x in point))
        if theta in seen:
            break  # a repeated solve adds no cut
        seen.add(theta)
    return ThetaSearch(best[0], best[1], solves, stalled, max(gap, 0.0))


# ---------------------------------------------------------------------------
# Barrier formulas


def barrier_intermediate(irr_lb: float) -> float:
    """Barrier for any approach through a fixed intermediate tensor: 2 * irr,
    the Schonhage barrier with no unit factors removed."""
    return barrier_schonhage(irr_lb, 0, 1)


def _outer_barrier(irr: float, alpha: float, beta: float) -> float:
    """2 irr + (alpha / beta) (irr - 1): the basic barrier 2 irr, raised by an
    outer structure that removes alpha and divides by beta (see
    barrier_schonhage, barrier_rect and cw_laser_barrier)."""
    return 2.0 * irr + (alpha / beta) * (irr - 1.0)


def barrier_schonhage(irr_lb: float, alpha: int, beta: int) -> float:
    """Barrier when the final step subtracts alpha unit-tensor factors and
    divides by beta: ((alpha + 2 beta) irr - alpha) / beta."""
    if not 1.0 <= irr_lb < math.inf:
        raise ValueError("irreversibility is finite and never below 1")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if beta <= 0:
        raise ValueError("beta must be positive")
    return _outer_barrier(irr_lb, alpha, beta)


def barrier_rect(
    t: Tensor,
    alpha: int,
    a: int,
    b: int,
    c: int,
    tol: float = DEFAULT_TOL,
) -> float:
    """Barrier for approaches targeting the rectangular tensor <a,b,c> with
    alpha diagonal factors removed, in terms of the cyclic symmetrization.

    The bound is irr(cyc t) for cyc t = t (x) rot(t) (x) rot^2(t), computed
    from t alone with two identities: flattening ranks multiply under (x), so
    every flattening of cyc t has rank r1 r2 r3; and in a fixed basis the
    entropy maximum adds under (x), so rho_theta(cyc t) is the sum of rho(t)
    at the three cyclic rotations of theta.  That sum is convex in theta
    (rho_theta is a maximum of maps linear in theta) and rotation-invariant,
    so it is least at uniform theta, where it is 3 rho(t): no other theta
    gives a larger bound.  The one solve runs at tol / 3, so the sum is
    within tol of its maximum.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    if min(a, b, c) < 1 or a * b * c < 2:
        raise ValueError("need abc >= 2")
    rho = rho_upper(t, tol=tol / 3.0).value
    irr = _irr(math.log2(math.prod(flattening_ranks(t))), 3.0 * rho)
    return _outer_barrier(irr, alpha, math.log2(a * b * c) / 3.0)


def _cw_irr(q: int, rank_mode: str) -> float:
    """The irreversibility bound of cw_q under rank_mode: 'flattening' uses
    the certified rank bound log2(q+1); 'conjectured' assumes the conversion
    cost from diagonals is log2(q+2)."""
    if q < 2:
        raise ValueError("needs q >= 2")
    if rank_mode not in ("flattening", "conjectured"):
        raise ValueError(f"rank_mode must be 'flattening' or 'conjectured', got {rank_mode!r}")
    log_rank = math.log2(q + 1) if rank_mode == "flattening" else math.log2(q + 2)
    return _irr(log_rank, cw_small_entropy_bound(q))


def cw_laser_barrier(q: int, rank_mode: str = "flattening") -> float:
    """Barrier for the laser method on cw_q with its standard outer structure,
    at the rank bound rank_mode names (see _cw_irr)."""
    return _outer_barrier(_cw_irr(q, rank_mode), binary_entropy(1.0 / 3.0), math.log2(q) / 3.0)


def cw_better_barrier(q: int) -> float:
    """Basic barrier for cw_q assuming the conjectured conversion cost log2(q+2)."""
    return 2.0 * _cw_irr(q, "conjectured")


# ---------------------------------------------------------------------------
# Table generators: each row a closed form, with no optimizer call


def _table_range(table: str, var: str, lo: int, hi: int, first: int) -> range:
    if lo < first:
        raise ValueError(f"{table} table starts at {var} = {first}")
    if lo > hi:
        raise ValueError(f"{table} table range {var} = {lo}..{hi} is empty")
    return range(lo, hi + 1)


def cw_table(q_lo: int = 2, q_hi: int = 7) -> list[tuple[int, float]]:
    """Basic barrier for the small Coppersmith-Winograd family."""
    return [(q, 2.0 * _cw_irr(q, "flattening")) for q in _table_range("cw", "q", q_lo, q_hi, 2)]


def cw_big_table(q_lo: int = 1, q_hi: int = 6) -> list[tuple[int, float]]:
    """Basic barrier for the big Coppersmith-Winograd family: each row is
    2 log2(q+2) / f(argmax), f the marginal entropy of the symmetric
    distribution on supp(CW_q) (cw_big_marginal_entropy at
    cw_big_entropy_argmax)."""
    rows = []
    for q in _table_range("cw_big", "q", q_lo, q_hi, 1):
        peak = cw_big_marginal_entropy(q, cw_big_entropy_argmax(q))
        rows.append((q, 2.0 * _irr(math.log2(q + 2), peak)))
    return rows


def tn_table(m_lo: int = 2, m_hi: int = 7) -> list[tuple[int, int, float]]:
    """Basic barrier for reduced polynomial multiplication tensors,
    2 log2(m) / tn_entropy_bound(m), a closed-form entropy bound.

    Rows are (m, m - 1, barrier): m is the tensor size (indices 0..m-1), and
    m - 1 is the row index used by the conventional family table, which is
    shifted by one relative to the size.
    """
    return [(m, m - 1, 2.0 * _irr(math.log2(m), tn_entropy_bound(m)))
            for m in _table_range("tn", "m", m_lo, m_hi, 2)]


def laser_table(
    q_lo: int = 2, q_hi: int | None = None, rank_mode: str = "flattening"
) -> list[tuple[int, float]]:
    """Laser-method barrier for cw_q; q_hi defaults to 11 under the
    conjectured rank and to 7 under the flattening rank."""
    if q_hi is None:
        q_hi = 11 if rank_mode == "conjectured" else 7
    return [(q, cw_laser_barrier(q, rank_mode)) for q in _table_range("laser", "q", q_lo, q_hi, 2)]


def better_table(q_lo: int = 2, q_hi: int = 12) -> list[tuple[int, float]]:
    return [(q, cw_better_barrier(q)) for q in _table_range("better", "q", q_lo, q_hi, 2)]
