"""Free-diagonal search: combinatorial lower bounds on monomial subrank.

A free diagonal is a subset D of a support whose points are pairwise distinct
in every coordinate and whose projected box meets the support only in D.
Zeroing all rows/columns/slices outside the projections then leaves exactly a
diagonal of size |D|, so a free diagonal of size n certifies that the unit
tensor of size n is a monomial restriction of any tensor with that support.

Free diagonals certify monomial restriction only.  Degeneration can extract
more: a combinatorial degeneration (Strassen 1991) keeps a diagonal D whose
integer potentials u0(x) + u1(y) + u2(z) vanish on D and are positive on the
rest of the support, and it is not modelled here.  For supp(<2,2,2>) the
largest free diagonal has size 2, while a combinatorial degeneration reaches
3, so <3> degenerates from <2,2,2> but is no monomial restriction of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .errors import ResourceLimitError
from .tensor import Index, Support, Tensor

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_POWER_POINT_LIMIT = 200_000


@dataclass(frozen=True)
class DiagonalResult:
    """Best free diagonal found; exact means the search tree was exhausted.
    nodes counts the nodes visited, the prunes the branches cut by each test."""

    size: int
    witness: tuple[Index, ...]
    exact: bool
    nodes: int
    bound_prunes: int
    box_prunes: int


@dataclass(frozen=True)
class PowerDiagonalResult:
    """Free-diagonal search on the k-th Kronecker power of a support."""

    size: int
    per_copy_rate: float
    exact: bool
    witness: tuple[Index, ...]
    nodes: int
    bound_prunes: int
    box_prunes: int


def is_free_diagonal(support: Support, points) -> bool:
    """Check the free-diagonal property of an ordered point list inside a support."""
    pts = list(points)
    if not set(pts) <= support.points:
        raise ValueError("diagonal points must lie inside the support")
    for axis in range(3):
        coords = [p[axis] for p in pts]
        if len(set(coords)) != len(coords):
            return False
    proj = [set(p[axis] for p in pts) for axis in range(3)]
    chosen = set(pts)
    for s in support.points:
        if s not in chosen and all(s[a] in proj[a] for a in range(3)):
            return False
    return True


class _Budget(Exception):
    pass


def _slices(pts: list[Index], axis: int) -> list[int]:
    """Per point i, the bit mask of the points sharing its coordinate on `axis`."""
    rows: dict[int, list[int]] = {}
    for i, p in enumerate(pts):
        rows.setdefault(p[axis], []).append(i)
    masks = {}
    for c, idx in rows.items():
        bits = bytearray(len(pts) // 8 + 1)
        for i in idx:
            bits[i >> 3] |= 1 << (i & 7)
        masks[c] = int.from_bytes(bits, "little")
    return [masks[p[axis]] for p in pts]


def max_free_diagonal(support: Support, node_budget: int = DEFAULT_NODE_BUDGET) -> DiagonalResult:
    """Exact branch-and-bound search for a maximum free diagonal.

    Point sets are int bitsets over the sorted support (bit i is pts[i]). A
    node holds the diagonal D, the masks Ma of the points whose axis-a
    coordinate D uses, and the candidates: the points after D's last one in
    no Ma, taken lowest bit first (lexicographic order). Invariant:
    M0 & M1 & M2 == D, the projected box meets the support only in D. So a
    point trapped by adjoining p has a coordinate outside D's projections,
    which is p's: it lies in one of p's slices, and p is refused iff
    N0 & N1 & N2 != D | p with Na = Ma | slice_a(p). A refusal is final, as a
    trapped point shares a coordinate with D. A branch is pruned when |D|
    plus the per-axis count of coordinates among the candidates cannot beat
    the incumbent. node_budget counts nodes, as do the result's counters.
    """
    if node_budget < 1:
        raise ValueError("node_budget must be positive")
    pts = sorted(support.points)
    s0, s1, s2 = slices = [_slices(pts, a) for a in range(3)]
    best_size = best_mask = nodes = bound_prunes = box_prunes = 0

    def walk(cand: int, size: int, chosen: int, m0: int, m1: int, m2: int) -> None:
        nonlocal best_size, best_mask, nodes, bound_prunes, box_prunes
        if nodes == node_budget:
            raise _Budget
        nodes += 1
        if size > best_size:
            best_size, best_mask = size, chosen
        if not cand:
            return
        room = best_size - size
        for sa in slices:  # prune iff some axis has at most `room` coordinates left
            left, k = cand, 0
            while left and k <= room:
                left &= ~sa[(left & -left).bit_length() - 1]
                k += 1
            if not left and k <= room:
                bound_prunes += 1
                return
        while cand:
            low = cand & -cand
            cand ^= low
            i = low.bit_length() - 1
            n0, n1, n2 = m0 | s0[i], m1 | s1[i], m2 | s2[i]
            if n0 & n1 & n2 != chosen | low:
                box_prunes += 1
                continue
            walk(cand & ~(n0 | n1 | n2), size + 1, chosen | low, n0, n1, n2)

    exact = True
    try:
        walk((1 << len(pts)) - 1, 0, 0, 0, 0, 0)
    except _Budget:
        exact = False
    witness = tuple(pts[i] for i, b in enumerate(bin(best_mask)[:1:-1]) if b == "1")
    return DiagonalResult(best_size, witness, exact, nodes, bound_prunes, box_prunes)


def power_support(t: Tensor, k: int, max_points: int = DEFAULT_POWER_POINT_LIMIT) -> Support:
    """Support of the k-th Kronecker power of t, with row-major composite indices."""
    if k < 1:
        raise ValueError("power must be >= 1")
    base = sorted(t.entries)
    # A Tensor is not simple, so |supp| >= 2 and |supp|^k > max_points once k
    # reaches max_points.bit_length(): the capped power decides without a huge one.
    if len(base) ** min(k, max_points.bit_length()) > max_points:
        raise ResourceLimitError(f"|supp|^k with k = {k} exceeds the {max_points} point limit")
    dims = tuple(d**k for d in t.dims)
    points = set()
    for combo in product(base, repeat=k):
        idx = [0, 0, 0]
        for a in range(3):
            for p in combo:
                idx[a] = idx[a] * t.dims[a] + p[a]
        points.add(tuple(idx))
    return Support(dims, frozenset(points))


def monomial_subrank_power(
    t: Tensor,
    k: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
    max_points: int = DEFAULT_POWER_POINT_LIMIT,
) -> PowerDiagonalResult:
    """Free-diagonal search on supp(t^(x)k); the rate log2(size)/k lower-bounds
    log2 of the asymptotic monomial subrank (Fekete supremum over k)."""
    sup = power_support(t, k, max_points=max_points)
    found = max_free_diagonal(sup, node_budget=node_budget)
    rate = math.log2(found.size) / k if found.size > 0 else -math.inf
    return PowerDiagonalResult(
        found.size, rate, found.exact, found.witness, found.nodes, found.bound_prunes, found.box_prunes
    )
