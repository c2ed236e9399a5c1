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
from dataclasses import dataclass, replace
from itertools import permutations
from typing import Hashable, Mapping

from .defaults import DEFAULT_NODE_BUDGET
from .errors import ResourceLimitError
from .tensor import Index, Support, Tensor

DEFAULT_POWER_POINT_LIMIT = 200_000


@dataclass(frozen=True)
class DiagonalResult:
    """Best free diagonal found; exact means the search tree was exhausted.
    nodes counts the nodes visited, bound_prunes the nodes whose candidates
    the bound cut, box_prunes the candidates refused by the box test that
    each node below the root makes on entry, summed over those nodes (a
    point refused in two sibling subtrees counts twice), root_orbits the
    number of orbits among the root's candidates: one per point, or one per
    orbit when the search knows a symmetry group of the support. The
    incumbent starts as the lowest point, so on a support that uses one
    coordinate on some axis the root's bound decides the search: size 1,
    exact, one node, one bound prune. power is k when the search ran on the
    k-th Kronecker power of a support (`monomial_subrank_power`), else 1;
    per_copy_rate = log2(size) / power."""

    size: int
    witness: tuple[Index, ...]
    exact: bool
    nodes: int
    bound_prunes: int
    box_prunes: int
    root_orbits: int
    power: int = 1

    @property
    def per_copy_rate(self) -> float:
        return math.log2(self.size) / self.power


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


def _bits(idx: list[int], n: int) -> int:
    """The bit mask of the indices idx, all below n."""
    bits = bytearray(n // 8 + 1)
    for i in idx:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


def _slices(pts: list[Index], axis: int) -> list[int]:
    """Per point i, the bit mask of the points sharing its coordinate on `axis`."""
    rows: dict[int, list[int]] = {}
    for i, p in enumerate(pts):
        rows.setdefault(p[axis], []).append(i)
    masks = {c: _bits(idx, len(pts)) for c, idx in rows.items()}
    return [masks[p[axis]] for p in pts]


def _cannot_beat(cand: int, room: int, slices: list[list[int]]) -> bool:
    """Whether the points of cand use at most room coordinates on some axis,
    so that adding any of them to D leaves it no bigger than the incumbent.
    At most room points decide it before any coordinate is counted."""
    if cand.bit_count() <= room:
        return True
    for sa in slices:
        left, k = cand, 0
        while left and k <= room:
            left &= ~sa[(left & -left).bit_length() - 1]
            k += 1
        if not left and k <= room:
            return True
    return False


def max_free_diagonal(
    support: Support,
    node_budget: int = DEFAULT_NODE_BUDGET,
    *,
    orbit_of: Mapping[Index, Hashable] | None = None,
) -> DiagonalResult:
    """Exact branch-and-bound search for a maximum free diagonal.

    Point sets are int bitsets over the sorted support (bit i is pts[i]). A
    node holds the diagonal D, the masks Ma of the points whose axis-a
    coordinate D uses, and the candidates: the points after D's last one in
    no Ma, taken lowest bit first (lexicographic order). Invariant:
    M0 & M1 & M2 == D, the projected box meets the support only in D. So a
    point trapped by adjoining p has a coordinate outside D's projections,
    which is p's: it lies in one of p's slices, and p is refused iff
    N0 & N1 & N2 != D | p with Na = Ma | slice_a(p). A refusal is final, as a
    trapped point shares a coordinate with D, so p stays refused in the
    whole subtree. A branch is pruned when |D| plus the per-axis count of
    coordinates among the candidates cannot beat the incumbent. The root is
    such a node: its candidates are the points of the orbits whose branch
    has not been taken (below), all points at first, and the incumbent
    starts as the lowest point, a free diagonal. So a support that uses one
    coordinate on some axis, where no free diagonal has two points, is
    decided at the root.

    A node with D nonempty whose candidates that bound does not prune
    box-tests them all on entry, drops the refused ones and, if it dropped
    any, bounds again on the admissible ones alone. Its children inherit the
    admissible set, so each child is just the node's lowest candidate left;
    the root's single points always pass. The second bound only prunes
    subtrees that cannot beat the incumbent, so against the plain tree,
    which tests each candidate when it comes to it, the search visits no
    more nodes, never ends smaller at the same budget, and ends with the
    same witness when both are exact.

    node_budget counts nodes and does not shape the tree: the search walks
    the same tree at every budget, and a run at budget B visits the first B
    nodes of the exact run, so a larger budget never ends smaller. The cost
    is the tests of the nodes a short budget cuts short: W^(x)11 (177,147
    points) at budget 300 spends most of its time in them. The result counts
    the nodes visited, the nodes the bound cut (before or after the box
    test), and the candidates the box test refused. The path is kept on a
    stack, not the call stack, so a diagonal of any size is searched without
    a recursion limit.

    orbit_of, if given, labels each point by its orbit O under a group G of
    maps of the support onto itself that send free diagonals to free
    diagonals of the same size; it is trusted, not checked. The root then
    branches once per orbit: O_j, taken in the order of their lowest points
    r_j, gets the subtree of the D with r_j in D and no point of O_1, ...,
    O_(j-1): taking a branch drops its orbit from the root's candidates, so
    the root's lowest candidate is the next orbit's lowest point. Nothing is
    lost: a free D meets a first orbit O_j, in some p, and a g in G with
    g(p) = r_j maps D into that subtree at the same size.
    Without it each point is its own orbit, which is the plain tree.
    """
    if node_budget < 1:
        raise ValueError("node_budget must be positive")
    pts = sorted(support.points)
    n = root_orbits = len(pts)
    orbit = None  # per point, the indices of its orbit's points
    if orbit_of is not None:
        members: dict[Hashable, list[int]] = {}
        orbit = [members.setdefault(orbit_of[p], []) for p in pts]
        for i, idx in enumerate(orbit):
            idx.append(i)
        root_orbits = len(members)
        del orbit_of, members  # a big power's labels go before its masks come
    s0, s1, s2 = slices = [_slices(pts, a) for a in range(3)]
    best_size, best_mask = 1, 1  # the lowest point, a free diagonal
    nodes = bound_prunes = box_prunes = 0
    exact = False
    # The node being visited, and its ancestors' with their candidates left.
    cand, size, chosen, m0, m1, m2 = (1 << n) - 1, 0, 0, 0, 0, 0
    stack = []
    push, pop = stack.append, stack.pop
    while nodes < node_budget:
        nodes += 1
        if size > best_size:
            best_size, best_mask = size, chosen
        if cand:
            room = best_size - size
            if _cannot_beat(cand, room, slices):
                bound_prunes += 1
                cand = 0
            elif size:  # box-test every candidate, drop the refused
                left = kept = cand
                while left:
                    low = left & -left
                    left ^= low
                    i = low.bit_length() - 1
                    if (m0 | s0[i]) & (m1 | s1[i]) & (m2 | s2[i]) != chosen | low:
                        kept ^= low
                if kept != cand:
                    box_prunes += (cand ^ kept).bit_count()
                    cand = kept
                    if kept and _cannot_beat(kept, room, slices):
                        bound_prunes += 1
                        cand = 0
        while not cand and stack:  # back to the nearest node with a candidate left
            cand, size, chosen, m0, m1, m2 = pop()
        if not cand:  # the tree is exhausted
            exact = True
            break
        low = cand & -cand  # on to its child at its lowest candidate
        cand ^= low
        i = low.bit_length() - 1
        if size or orbit is None:
            push((cand, size, chosen, m0, m1, m2))
        else:  # a root branch: the later ones avoid its orbit
            push((cand & ~_bits(orbit[i], n), size, chosen, m0, m1, m2))
        m0, m1, m2 = m0 | s0[i], m1 | s1[i], m2 | s2[i]
        cand &= ~(m0 | m1 | m2)
        size += 1
        chosen |= low
    witness = tuple(pts[i] for i, b in enumerate(bin(best_mask)[:1:-1]) if b == "1")
    return DiagonalResult(best_size, witness, exact, nodes, bound_prunes, box_prunes, root_orbits)


def power_support(t: Tensor, k: int) -> Support:
    """Support of the k-th Kronecker power of t, with row-major composite indices."""
    if k < 1:
        raise ValueError("power must be >= 1")
    base = sorted(t.entries)
    # A Tensor is not simple, so |supp| >= 2 and |supp|^k > the limit once k
    # reaches its bit length: the capped power decides without a huge one.
    if len(base) ** min(k, DEFAULT_POWER_POINT_LIMIT.bit_length()) > DEFAULT_POWER_POINT_LIMIT:
        raise ResourceLimitError(f"|supp|^k with k = {k} exceeds the {DEFAULT_POWER_POINT_LIMIT} point limit")
    d0, d1, d2 = t.dims
    points = [(0, 0, 0)]
    for _ in range(k):  # one more factor, as the last (least significant) digit
        points = [(i * d0 + a, j * d1 + b, l * d2 + c) for i, j, l in points for a, b, c in base]
    # Distinct and in range, built from t's checked points.
    return Support._unchecked((d0**k, d1**k, d2**k), frozenset(points))


def _power_orbits(t: Tensor, k: int) -> dict[Index, int]:
    """Label each point of supp(t^(x)k) by its orbit under the group G that
    permutes the k factors and applies, to every factor at once, an axis
    permutation that keeps t's dims and maps supp(t) onto itself.

    Each generator permutes every axis's coordinates (possibly swapping
    axes) and fixes the support, so G maps free diagonals to free diagonals
    of the same size. A point is a word of base-point indices, one per
    factor. Its orbit under the factor permutations is its sorted word, and
    its label the number of the least sorted word over the axis permutations."""
    base = sorted(t.entries)
    dims = t.dims
    where = {p: x for x, p in enumerate(base)}
    autos = []  # the axis permutations that fix supp(t), acting on base indices
    for perm in permutations(range(3)):
        if all(dims[a] == dims[perm[a]] for a in range(3)):
            image = [where.get((p[perm[0]], p[perm[1]], p[perm[2]])) for p in base]
            if None not in image:
                autos.append(image)
    d0, d1, d2 = dims
    number = {(): 0}  # sorted word -> its number, in order of appearance
    label = {(0, 0, 0): 0}
    for _ in range(k):  # as in power_support, with each point's sorted word's number
        words, number = list(number), {}
        grown = [[number.setdefault(tuple(sorted(word + (x,))), len(number))
                  for x in range(len(base))] for word in words]
        label = {(i * d0 + a, j * d1 + b, l * d2 + c): grown[w][x]
                 for (i, j, l), w in label.items() for x, (a, b, c) in enumerate(base)}
    least = [number[min(tuple(sorted(image[x] for x in word)) for image in autos)]
             for word in number]
    for p, w in label.items():
        label[p] = least[w]
    return label


def monomial_subrank_power(t: Tensor, k: int, node_budget: int = DEFAULT_NODE_BUDGET) -> DiagonalResult:
    """Free-diagonal search on supp(t^(x)k); the rate log2(size)/k lower-bounds
    log2 of the asymptotic monomial subrank (Fekete supremum over k).

    The root branches once per orbit of `_power_orbits`' group G: for a free
    D, take the first orbit O_j that D meets, at p; a g in G with
    g(p) = r_j, the orbit's lowest point, maps D to a free diagonal of the
    same size that contains r_j and misses O_1, ..., O_(j-1), the subtree
    searched for O_j (see `max_free_diagonal`)."""
    support = power_support(t, k)
    found = max_free_diagonal(support, node_budget=node_budget, orbit_of=_power_orbits(t, k))
    return replace(found, power=k)
