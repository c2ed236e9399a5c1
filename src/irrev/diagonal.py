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
from collections import Counter
from dataclasses import dataclass, replace
from itertools import permutations
from typing import Callable, Hashable

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
    number of orbits the root branches on: one per point, or one per orbit
    when the search knows a symmetry group of the support, and
    stabiliser_orbits, likewise, the number each child of the root branches
    on, summed over those that branch; a node whose bound prunes it
    branches on none. The incumbent starts as the lowest point, so on a
    support that uses one coordinate on some axis the root's bound decides
    the search: size 1, exact, one node, one bound prune, no orbits. power
    is k when the search ran on the k-th Kronecker power of a support
    (`monomial_subrank_power`), else 1; per_copy_rate = log2(size) / power."""

    size: int
    witness: tuple[Index, ...]
    exact: bool
    nodes: int
    bound_prunes: int
    box_prunes: int
    root_orbits: int
    stabiliser_orbits: int
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


def _cannot_beat(cand: int, room: int, s0: list[int], s1: list[int], s2: list[int]) -> bool:
    """Whether the points of cand use at most room coordinates on some axis
    (s0, s1, s2 are the slices), so no node below beats the incumbent: at
    most room points, or an axis that room strips empty, axes in turn."""
    if cand.bit_count() <= room:
        return True
    l0 = l1 = l2 = cand
    for _ in range(room):
        if not (l0 := l0 & ~s0[l0.bit_length() - 1]):
            return True
        if not (l1 := l1 & ~s1[l1.bit_length() - 1]):
            return True
        if not (l2 := l2 & ~s2[l2.bit_length() - 1]):
            return True
    return False


def _lined(pts: list[Index]) -> int:
    """The bit mask of the points that share two coordinates with another."""
    pairs = [Counter((p[a], p[b]) for p in pts) for a, b in ((0, 1), (0, 2), (1, 2))]
    return _bits([i for i, (x, y, z) in enumerate(pts)
                  if pairs[0][x, y] > 1 or pairs[1][x, z] > 1 or pairs[2][y, z] > 1], len(pts))


def _indices(mask: int) -> list[int]:
    """The indices of the bits set in mask, in increasing order."""
    return [i for i, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


def _orbits(orbit_of, pts: list[Index], chosen: int, cand: int):
    """A node's candidates grouped by their orbits: an iterator over the
    orbits' lists of indices in the order of their lowest ones, or () for a
    point each, and the number of orbits."""
    if orbit_of is None:
        return (), cand.bit_count()
    idx = _indices(cand)
    labels = orbit_of(tuple(pts[i] for i in _indices(chosen)), [pts[i] for i in idx])
    if labels is None:
        return (), len(idx)
    members: dict[Hashable, list[int]] = {}
    for i, label in zip(idx, labels):
        members.setdefault(label, []).append(i)
    return iter(members.values()), len(members)


def max_free_diagonal(
    support: Support,
    node_budget: int = DEFAULT_NODE_BUDGET,
    *,
    orbit_of: Callable[[tuple[Index, ...], list[Index]], list[Hashable] | None] | None = None,
) -> DiagonalResult:
    """Exact branch-and-bound search for a maximum free diagonal.

    Point sets are int bitsets over the sorted support (bit i is pts[i]). A
    node holds the diagonal D, the masks Ma of the points whose axis-a
    coordinate D uses, and the candidates: the points after D's last one in
    no Ma, taken lowest bit first (lexicographic order). Invariant:
    M0 & M1 & M2 == D, the projected box meets the support only in D. So a
    point r that adjoining p traps (r outside D + p, each coordinate in
    D + p's projections) uses a coordinate of p and one of D, and p stays
    refused in the whole subtree. A branch is pruned when |D| plus the
    per-axis count of coordinates among the candidates cannot beat the
    incumbent. The root is such a node, with every point a candidate, and
    the incumbent starts as the lowest point, a free diagonal. So a support
    that uses one coordinate on some axis, where no free diagonal has two
    points, is decided at the root.

    A node with D nonempty whose candidates that bound does not prune drops
    the refused ones on entry and, if it dropped any, bounds again on the
    admissible ones alone; its children inherit the admissible set. So at
    D = E + q every candidate p passed at E, as did q (at the root all do),
    and an r that p traps uses a coordinate of q too. Either r takes one
    coordinate from p, on axis a, and lies in the few points
    (slice_b(q) & Mc) | (Mb & slice_c(q)), refusing its whole axis-a slice,
    or two, and p is `_lined` and box-tested alone. The second bound only
    prunes subtrees that cannot beat the incumbent, so against the plain
    tree, which tests each candidate when it comes to it, the search visits
    no more nodes, never ends smaller at the same budget, and ends with the
    same witness when both are exact.

    node_budget counts nodes and does not shape the tree: the search walks
    the same tree at every budget, and a run at budget B visits the first B
    nodes of the exact run, so a larger budget never ends smaller. The
    result counts the nodes visited, the nodes the bound cut (before or
    after the box test), and the candidates the box test refused. The path
    is kept on a stack, not the call stack, so a diagonal of any size is
    searched without a recursion limit.

    orbit_of, if given, is asked when a node with |D| <= 1 is entered and
    branches: orbit_of(D, candidates), D and the candidates as points,
    labels each candidate by its orbit under the pointwise stabiliser of D
    in a group G of maps of the support onto itself that send free
    diagonals to free diagonals of the same size, the same G at every call,
    or returns None for a point each; it is trusted, not checked. The node then branches
    once per orbit: O_j, taken in the order of their lowest points r_j, gets
    the subtree of D + r_j with no point of O_1, ..., O_(j-1), as taking a
    branch drops its orbit from the node's candidates, so the next lowest
    candidate is the next orbit's lowest point. Nothing is lost: the
    stabiliser S of D fixes D, maps the node's candidates onto themselves
    (those of the root are every point, and the refused ones are refused
    alike) and maps onto itself each orbit that an ancestor's earlier
    branches dropped, being part of that ancestor's stabiliser. So a free
    diagonal in the node's subtree meets a first orbit O_j, in some p, and
    an s in S with s(p) = r_j maps it into the subtree of r_j at the same
    size. The result counts the root's orbits and, summed over the nodes
    with |D| = 1 that branch, theirs. Without orbit_of, or where it returns
    None, each candidate is its own orbit, which is the plain tree.
    """
    if node_budget < 1:
        raise ValueError("node_budget must be positive")
    pts = sorted(support.points)
    n = len(pts)
    lined = _lined(pts)
    s0, s1, s2 = [_slices(pts, a) for a in range(3)]
    best_size, best_mask = 1, 1  # the lowest point, a free diagonal
    nodes = bound_prunes = box_prunes = root_orbits = stabiliser_orbits = 0
    exact = False
    # The node being visited, and its ancestors' with their candidates left.
    # orbit is, at a node with |D| <= 1, its orbits not yet branched on (see
    # _orbits), grouped on entry; below, () for a point each. A branch drops
    # its whole orbit, so the lowest candidate left is always the lowest
    # point of the next orbit.
    cand, size, chosen, m0, m1, m2, orbit = (1 << n) - 1, 0, 0, 0, 0, 0, ()
    stack = []
    push, pop = stack.append, stack.pop
    while nodes < node_budget:
        nodes += 1
        if size > best_size:
            best_size, best_mask = size, chosen
        if cand:
            room = best_size - size
            if _cannot_beat(cand, room, s0, s1, s2):
                bound_prunes += 1
                cand = 0
            elif size:  # drop the candidates that q, D's newest point, refuses
                a0, a1, a2 = s0[q] ^ qbit, s1[q] ^ qbit, s2[q] ^ qbit  # q's slices without q
                refused = 0  # the axis-a slices of the r that take one coordinate from p
                for sa, trapped in (s0, a1 & m2 | m1 & a2), (s1, a0 & m2 | m0 & a2), (s2, a0 & m1 | m0 & a1):
                    while trapped:
                        r = sa[trapped.bit_length() - 1]
                        refused, trapped = refused | r, trapped & ~r
                kept = cand & ~refused
                left = kept & lined  # an r that takes two: tested candidate by candidate
                while left:
                    i = left.bit_length() - 1
                    bit = 1 << i
                    left ^= bit
                    if (m0 | s0[i]) & (m1 | s1[i]) & (m2 | s2[i]) != chosen | bit:
                        kept ^= bit
                if kept != cand:
                    box_prunes += (cand ^ kept).bit_count()
                    cand = kept
                    if kept and _cannot_beat(kept, room, s0, s1, s2):
                        bound_prunes += 1
                        cand = 0
            if cand and size < 2:  # group the candidates left
                orbit, count = _orbits(orbit_of, pts, chosen, cand)
                if size:
                    stabiliser_orbits += count
                else:
                    root_orbits = count
        while not cand and stack:  # back to the nearest node with a candidate left
            cand, size, chosen, m0, m1, m2, orbit = pop()
        if not cand:  # the tree is exhausted
            exact = True
            break
        qbit = cand & -cand  # on to its child at its lowest candidate
        cand ^= qbit
        q = qbit.bit_length() - 1
        # The later siblings avoid the child's orbit.
        push((cand & ~_bits(next(orbit), n) if orbit else cand, size, chosen, m0, m1, m2, orbit))
        m0, m1, m2 = m0 | s0[q], m1 | s1[q], m2 | s2[q]
        cand &= ~(m0 | m1 | m2)
        size += 1
        chosen |= qbit
        orbit = ()
    witness = tuple(pts[i] for i in _indices(best_mask))
    return DiagonalResult(best_size, witness, exact, nodes, bound_prunes, box_prunes, root_orbits,
                          stabiliser_orbits)


def power_support(t: Tensor, k: int) -> Support:
    """Support of the k-th Kronecker power of t, with row-major composite indices."""
    return _power_points(t, k)[1]


def _power_points(t: Tensor, k: int) -> tuple[list[Index], Support]:
    """The points of supp(t^(x)k), built factor by factor from the sorted
    support base: factor f of the one at place i is base[digit f of i in
    base |base|], the first most significant; and the Support they make."""
    if k < 1:
        raise ValueError("power must be >= 1")
    base = sorted(t.entries)
    # A Tensor is not simple, so |supp| >= 2 and |supp|^k > the limit once k
    # reaches its bit length: the capped power decides without a huge one.
    if len(base) ** min(k, DEFAULT_POWER_POINT_LIMIT.bit_length()) > DEFAULT_POWER_POINT_LIMIT:
        raise ResourceLimitError(f"|supp|^k with k = {k} exceeds the {DEFAULT_POWER_POINT_LIMIT} point limit")
    d0, d1, d2 = t.dims
    points = [(0, 0, 0)]
    for _ in range(k):
        points = [(i * d0 + a, j * d1 + b, l * d2 + c) for i, j, l in points for a, b, c in base]
    # Distinct and in range, built from t's checked points.
    return points, Support._unchecked((d0**k, d1**k, d2**k), frozenset(points))


# The symmetry search spends at most this many steps per support point; a
# step is one point recoloured in one round of colour refinement. Each named
# family's search ends within 69 per point (cw(2)), and the bound keeps a
# large symmetric support to 128 rounds over the doubled support.
_SYMMETRY_STEPS_PER_POINT = 256


def _find(parent: list[int], x: int) -> int:
    """The root of x in the union-find forest parent, halving its path."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _is_automorphism(base: list[Index], perm: tuple[int, ...], image: list[int]) -> bool:
    """Whether x -> image[x] is an automorphism of the support `base`: a
    permutation of its points that, on each axis a, maps the points' axis-a
    coordinates to their images' axis-perm[a] coordinates by a well-defined
    map. Each such map is onto, as every point is an image, so axis perm[a]
    uses no more coordinates than axis a; around each cycle of perm the
    counts are then equal and the maps injective. So two points share their
    axis-a coordinate iff their images share their axis-perm[a] one, and the
    map sends free diagonals to free diagonals of the same size, as does
    applying automorphisms of one perm to the factors of a power, each its
    own."""
    if sorted(perm) != [0, 1, 2] or sorted(image) != list(range(len(base))):
        return False
    for a, b in enumerate(perm):
        to: dict[int, int] = {}
        for p, y in zip(base, image):
            if to.setdefault(p[a], base[y][b]) != base[y][b]:
                return False
    return True


def _structure(base: list[Index]):
    """The support as coloured points and coordinates: per point the ids of
    its three coordinates, per coordinate id its points, and per coordinate
    id its axis, which is its first colour. Ids grow with the coordinate
    within an axis."""
    keys = [(a, c) for a in range(3) for c in sorted({p[a] for p in base})]
    ids = {key: v for v, key in enumerate(keys)}
    pts = [(ids[0, p[0]], ids[1, p[1]], ids[2, p[2]]) for p in base]
    members: list[list[int]] = [[] for _ in keys]
    for i, p in enumerate(pts):
        for v in p:
            members[v].append(i)
    return pts, members, [a for a, _ in keys]


def _joint(structure, perm: tuple[int, ...]):
    """The disjoint union of a `_structure` and its copy with the axes
    permuted by perm: the copy's point j is point order[j], with the copy of
    its axis-perm[a] coordinate on axis a, and order sorts the points by
    these permuted coordinates. Returns the union's points, members and
    first colours, and order."""
    pts, members, axis = structure
    n, m = len(pts), len(members)
    order = sorted(range(n), key=lambda i: tuple(pts[i][b] for b in perm))
    at = [0] * n
    for j, i in enumerate(order):
        at[i] = n + j
    to = {b: a for a, b in enumerate(perm)}
    return (pts + [tuple(pts[i][b] + m for b in perm) for i in order],
            members + [[at[i] for i in ms] for ms in members],
            axis + [to[a] for a in axis], order)


def _refine(pts, members, pc: list[int], cc: list[int], budget: int):
    """Colour refinement until no class splits or the budget is spent: a
    coordinate's next colour is its colour and the multiset of its points'
    colours, a point's its colour and its coordinates' colours. Colours are
    numbered by one table over both sides of a joint structure, so they
    compare across the sides. pc must already tell apart points whose
    coordinates cc tells apart, so a step that splits no class ends it.
    Returns the colourings and the budget left."""
    ccount, pcount = len(set(cc)), len(set(pc))
    while budget > 0:
        budget -= len(pts)
        key: dict = {}
        cc = [key.setdefault((cc[v], tuple(sorted([pc[i] for i in m]))), len(key))
              for v, m in enumerate(members)]
        if len(key) == ccount:
            break
        ccount, key = len(key), {}
        pc = [key.setdefault((pc[i], cc[u], cc[v], cc[w]), len(key)) for i, (u, v, w) in enumerate(pts)]
        if len(key) == pcount:
            break
        pcount = len(key)
    return pc, cc, budget


def _individualize(pc: list[int], x: int, y: int) -> list[int]:
    """pc with points x and y given one new colour of their own."""
    pc = pc[:]
    pc[x] = pc[y] = len(pc)
    return pc


def _match(base: list[Index], perm: tuple[int, ...], joint, pc: list[int], cc: list[int], budget: int):
    """Depth-first individualization-refinement search for an automorphism
    of `base` with axis permutation perm, as a colour-preserving map from the
    first side of `joint` (base) to the second (base with its axes permuted).

    A node refines its colouring; if every colour has as many points on
    each side, it tries the map that pairs them in order, colour by colour,
    and otherwise branches on the images of the first point of a smallest
    class of two or more. Returns (image or None, budget left); the path is
    kept on a stack, not the call stack."""
    pts, members, _, order = joint
    n = len(base)
    stack = []
    while True:
        pc, cc, budget = _refine(pts, members, pc, cc, budget)
        if budget <= 0:
            return None, budget
        cells: dict[int, tuple[list[int], list[int]]] = {}
        for i, c in enumerate(pc):
            cells.setdefault(c, ([], []))[i >= n].append(i)
        if all(len(xs) == len(ys) for xs, ys in cells.values()):
            image = [0] * n
            for xs, ys in cells.values():
                for x, y in zip(xs, ys):
                    image[x] = order[y - n]
            if _is_automorphism(base, perm, image):
                return image, budget
            big = [cell for cell in cells.values() if len(cell[0]) > 1]
            if big:
                xs, ys = min(big, key=lambda cell: len(cell[0]))
                stack.append((pc, cc, xs[0], ys[::-1]))
        while stack and not stack[-1][3]:
            stack.pop()
        if not stack:
            return None, budget
        pc, cc, x, ys = stack[-1]
        pc = _individualize(pc, x, ys.pop())


def _join(base: list[Index], joint, pc: list[int], cc: list[int], budget: int, found):
    """Append to found relabellings (perm the identity) of the support `base`
    that join into orbits the classes of pc, a colouring of both sides of the
    identity's `joint` structure, alike on each side. Within a class, the
    lowest point x not yet joined is matched against the others, the highest
    first: on a class whose points a pairing in order can map, one match can
    join it whole. Returns the budget left and the moved roots: per orbit of
    two or more points, its root in the union-find, sorted."""
    n = len(base)
    cells: dict[int, list[int]] = {}
    for x in range(n):
        cells.setdefault(pc[x], []).append(x)
    parent = list(range(n))  # the orbits joined so far, as a union-find
    for cell in cells.values():
        while len(cell) > 1 and budget > 0:
            x, apart = cell[0], []
            for y in reversed(cell[1:]):
                root = _find(parent, y)
                if root == _find(parent, x) or any(root == _find(parent, z) for z in apart):
                    continue
                image, budget = _match(base, (0, 1, 2), joint, _individualize(pc, x, n + y), cc, budget)
                if image is None:
                    if budget <= 0:
                        break
                    apart.append(y)
                else:
                    found.append(((0, 1, 2), image))
                    for z, gz in enumerate(image):
                        parent[_find(parent, z)] = _find(parent, gz)
            cell = [y for y in cell if _find(parent, y) != _find(parent, x)]
    return budget, sorted({_find(parent, y) for y in range(n) if _find(parent, y) != y})


def _symmetries(base: list[Index]) -> list[tuple[tuple[int, ...], list[int]]]:
    """Automorphisms (perm, image) of the support `base` (see
    `_is_automorphism`), found by an untrusted search that stops after
    `_SYMMETRY_STEPS_PER_POINT` steps per point: one for each axis
    permutation outside the group of those found so far that has one, and
    relabellings found in two levels, the first two of a stabiliser chain
    (McKay-Piperno, arXiv 1301.1493), all that `_PowerOrbits` labels.
    First `_join` joins the classes of the stable colour refinement into
    orbits. Then, for one point x of each orbit of two or more, x is
    individualized on both sides and `_join` joins the classes of the
    refined colouring: their maps fix x, so they join the orbits of x's
    stabiliser, with the steps the first level left. So a search not cut
    short finds relabellings with the same orbits on pairs as all the
    relabellings: the stabiliser of g(x) is x's conjugated by g."""
    n = len(base)
    budget = _SYMMETRY_STEPS_PER_POINT * n
    found = []
    single = _structure(base)
    pts, members, axis = single
    # An automorphism maps axis a's coordinates onto axis perm[a]'s, each
    # onto one that holds as many points.
    degrees = [sorted(len(ms) for ms, b in zip(members, axis) if b == a) for a in range(3)]
    perms = {(0, 1, 2)}  # the group of the axis permutations found
    for perm in permutations(range(3)):
        if perm not in perms and all(degrees[a] == degrees[b] for a, b in enumerate(perm)):
            joint = _joint(single, perm)
            image, budget = _match(base, perm, joint, [0] * 2 * n, joint[2], budget)
            if image is not None:
                found.append((perm, image))
                perms.add(perm)
                while (more := {tuple(p[b] for b in q) for p in perms for q in perms}) != perms:
                    perms = more
    pc, cc, budget = _refine(pts, members, [0] * n, axis, budget)
    # Two copies of the support refine alike, so the joint one starts from
    # the stable colouring of one; its order is the identity.
    joint, pc, cc = _joint(single, (0, 1, 2)), pc * 2, cc * 2
    budget, moved = _join(base, joint, pc, cc, budget, found)
    for x in moved:
        pc_x, cc_x, budget = _refine(joint[0], joint[1], _individualize(pc, x, n + x), cc, budget)
        budget = _join(base, joint, pc_x, cc_x, budget, found)[0]
    return found


def _group(base: list[Index], autos) -> tuple[list[list[int]], list[list[int]]]:
    """The group H generated by the maps in autos that pass
    `_is_automorphism`, so a search that missed some gives a subgroup,
    never wrong maps. Returns reps, per axis permutation of H one map of H
    (built breadth first from the identity), and generators of the kernel
    K, the relabellings (perm the identity) in H: for each map t in reps
    and each checked map s, the relabelling t s u^-1, with u the map in
    reps of the perm of t s. These generate K (Schreier's lemma), and K is
    normal in H, so each map of H maps K's orbits to K's orbits."""
    n = len(base)
    checked = [(perm, image) for perm, image in autos if _is_automorphism(base, perm, image)]
    reps = {(0, 1, 2): list(range(n))}
    kernel = {}  # as a dict, to keep them once each in the order found
    order = [(0, 1, 2)]
    for p in order:
        f = reps[p]
        for q, g in checked:
            pq, fg = tuple(p[b] for b in q), [f[y] for y in g]
            u = reps.setdefault(pq, fg)
            if u is fg:
                order.append(pq)
            else:
                r = [0] * n
                for x, y in zip(u, fg):
                    r[x] = y
                kernel[tuple(r)] = None
    kernel.pop(tuple(range(n)), None)
    return list(reps.values()), [list(r) for r in kernel]


def _classes(maps: list[list[int]], n: int) -> list[int] | range:
    """Per x in range(n), the least point of its orbit under the group that
    the permutations maps of range(n) generate, by a union-find."""
    if not maps:
        return range(n)
    parent = list(range(n))
    for r in maps:
        for x, y in enumerate(r):
            x, y = _find(parent, x), _find(parent, y)
            if x != y:
                parent[max(x, y)] = min(x, y)
    return [_find(parent, x) for x in range(n)]


def _lift(g: list[int], images: list[int]) -> list[int]:
    """g, a permutation of range(m), lifted one entry further: given the
    codes of g's images of some tuples (entries as base-m digits, the first
    most significant), the codes of the images of each tuple extended by
    y = 0, ..., m - 1. So _lift(g, g) is g on pairs."""
    m = len(g)
    return [p * m + y for p in images for y in g]


class _PowerOrbits:
    """orbit_of for `max_free_diagonal` on supp(t^(x)k): the orbits of a
    group G of maps of the power, and of the stabiliser in G of one point.

    G is generated by the permutations of the k factors, the relabellings of
    the coordinates of each factor on its own (perm the identity), and the
    automorphisms of supp(t) applied to every factor at once; an
    automorphism is an axis permutation with a bijection of the used
    coordinates on each axis that maps supp(t) onto itself
    (`_is_automorphism`). G maps free diagonals to free diagonals of the
    same size. Its maps come from `_group` on the automorphisms that
    `_symmetries` finds, so a search cut short gives the orbits of a
    subgroup, finer ones, never wrong ones.

    A point is a word of base points, one per factor, and G is K^k (K, the
    relabellings, on each factor) extended by the factor permutations and
    the maps reps of `_group` on every factor. So with D the diagonal (none
    or one point), y's orbit under the stabiliser of D is named by the
    least, over the maps g in reps that keep D's K-orbits, of the sorted
    word of the K-orbits of the tuples (g(d_f)..., g(y_f)), d in D: of base
    points at the root, of pairs below it. The words are built factor by
    factor, and each distinct one is mapped by the map g induces on
    K-orbits, well defined as K is normal.

    It keeps two tables of K-orbits, by code: points, on base points, built
    at once, and pairs, on pairs of base points, built by the first call
    below the root; and place, each point of power, the list that
    `_power_points` builds, to its place there, keyed on the tuples that the
    searched Support holds."""

    def __init__(self, t: Tensor, k: int, power: list[Index]):
        self.base = sorted(t.entries)
        self.reps, self.kernel = _group(self.base, _symmetries(self.base))
        self.k = k
        self.points = _classes(self.kernel, len(self.base))
        self.pairs = None
        self.place = {p: i for i, p in enumerate(power)}

    def __call__(self, diagonal: tuple[Index, ...], points: list[Index]):
        """Per point, a name of its orbit under the stabiliser of the
        diagonal in G, or None."""
        base, k, reps, cls = self.base, self.k, self.reps, self.points
        m = len(base)
        heads = [0] * k  # per factor f, the code of D's tuple: () at the root, x_f below it
        if diagonal:
            x = self.place[diagonal[0]]
            heads = [x // m ** (k - 1 - f) % m for f in range(k)]
            # Only a map g whose image of x has x's K-orbits, as a multiset,
            # can be the part on every factor of a map that fixes x; those g
            # form a group, so the least name over them alone is a name.
            own = sorted(cls[a] for a in heads)
            reps = [g for g in reps if sorted(cls[g[a]] for a in heads) == own]
            if not self.kernel and len(reps) == 1 and len(set(heads)) == k:
                # Then a map that fixes x only permutes the factors, and x's
                # are distinct: the identity alone fixes x.
                return None
            if self.pairs is None:
                self.pairs = _classes([_lift(r, r) for r in self.kernel], m * m)
            cls = self.pairs
        rows = [cls[p] for p in _lift(range(m), heads)]  # factor f's from f * m on
        number = {(): 0}  # sorted word of K-orbits -> its number, in order of appearance
        label = [0]  # per place, its sorted word's number
        for f in range(0, k * m, m):  # as in _power_points
            words, number = list(number), {}
            grown = [[number.setdefault(tuple(sorted(word + (c,))), len(number)) for c in rows[f:f + m]]
                     for word in words]
            label = [w for v in label for w in grown[v]]
        moves = [dict(zip(rows, (cls[p] for p in _lift(g, [g[a] for a in heads] if diagonal else heads))))
                 for g in reps]
        least = [min(tuple(sorted(move[c] for c in word)) for move in moves) for word in number]
        return [least[label[self.place[p]]] for p in points]


def monomial_subrank_power(t: Tensor, k: int, node_budget: int = DEFAULT_NODE_BUDGET) -> DiagonalResult:
    """Free-diagonal search on supp(t^(x)k); the rate log2(size)/k lower-bounds
    log2 of the asymptotic monomial subrank (Fekete supremum over k).

    The search branches once per orbit of `_PowerOrbits`' group G at the
    root, and once per orbit of the stabiliser of r in G at the root's
    child at r (see `max_free_diagonal`). G permutes the factors and
    relabels coordinates within an axis as well as permuting the axes (z3's
    translations, for one). For a free D, take the first root orbit O_j
    that D meets, at p; a g in G with g(p) = r_j, the orbit's lowest point,
    maps D to a free diagonal of the same size that contains r_j and misses
    O_1, ..., O_(j-1); one level down, a map that fixes r_j does the same
    with the stabiliser's orbits. One labeller, asked when a node with
    |D| <= 1 is entered and branches, names the orbits at both levels, from
    words of orbits that it builds factor by factor. G comes from a bounded,
    untrusted search whose every map is checked before use, so a search cut
    short gives finer orbits and a larger tree, never a smaller maximum. A
    witness that fails `is_free_diagonal`, or is not of the reported size,
    raises ArithmeticError. The power is built once, before any symmetry
    search: its list keys the labeller's places, and its Support is searched."""
    power, support = _power_points(t, k)
    found = max_free_diagonal(support, node_budget=node_budget, orbit_of=_PowerOrbits(t, k, power))
    free = set(found.witness) <= support.points and is_free_diagonal(support, found.witness)
    if not free or len(found.witness) != found.size:
        raise ArithmeticError(f"the search's witness of size {found.size} is not a free diagonal")
    return replace(found, power=k)
