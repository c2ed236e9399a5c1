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
from itertools import permutations, product
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


# The symmetry search spends at most this many steps per support point; a
# step is one point recoloured in one round of colour refinement. Each named
# family's search ends within 51 per point (cw(2)), and the bound keeps a
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


def _symmetries(base: list[Index]) -> list[tuple[tuple[int, ...], list[int]]]:
    """Automorphisms (perm, image) of the support `base` (see
    `_is_automorphism`), found by an untrusted search that stops after
    `_SYMMETRY_STEPS_PER_POINT` steps per point: one for each axis
    permutation outside the group of those found so far that has one, and
    relabellings (perm the identity) that join the classes of the stable
    colour refinement into orbits. Within a class, the lowest point x not
    yet joined is matched against the others, the highest first: on a class
    whose points a pairing in order can map, one match can join it whole."""
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
    cells: dict[int, list[int]] = {}
    for x in range(n):
        cells.setdefault(pc[x], []).append(x)
    big = [cell for cell in cells.values() if len(cell) > 1]
    if big:
        # Two copies of the support refine alike, so the joint one starts
        # from the stable colouring of one; its order is the identity.
        joint, pc, cc = _joint(single, (0, 1, 2)), pc + pc, cc + cc
    parent = list(range(n))  # the orbits joined so far, as a union-find
    for cell in big:
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
    return found


def _orbit_classes(base: list[Index], autos) -> tuple[list[int], list[dict[int, int]]]:
    """The orbits of a group of automorphisms of the support `base`, made
    only from the maps in autos that pass `_is_automorphism`, so a search
    that missed some gives finer orbits, never wrong ones.

    Returns cls, with cls[x] the class of base point x, and per axis
    permutation of the group one map of the classes. The classes are the
    orbits of a group N' of relabellings (perm the identity), found by a
    union-find of f(x) with g(x) over every x, for f and g with the same
    perm (g f^-1 is a relabelling): two checked maps, or a kept map times a
    checked one and the kept map of the product's perm. Then f(x) is joined
    with f(y) for x, y in one class and each checked f (f h f^-1 is in N',
    for h in N' with h(x) = y), until nothing merges. So the kept maps, one
    per perm of the group the checked perms generate, map classes to
    classes, and the product of two equals a third up to N'."""
    n = len(base)
    parent = list(range(n))

    def join(f, g) -> bool:
        """Join f(x) with g(x) for every x; whether two classes merged."""
        merged = False
        for a, b in zip(f, g):
            a, b = _find(parent, a), _find(parent, b)
            if a != b:
                parent[max(a, b)] = min(a, b)
                merged = True
        return merged

    reps = {(0, 1, 2): list(range(n))}  # per axis permutation, one automorphism
    gens = []  # the perms of the checked maps, which generate those of reps
    for perm, image in autos:
        if _is_automorphism(base, perm, image):
            if perm in reps:
                join(image, reps[perm])
            else:
                reps[perm] = list(image)
                gens.append(perm)
    merged = True
    while merged:
        merged = False
        for (p, f), q in product(list(reps.items()), gens):
            pq, fg = tuple(p[b] for b in q), [f[y] for y in reps[q]]
            if pq in reps:
                merged |= join(fg, reps[pq])
            else:
                reps[pq], merged = fg, True
        for q in gens:
            f = reps[q]
            merged |= join(f, [f[_find(parent, x)] for x in range(n)])
    cls = [_find(parent, x) for x in range(n)]
    return cls, [{cls[x]: cls[y] for x, y in enumerate(f)} for f in reps.values()]


def _power_orbits(t: Tensor, k: int) -> dict[Index, int]:
    """Label each point of supp(t^(x)k) by its orbit under the group G
    generated by the permutations of the k factors, the relabellings of the
    coordinates of each factor on its own (perm the identity), and the
    automorphisms of supp(t) applied to every factor at once; an
    automorphism is an axis permutation with a bijection of the used
    coordinates on each axis that maps supp(t) onto itself
    (`_is_automorphism`). G maps free diagonals to free diagonals of the
    same size. A symmetry search cut short gives the orbits of a subgroup.

    A point is a word of base points, one per factor. `_orbit_classes`
    gives the orbits of the base points under the relabellings and one
    automorphism g per axis permutation; the relabellings are normal, being
    the kernel of the map to axis permutations, so a word's orbit is named
    by the least, over the g, of the sorted word of the classes of g(x_f)."""
    base = sorted(t.entries)
    cls, moves = _orbit_classes(base, _symmetries(base))
    d0, d1, d2 = t.dims
    number = {(): 0}  # sorted word of classes -> its number, in order of appearance
    label = {(0, 0, 0): 0}
    for _ in range(k):  # as in power_support, with each point's sorted word's number
        words, number = list(number), {}
        grown = [[number.setdefault(tuple(sorted(word + (c,))), len(number)) for c in cls]
                 for word in words]
        label = {(i * d0 + a, j * d1 + b, l * d2 + c): grown[w][x]
                 for (i, j, l), w in label.items() for x, (a, b, c) in enumerate(base)}
    least = [number[min(tuple(sorted(move[c] for c in word)) for move in moves)]
             for word in number]
    for p, w in label.items():
        label[p] = least[w]
    return label


def monomial_subrank_power(t: Tensor, k: int, node_budget: int = DEFAULT_NODE_BUDGET) -> DiagonalResult:
    """Free-diagonal search on supp(t^(x)k); the rate log2(size)/k lower-bounds
    log2 of the asymptotic monomial subrank (Fekete supremum over k).

    The root branches once per orbit of `_power_orbits`' group G, which
    permutes the factors and relabels coordinates within an axis as well as
    permuting the axes (z3's translations, for one): for a free D, take the
    first orbit O_j that D meets, at p; a g in G with g(p) = r_j, the
    orbit's lowest point, maps D to a free diagonal of the same size that
    contains r_j and misses O_1, ..., O_(j-1), the subtree searched for O_j
    (see `max_free_diagonal`). G comes from a bounded, untrusted search
    whose every map is checked before use, so a search cut short gives
    finer orbits and a larger tree, never a smaller maximum."""
    support = power_support(t, k)
    found = max_free_diagonal(support, node_budget=node_budget, orbit_of=_power_orbits(t, k))
    return replace(found, power=k)
