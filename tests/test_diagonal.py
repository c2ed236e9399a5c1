import math
import random
from functools import cache
from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from irrev import (
    ResourceLimitError,
    Support,
    Tensor,
    cw,
    cw_big,
    dsum,
    is_free_diagonal,
    kron,
    matmul,
    max_free_diagonal,
    monomial_subrank_power,
    power_support,
    rho_upper,
    tn,
    unit,
    w,
    z3,
)
from irrev import diagonal
from irrev import tensor as tensor_module
from irrev.diagonal import (
    DEFAULT_NODE_BUDGET,
    _is_automorphism,
    _group,
    _PowerOrbits,
    _power_points,
    _refine,
    _structure,
    _symmetries,
)
from conftest import (
    brute_force_max_free_diagonal,
    direct_sum_blocks,
    random_unit_tensor,
    reference_max_free_diagonal,
)

H13 = math.log2(3.0) - 2.0 / 3.0


def test_is_free_diagonal_examples():
    for n in (2, 4):
        sup = unit(n).support()
        assert is_free_diagonal(sup, sorted(sup.points))
    wsup = w().support()
    assert not is_free_diagonal(wsup, [(0, 0, 1), (1, 0, 0)])  # shares axis-2 coord
    assert is_free_diagonal(cw(2).support(), [(0, 1, 1), (2, 2, 0)])
    with pytest.raises(ValueError):
        is_free_diagonal(wsup, [(1, 1, 1)])


def test_is_free_diagonal_box_condition():
    # diagonal, but the projected box traps a foreign support point
    sup = matmul(2, 2, 2).support()
    assert not is_free_diagonal(sup, [(0, 1, 2), (1, 2, 0), (2, 0, 1)])


@pytest.mark.parametrize("n", range(2, 7))
def test_unit_diagonals(n):
    res = max_free_diagonal(unit(n).support())
    assert res.size == n
    assert res.exact


def test_w_diagonal_is_one():
    res = max_free_diagonal(w().support())
    assert res.size == 1
    assert res.exact


def test_matmul222_diagonal():
    # All eight size-3 diagonals of the 8-point support trap a foreign
    # point in their box, so the exact maximum is 2 (exhaustively checked).
    res = max_free_diagonal(matmul(2, 2, 2).support())
    assert res.size == 2
    assert res.exact
    assert brute_force_max_free_diagonal(matmul(2, 2, 2).entries) == 2


def test_search_matches_brute_force_on_families():
    for t in [w(), cw(1), cw(2), cw(3), z3(), tn(2), tn(3), matmul(2, 2, 1)]:
        res = max_free_diagonal(t.support())
        assert res.exact
        assert res.size == brute_force_max_free_diagonal(t.entries)
        assert is_free_diagonal(t.support(), res.witness)


def test_search_matches_brute_force_random():
    rng = random.Random(404)
    for _ in range(25):
        t = random_unit_tensor(rng, max_dim=5, max_size=9)
        res = max_free_diagonal(t.support())
        assert res.exact
        assert res.size == brute_force_max_free_diagonal(t.entries)
        assert is_free_diagonal(t.support(), res.witness)


def test_budget_degrades_to_inexact():
    res = max_free_diagonal(unit(6).support(), node_budget=2)
    assert not res.exact and res.nodes == 2
    assert res.size <= 6
    with pytest.raises(ValueError):
        max_free_diagonal(unit(2).support(), node_budget=0)


def test_deep_diagonal_has_no_recursion_limit():
    # The search path is 1,100 points deep, past the interpreter's default
    # recursion limit of 1,000.  Budgeted, since the exhaustive search is
    # cubic in the point count here.
    n = 1100
    res = max_free_diagonal(Support((n,) * 3, [(i, i, i) for i in range(n)]), node_budget=2000)
    assert (res.size, res.exact, res.nodes) == (n, False, 2000)
    assert res.witness == tuple((i, i, i) for i in range(n))


def test_power_support_sizes():
    sup = power_support(w(), 2)
    assert sup.dims == (4, 4, 4)
    assert len(sup.points) == 9
    with pytest.raises(ResourceLimitError):
        power_support(z3(), 9)
    with pytest.raises(ValueError):
        power_support(w(), 0)


@pytest.mark.parametrize("t,k", [(w(), 4), (tn(3), 3), (cw_big(1), 2), (matmul(1, 2, 2), 3)])
def test_power_support_is_the_kron_power_support(monkeypatch, t, k):
    power = t
    for _ in range(k - 1):
        power = kron(power, t)
    calls = []
    monkeypatch.setattr(tensor_module, "_check_index", lambda *args: calls.append(args))
    sup = power_support(t, k)
    assert calls == []
    assert sup == Support(power.dims, frozenset(power.entries))


@pytest.mark.parametrize("t, k", [(w(), 3), (tn(3), 1)], ids=["w^3", "tn3"])
def test_power_search_builds_the_power_once(monkeypatch, t, k):
    # One search builds the power's points once: the labeller's place map is
    # keyed on the very tuples of the Support the search runs on, not on a
    # second build of equal ones.
    build, builds = diagonal._power_points, []
    monkeypatch.setattr(diagonal, "_power_points", lambda *args: builds.append(args) or build(*args))
    search, searched = diagonal.max_free_diagonal, []

    def recorded(support, **kwargs):
        searched.append((support, kwargs["orbit_of"]))
        return search(support, **kwargs)

    monkeypatch.setattr(diagonal, "max_free_diagonal", recorded)
    assert monomial_subrank_power(t, k).exact
    assert len(builds) == 1 and len(searched) == 1
    support, orbit_of = searched[0]
    held = {p: p for p in support.points}
    assert len(orbit_of.place) == len(held)
    assert all(held[p] is p for p in orbit_of.place)


def test_diagonal_powers_of_unit():
    res = monomial_subrank_power(unit(2), 3)
    assert res.size == 8 and res.exact
    assert res.per_copy_rate == pytest.approx(1.0, abs=1e-12)
    res = monomial_subrank_power(unit(4), 2)
    assert res.size == 16 and res.per_copy_rate == pytest.approx(2.0, abs=1e-12)


def test_w_powers():
    # frozen from the exhaustive subset oracle
    res2 = monomial_subrank_power(w(), 2)
    assert (res2.size, res2.exact) == (2, True)
    assert res2.per_copy_rate == pytest.approx(0.5, abs=1e-12)
    assert brute_force_max_free_diagonal(power_support(w(), 2).points) == 2
    res3 = monomial_subrank_power(w(), 3)
    assert (res3.size, res3.exact) == (3, True)
    assert res3.per_copy_rate == pytest.approx(math.log2(3) / 3, abs=1e-12)
    for res in (res2, res3):
        assert res.per_copy_rate <= H13 + 1e-9


def test_cw2_single_copy():
    res = monomial_subrank_power(cw(2), 1)
    assert res.size == 2 and res.exact
    # consistent with the entropy upper bound log2(3)
    assert res.per_copy_rate <= math.log2(3.0) + 1e-9


def test_supermultiplicativity_of_w_powers():
    sizes = {k: monomial_subrank_power(w(), k).size for k in (1, 2, 3)}
    assert sizes[3] >= sizes[1] * sizes[2]
    assert sizes[2] >= sizes[1] * sizes[1]


def test_sandwich_rate_below_entropy_bound():
    rng = random.Random(2718)
    for _ in range(10):
        t = random_unit_tensor(rng, max_dim=3, max_size=5)
        bound = rho_upper(t, tol=1e-10).value
        for k in (1, 2):
            res = monomial_subrank_power(t, k)
            if res.size:
                assert res.per_copy_rate <= bound + 1e-9


def _square(sup: Support) -> Support:
    """supp(t (x) t) from supp(t), with row-major composite indices."""
    d = sup.dims
    return Support(
        tuple(n * n for n in d),
        frozenset(
            tuple(p[a] * d[a] + q[a] for a in range(3)) for p in sup.points for q in sup.points
        ),
    )


def _assert_same_tree(sup: Support, budget: int) -> None:
    res = max_free_diagonal(sup, budget)
    counts = (res.size, res.witness, res.exact, res.nodes, res.bound_prunes, res.box_prunes)
    assert counts == reference_max_free_diagonal(sup, budget)


@pytest.mark.parametrize(
    "t, k, budget",
    [
        (w(), 2, DEFAULT_NODE_BUDGET),
        (w(), 3, DEFAULT_NODE_BUDGET),
        (z3(), 2, DEFAULT_NODE_BUDGET),
        (cw(2), 2, DEFAULT_NODE_BUDGET),
        (cw_big(1), 2, DEFAULT_NODE_BUDGET),
        (tn(3), 2, DEFAULT_NODE_BUDGET),
        (w(), 4, 20_000),
        (tn(4), 2, 20_000),
    ],
    ids=["w^2", "w^3", "z3^2", "cw2^2", "cw_big1^2", "tn3^2", "w^4@20k", "tn4^2@20k"],
)
def test_search_tree_matches_reference(t, k, budget):
    # Same witness, exact flag, node count and prunes as the set-based walk,
    # so every --budget still means the same work.
    _assert_same_tree(power_support(t, k), budget)


def test_z3_square_node_count_pinned():
    # The plain walk, which tests each candidate when it comes to it, takes
    # 11,125 nodes; bounding on the admissible candidates only, 8,965.
    res = max_free_diagonal(power_support(z3(), 2))
    assert (res.size, res.exact, res.nodes) == (4, True, 8965)
    assert reference_max_free_diagonal(power_support(z3(), 2), admissible=False)[2:4] == (True, 11125)


_small_supports = st.sets(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=12
).map(lambda pts: Support((4, 4, 4), frozenset(pts)))


@settings(max_examples=40, deadline=None)
@given(_small_supports, st.sampled_from([1, 7, 50, DEFAULT_NODE_BUDGET]))
def test_search_tree_matches_reference_random(sup, budget):
    _assert_same_tree(sup, budget)
    # Exact searches on squares of 7-12 points reach a million nodes, which
    # takes the reference minutes; below 7 points they stay under 40k.
    if budget < DEFAULT_NODE_BUDGET or len(sup.points) <= 6:
        _assert_same_tree(_square(sup), budget)


@settings(max_examples=60, deadline=None)
@given(_small_supports, st.sampled_from([1, 2, 7, 50, 300, DEFAULT_NODE_BUDGET]))
def test_admissible_tree_is_the_plain_tree_pruned(sup, budget):
    # Bounding on the admissible candidates only cuts subtrees that cannot
    # beat the incumbent. So against the plain walk at the same budget the
    # search visits no more nodes and ends no smaller, and where the plain
    # walk is exact it is too, with the same witness.
    squares = [_square(sup)] if budget < DEFAULT_NODE_BUDGET or len(sup.points) <= 6 else []
    for s in [sup] + squares:
        res = max_free_diagonal(s, budget)
        size, witness, exact, nodes = reference_max_free_diagonal(s, budget, admissible=False)[:4]
        assert res.nodes <= nodes and res.size >= size
        if exact:
            assert res.exact and (res.size, res.witness) == (size, witness)


def _assert_never_decrease(runs) -> None:
    """Size, nodes and prunes never decrease from one run to the next, at
    increasing budgets."""
    for short, long in zip(runs, runs[1:]):
        for field in ("size", "nodes", "bound_prunes", "box_prunes"):
            assert getattr(short, field) <= getattr(long, field)


@pytest.mark.parametrize("t, k", [(w(), 6), (z3(), 3)], ids=["w^6", "z3^3"])
def test_budgeted_search_is_the_exact_search_cut_short(t, k):
    # 729 points, where below the root every node has more candidates than
    # the budget has nodes left: each node still box-tests them all on entry.
    sup = power_support(t, k)
    for budget in (1, 7, 40):
        _assert_same_tree(sup, budget)
    _assert_never_decrease([max_free_diagonal(sup, budget) for budget in (1, 7, 40)])


@settings(max_examples=40, deadline=None)
@given(_small_supports)
def test_budgeted_search_is_the_exact_search_cut_short_random(sup):
    # Squares of 7-12 points take the exact search up to a million nodes.
    for s in [sup] + ([_square(sup)] if len(sup.points) <= 6 else []):
        whole = max_free_diagonal(s)
        assert whole.exact
        budgets = [b for b in (1, 2, 7, 50) if b < whole.nodes]
        for budget in budgets:
            _assert_same_tree(s, budget)
        _assert_never_decrease([max_free_diagonal(s, budget) for budget in budgets] + [whole])
        # At the exact run's node count the run is the exact run.
        assert max_free_diagonal(s, whole.nodes) == whole


def test_w8_short_budget_keeps_its_tree():
    # Each node drops its refused candidates on entry however few nodes are
    # left, so 300 nodes walk the exact tree's first 300 and reach 37.
    res = monomial_subrank_power(w(), 8, node_budget=300)
    assert (res.size, res.nodes, res.exact) == (37, 300, False)
    assert (res.bound_prunes, res.box_prunes, res.root_orbits, res.stabiliser_orbits) == (182, 3690, 10, 16)


# 8-20 points in a 3^3 or 4^3 box: from 10 points in 3^3 on, some two share
# two coordinates, which the node test checks candidate by candidate.
_dense_supports = st.sampled_from([3, 4]).flatmap(
    lambda d: st.sets(st.tuples(*[st.integers(0, d - 1)] * 3), min_size=8, max_size=20).map(
        lambda pts: Support((d, d, d), frozenset(pts))))


def _lined_by_brute_force(pts) -> set[int]:
    return {i for i, p in enumerate(pts) if any(sum(x == y for x, y in zip(p, r)) == 2 for r in pts)}


@settings(max_examples=30, deadline=None)
@given(_dense_supports)
def test_lined_marks_the_points_sharing_two_coordinates_brute_force(sup):
    for s in (sup, _square(sup)):
        pts = sorted(s.points)
        lined = diagonal._lined(pts)
        assert {i for i in range(len(pts)) if lined >> i & 1} == _lined_by_brute_force(pts)


@pytest.mark.parametrize("t", [w(), tn(3), tn(4), z3(), cw(2), cw_big(1)],
                         ids=["w", "tn3", "tn4", "z3", "cw2", "cw_big1"])
def test_named_families_have_no_lined_points(t):
    # On these a node's test is a few mask operations, whatever its candidates.
    for k in (1, 2):
        pts = sorted(power_support(t, k).points)
        assert diagonal._lined(pts) == 0 and not _lined_by_brute_force(pts)


@settings(max_examples=40, deadline=None)
@given(_dense_supports, st.sampled_from([1, 7, 50, 300, DEFAULT_NODE_BUDGET]))
def test_search_tree_matches_reference_on_lined_supports(sup, budget):
    # Same record as the set-based walk, where some candidates share two
    # coordinates with another point. Exact searches on these squares reach
    # 60k nodes, and each box check of the reference rescans the support, so
    # squares are budgeted.
    _assert_same_tree(sup, budget)
    if budget < DEFAULT_NODE_BUDGET:
        _assert_same_tree(_square(sup), budget)


@settings(max_examples=60, deadline=None)
@given(_dense_supports, st.data())
def test_cannot_beat_counts_coordinates_brute_force(sup, data):
    pts = sorted(sup.points)
    chosen = data.draw(st.sets(st.integers(0, len(pts) - 1), min_size=1))
    room = data.draw(st.integers(0, 6))
    fewest = min(len({pts[i][a] for i in chosen}) for a in range(3))
    slices = [diagonal._slices(pts, a) for a in range(3)]
    assert diagonal._cannot_beat(sum(1 << i for i in chosen), room, *slices) == (fewest <= room)


@settings(max_examples=60, deadline=None)
@given(_small_supports, st.sampled_from([1, 2, 7, 50, DEFAULT_NODE_BUDGET]))
def test_witness_free_and_exact_size_brute_force(sup, budget):
    res = max_free_diagonal(sup, budget)
    assert is_free_diagonal(sup, res.witness) and len(res.witness) == res.size
    if res.exact:
        assert res.size == brute_force_max_free_diagonal(sup.points)


def test_plain_search_branches_on_every_point():
    for t in (w(), z3(), tn(3)):
        assert max_free_diagonal(t.support()).root_orbits == len(t.entries)


@pytest.mark.parametrize(
    "t, k, want",
    [(w(), 4, (6, True, 861, 4, 36)), (z3(), 2, (4, True, 57, 1, 4)),
     (tn(4), 2, (6, True, 10267, 13, 344)), (unit(3), 3, (27, True, 330, 1, 3)),
     (cw(3), 2, (9, True, 5426, 2, 17))],
    ids=["w^4", "z3^2", "tn4^2", "unit3^3", "cw3^2"],
)
def test_power_search_node_counts_pinned(t, k, want):
    # The root's 81 points fall into 4 orbits on W^4, and into 1 on z3^2,
    # whose group holds z3's translations within each axis; tn(4)^2's 100
    # fall into 13. Each root branch's child branches once per orbit of the
    # stabiliser of its point: 36, 4 and 344 orbits in all. Without any
    # orbits the search takes 49,242, 8,965 and 96,253 nodes; with the
    # root's alone 5,216, 393 and 16,115; with the root's alone on the plain
    # tree, which box-tests each candidate only when it comes to it and so
    # bounds on every candidate left, 9,189, 466 and 29,982. On unit(3)^3
    # and cw(3)^2 the stabiliser's orbits need the relabellings that fix a
    # point of supp(t), which one join of the root's orbits misses: with it
    # alone they take 336 and 9,551 nodes, on 9 and 42 stabiliser orbits.
    res = monomial_subrank_power(t, k)
    assert (res.size, res.exact, res.nodes, res.root_orbits, res.stabiliser_orbits) == want
    # The set-based walk, fed the orbits of the brute-force group and of its
    # stabilisers, takes the same tree.
    roots = _true_orbits(t, k)
    stabiliser_of = {r: _true_orbits(t, k, fixed=r) for r in set(roots.values())}
    counts = (res.size, res.witness, res.exact, res.nodes, res.bound_prunes, res.box_prunes)
    assert counts == reference_max_free_diagonal(power_support(t, k), orbit_of=roots,
                                                 stabiliser_of=stabiliser_of)


def test_power_search_stopped_at_the_root_reports_the_least_point():
    for t, k in ((w(), 1), (w(), 3), (z3(), 2)):
        res = monomial_subrank_power(t, k, node_budget=1)
        assert (res.size, res.exact, res.nodes) == (1, False, 1)
        assert res.witness == (min(power_support(t, k).points),)


@pytest.mark.parametrize("budget", [1, DEFAULT_NODE_BUDGET])
def test_one_coordinate_on_an_axis_is_decided_at_the_root(budget):
    # The incumbent starts as the lowest point, and the root's candidates
    # use one coordinate on some axis, so its bound ends the search.
    single = Support((2, 2, 2), [(1, 1, 1)])
    flat = Support((1, 2, 2), [(0, 0, 0), (0, 1, 1)])
    slab = Support((3, 3, 3), [(0, 1, 2), (1, 1, 0), (2, 1, 1), (0, 1, 1)])
    for sup in (single, flat, slab):
        res = max_free_diagonal(sup, budget)
        assert (res.size, res.exact, res.nodes, res.bound_prunes, res.box_prunes) == (1, True, 1, 1, 0)
        assert res.witness == (min(sup.points),)
    res = monomial_subrank_power(Tensor((1, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1}), 2, budget)
    assert (res.size, res.exact, res.nodes, res.bound_prunes) == (1, True, 1, 1)


_AXIS_MAPS = {
    "swap": [lambda p: (p[1], p[0], p[2])],
    "cycle": [lambda p: (p[1], p[2], p[0])],
    "both": [lambda p: (p[1], p[0], p[2]), lambda p: (p[1], p[2], p[0])],
}


@st.composite
def _small_tensors(draw, max_points=5):
    """0/1 tensors in a box of at most 3^3 with at most max_points points,
    some closed under an axis swap, the 3-cycle of the axes, or both."""
    sym = draw(st.sampled_from([None, "swap", "cycle", "both"]))
    if sym is None:
        dims = tuple(draw(st.integers(1, 3)) for _ in range(3))
    else:
        dims = (draw(st.integers(2, 3)),) * 3
    cells = sorted(product(*(range(d) for d in dims)))
    pts = set(draw(st.sets(st.sampled_from(cells), min_size=1,
                           max_size=max_points if sym is None else 2)))
    while sym is not None:
        grown = pts | {f(p) for f in _AXIS_MAPS[sym] for p in pts}
        if grown == pts:
            break
        pts = grown
    assume(len(pts) <= max_points)
    try:
        return Tensor(dims, {p: 1 for p in pts})
    except ValueError:  # a simple tensor
        assume(False)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_small_tensors(), st.sampled_from([1, 2, 3]),
       st.sampled_from([1, 7, 50, DEFAULT_NODE_BUDGET]))
def test_power_search_witness_free_and_exact_size_brute_force(t, k, budget):
    sup = power_support(t, k)
    res = monomial_subrank_power(t, k, node_budget=budget)
    assert is_free_diagonal(sup, res.witness) and len(res.witness) == res.size
    assert res.power == k and res.nodes <= budget
    if res.exact:
        # The largest free diagonal is the sum of its direct-sum blocks'
        # largest, so supp(unit(3)^(x)3)'s 2^27 diagonals cost 27 one-point
        # blocks. The DFS visits every diagonal of a block; past 10^5 of
        # them, as on most 5-point supports cubed, the plain search, which
        # walks every point's branch, decides.
        sizes = [brute_force_max_free_diagonal(block, max_diagonals=100_000)
                 for block in direct_sum_blocks(sup.points)]
        if None in sizes:
            plain = max_free_diagonal(sup)
            assert plain.exact
            want = plain.size
        else:
            want = sum(sizes)
        assert res.size == want


@settings(max_examples=60, deadline=None)
@given(_small_supports, _small_supports)
def test_direct_sum_blocks_add_up_to_the_whole_brute_force(a, b):
    # The oracle above: a free diagonal's box condition splits block by
    # block, so the blocks' largest free diagonals add up to the whole's.
    points = set(a.points) | {(i + 4, j + 4, k + 4) for i, j, k in b.points}
    blocks = direct_sum_blocks(points)
    assert sorted(p for block in blocks for p in block) == sorted(points)
    assert len(blocks) >= 2
    for x, y in product(blocks, repeat=2):
        if x is not y:
            assert all(p[i] != q[i] for p in x for q in y for i in range(3))
    assert sum(map(brute_force_max_free_diagonal, blocks)) == brute_force_max_free_diagonal(points)


def _apply(g, p):
    """The image of point p under g = (perm, maps): its axis-a coordinate,
    relabelled by maps[a], becomes the axis-perm[a] coordinate."""
    perm, maps = g
    q = [0, 0, 0]
    for a in range(3):
        q[perm[a]] = maps[a][p[a]]
    return tuple(q)


def _automorphisms_by_brute_force(t):
    """Every automorphism of supp(t), by trying every axis permutation with
    every bijection of each axis's used coordinates onto those of its image
    axis."""
    return _automorphisms_of(frozenset(t.entries))


@cache
def _automorphisms_of(base):
    used = [sorted({p[a] for p in base}) for a in range(3)]
    group = []
    for perm in permutations(range(3)):
        if all(len(used[a]) == len(used[perm[a]]) for a in range(3)):
            for images in product(*(permutations(used[perm[a]]) for a in range(3))):
                g = (perm, [dict(zip(used[a], images[a])) for a in range(3)])
                if {_apply(g, p) for p in base} == base:
                    group.append(g)
    return group


def _digits(p, dims, k):
    """A point of supp(t^(x)k) as its k factors, most significant first."""
    return [tuple(p[a] // dims[a] ** (k - 1 - f) % dims[a] for a in range(3)) for f in range(k)]


def _compose(factors, dims):
    """The point of the power with these factors, most significant first."""
    k = len(factors)
    return tuple(sum(q[a] * dims[a] ** (k - 1 - f) for f, q in enumerate(factors)) for a in range(3))


def _orbits_by_generators(t, k):
    """The orbits of supp(t^(x)k) under the factor swaps, every automorphism
    of supp(t) applied to every factor at once, and every relabelling (an
    automorphism that keeps each axis) applied to the first factor alone,
    by closing each point under these maps of its per-factor digits."""
    dims = t.dims
    group = _automorphisms_by_brute_force(t)
    relabellings = [g for g in group if g[0] == (0, 1, 2)]

    def neighbours(p):
        fs = _digits(p, dims, k)
        for f in range(k - 1):
            yield _compose(fs[:f] + [fs[f + 1], fs[f]] + fs[f + 2:], dims)
        for g in group:
            yield _compose([_apply(g, q) for q in fs], dims)
        for g in relabellings:
            yield _compose([_apply(g, fs[0])] + fs[1:], dims)

    orbits, seen = set(), set()
    for p in sorted(power_support(t, k).points):
        if p in seen:
            continue
        orbit, todo = {p}, [p]
        while todo:
            for q in neighbours(todo.pop()):
                if q not in orbit:
                    orbit.add(q)
                    todo.append(q)
        seen |= orbit
        orbits.add(frozenset(orbit))
    return orbits


def _closure(gens, n):
    """Every composition of the permutations gens of range(n), as tuples."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        e = todo.pop()
        for g in gens:
            ge = tuple(g[x] for x in e)
            if ge not in group:
                group.add(ge)
                todo.append(ge)
    return group


_POWER_GROUPS = {}


def _power_group_by_brute_force(t, k):
    """The group of `_orbits_by_generators` as explicit permutations of the
    sorted points of supp(t^(x)k): the factor swaps, the brute-force group
    on every factor at once and its relabellings on the first factor alone,
    closed under composition. Of the brute-force group and its relabellings
    only enough elements to generate each act, so the closure stays quick."""
    key = (t.dims, tuple(sorted(t.entries)), k)
    if key not in _POWER_GROUPS:
        base = sorted(t.entries)
        where = {p: x for x, p in enumerate(base)}
        pts = sorted(power_support(t, k).points)
        at = {p: i for i, p in enumerate(pts)}

        def acting(f):
            return tuple(at[_compose(f(_digits(p, t.dims, k)), t.dims)] for p in pts)

        def generating(maps):
            chosen, group = [], {tuple(range(len(base)))}
            for g in maps:
                image = tuple(where[_apply(g, p)] for p in base)
                if image not in group:
                    chosen.append(g)
                    group = _closure([[where[_apply(h, p)] for p in base] for h in chosen], len(base))
            return chosen

        everything = _automorphisms_by_brute_force(t)
        gens = [acting(lambda fs, f=f: fs[:f] + [fs[f + 1], fs[f]] + fs[f + 2:]) for f in range(k - 1)]
        gens += [acting(lambda fs, g=g: [_apply(g, q) for q in fs]) for g in generating(everything)]
        gens += [acting(lambda fs, g=g: [_apply(g, fs[0])] + fs[1:])
                 for g in generating([g for g in everything if g[0] == (0, 1, 2)])]
        _POWER_GROUPS[key] = pts, _closure(gens, len(pts))
    return _POWER_GROUPS[key]


def _true_orbits(t, k, fixed=None):
    """Per point of supp(t^(x)k), the least point of its orbit under the
    brute-force group, or under the stabiliser of the point fixed in it."""
    pts, group = _power_group_by_brute_force(t, k)
    if fixed is not None:
        x = pts.index(fixed)
        group = [e for e in group if e[x] == x]
    return {p: pts[min(e[i] for e in group)] for i, p in enumerate(pts)}


def _partition(labels):
    """The classes of a map from points to labels."""
    classes = {}
    for p, label in labels.items():
        classes.setdefault(label, set()).add(p)
    return {frozenset(c) for c in classes.values()}


def _assert_finer(classes, orbits):
    """Each class lies in one of the orbits."""
    assert all(any(c <= orbit for orbit in orbits) for c in classes)


def _root_labels(t, k):
    """The labels of the points of supp(t^(x)k) that the power search's root
    branches on."""
    pts = sorted(power_support(t, k).points)
    return dict(zip(pts, _PowerOrbits(t, k, _power_points(t, k)[0])((), pts)))


def _stabiliser_partitions(t, k):
    """Per point r that the power search's root branches on, the orbits of
    the stabiliser of r into which the search's child at r splits the
    power's points (a point each where it gets no labels)."""
    orbit_of = _PowerOrbits(t, k, _power_points(t, k)[0])
    pts = sorted(power_support(t, k).points)
    roots = {}
    for p, label in zip(pts, orbit_of((), pts)):
        roots.setdefault(label, p)
    found = {}
    for r in roots.values():
        labels = orbit_of((r,), pts) or pts
        found[r] = _partition(dict(zip(pts, labels)))
    return found


def _assert_stabiliser_orbits_are_finer(t, k):
    for r, classes in _stabiliser_partitions(t, k).items():
        _assert_finer(classes, _partition(_true_orbits(t, k, fixed=r)))


def _assert_labels_are_the_orbits(t, k) -> int:
    classes = _partition(_root_labels(t, k))
    assert classes == _orbits_by_generators(t, k)
    return len(classes)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_small_tensors(), st.sampled_from([1, 2, 3]))
def test_power_orbit_labels_are_the_group_orbits(t, k):
    # The root branches at the end of the first node, so one node reads
    # root_orbits, unless the root's bound decides the search.
    res = monomial_subrank_power(t, k, node_budget=1)
    groups = _assert_labels_are_the_orbits(t, k)
    assert res.root_orbits == (0 if res.bound_prunes else groups)


@pytest.mark.parametrize(
    "t, k", [(w(), 4), (z3(), 2), (tn(4), 2), (cw_big(1), 3), (matmul(1, 2, 2), 3), (z3(), 1),
             (cw(2), 2), (unit(3), 2), (matmul(2, 2, 2), 2)])
def test_power_orbit_labels_on_families(t, k):
    _assert_labels_are_the_orbits(t, k)


# The ten named families, and a support where swapping the last two points
# is both a relabelling and a map that swaps the last two axes.
_FAMILIES = {"w": w(), "z3": z3(), "tn2": tn(2), "tn3": tn(3), "tn4": tn(4), "cw2": cw(2),
             "cw_big1": cw_big(1), "unit3": unit(3), "matmul222": matmul(2, 2, 2),
             "matmul122": matmul(1, 2, 2),
             "swap_relabelling": Tensor((1, 3, 3), dict.fromkeys([(0, 0, 0), (0, 1, 2), (0, 2, 1)], 1))}


@pytest.mark.parametrize("t", _FAMILIES.values(), ids=_FAMILIES.keys())
def test_every_automorphism_the_search_returns_passes_the_check(t):
    base = sorted(t.entries)
    found = _symmetries(base)
    group = _automorphisms_by_brute_force(t)
    assert found
    for perm, image in found:
        assert _is_automorphism(base, perm, image)
        # The same map read off the brute-force group's coordinate maps.
        assert any(perm == g[0] and all(base[y] == _apply(g, p) for p, y in zip(base, image))
                   for g in group)


def test_the_check_refuses_a_map_with_two_images_swapped():
    # Each coordinate of z3 and of <2,2,2> holds two or more points, so no
    # automorphism moves exactly two points: swapping two images of one
    # breaks a coordinate map.
    for t in (z3(), matmul(2, 2, 2)):
        base = sorted(t.entries)
        for perm, image in _symmetries(base):
            bad = list(image)
            bad[0], bad[1] = bad[1], bad[0]
            assert not _is_automorphism(base, perm, bad)
    base = sorted(w().entries)
    assert _is_automorphism(base, (1, 0, 2), [0, 2, 1])  # (0,0,1) fixed, the others swapped
    assert not _is_automorphism(base, (1, 0, 2), [0, 1, 2])


def test_the_check_refuses_maps_that_are_not_permutations():
    # Each of these keeps every coordinate map well defined, so only the
    # check that image permutes the points and perm the axes refuses it.
    base = sorted(w().entries)
    assert not _is_automorphism(base, (0, 1, 2), [0, 0, 0])
    assert not _is_automorphism(base, (0, 1, 2), [0, 1])
    assert not _is_automorphism(sorted(unit(2).entries), (0, 0, 1), [0, 1])


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_small_tensors(), st.sampled_from([1, 2]), st.randoms(use_true_random=False))
def test_orbits_from_part_of_the_group_are_finer_never_wrong(t, k, rnd):
    # A search cut short returns some automorphisms, and a wrong one is
    # refused by the check. The labels then still name the orbits of a
    # group: each class lies in one orbit of the whole group, the maps
    # returned keep every label, and the exact size is the plain search's.
    base = sorted(t.entries)
    where = {p: x for x, p in enumerate(base)}
    group = _automorphisms_by_brute_force(t)
    part = [g for g in group if rnd.random() < 0.3]
    returned = [(perm, [where[_apply((perm, maps), p)] for p in base]) for perm, maps in part]
    perm, image = rnd.choice(returned or [((0, 1, 2), list(range(len(base))))])
    returned.append((perm, [image[1], image[0]] + image[2:]))
    rnd.shuffle(returned)
    with mock.patch.object(diagonal, "_symmetries", lambda _: returned):
        labels = _root_labels(t, k)
        res = monomial_subrank_power(t, k)
        # Below the root too: each class of a root point's stabiliser lies
        # in one orbit of that point's stabiliser in the whole group.
        _assert_stabiliser_orbits_are_finer(t, k)
    _assert_finer(_partition(labels), _orbits_by_generators(t, k))
    for g in part:
        for p, label in labels.items():
            assert labels[_compose([_apply(g, q) for q in _digits(p, t.dims, k)], t.dims)] == label
    plain = max_free_diagonal(power_support(t, k))
    assert res.exact and plain.exact and res.size == plain.size


@pytest.mark.parametrize("steps", [1, 4, 16])
def test_symmetry_search_cut_short_gives_finer_orbits(monkeypatch, steps):
    # Too few steps per point for the whole group: the orbits are finer than
    # the brute-force group's, and the exact maxima stay. Below the root the
    # labels are the orbits of each stabiliser in the group found, so they
    # are finer too.
    monkeypatch.setattr(diagonal, "_SYMMETRY_STEPS_PER_POINT", steps)
    for t, k, size in ((z3(), 2, 4), (cw(2), 2, 6), (matmul(2, 2, 2), 1, 2), (tn(3), 2, 4),
                       (w(), 4, 6)):
        _assert_finer(_partition(_root_labels(t, k)), _orbits_by_generators(t, k))
        _assert_stabiliser_orbits_are_finer(t, k)
        res = monomial_subrank_power(t, k)
        assert (res.size, res.exact) == (size, True)


def test_symmetry_search_joins_every_class_before_any_stabiliser(monkeypatch):
    # The stabilisers' joins spend only the steps that the join of every
    # class leaves, so at any budget the root orbits are at least as coarse
    # as those of the first level alone. Were each stabiliser joined as soon
    # as its orbit was, cw(3) + unit(5) at 17 to 24 steps per point would
    # keep the unit block's class unjoined: 6 root orbits for 2.
    t = dsum(cw(3), unit(5))
    join = diagonal._join
    for steps in range(1, 40):
        monkeypatch.setattr(diagonal, "_SYMMETRY_STEPS_PER_POINT", steps)
        monkeypatch.setattr(diagonal, "_join", join)
        both = _partition(_root_labels(t, 1))
        # The first level alone: a join that reports no moved points.
        monkeypatch.setattr(diagonal, "_join", lambda *args: (join(*args)[0], []))
        _assert_finer(_partition(_root_labels(t, 1)), both)
    assert len(both) == 2


def test_pair_table_built_at_most_once_per_search(monkeypatch):
    # The K-orbits on pairs of base points are built by the first call below
    # the root and kept: never when no root child branches (a run stopped at
    # the root), once when one does, and still once in the exact search,
    # however many do.
    t = cw(3)
    m = len(t.entries)
    classes, calls = diagonal._classes, []
    monkeypatch.setattr(diagonal, "_classes", lambda maps, n: calls.append(n) or classes(maps, n))
    for budget, nodes in ((1, 1), (2, 2), (DEFAULT_NODE_BUDGET, 5426)):
        calls.clear()
        assert monomial_subrank_power(t, 2, node_budget=budget).nodes == nodes
        assert calls.count(m * m) == (budget > 1)


def test_symmetry_search_on_singleton_cells_runs_no_backtracking(monkeypatch):
    # Colour refinement alone tells the 200 points apart, so no class has two
    # points to match, and no axis permutation keeps the coordinate counts.
    rng = random.Random(868)
    pts = set()
    while len(pts) < 200:
        pts.add((rng.randrange(10), rng.randrange(12), rng.randrange(14)))
    base = sorted(pts)
    points, members, axis = _structure(base)
    pc = _refine(points, members, [0] * len(base), axis, 10**9)[0]
    assert len(set(pc)) == len(base)

    def refuse(*args):
        raise AssertionError("the search individualized a point")

    monkeypatch.setattr(diagonal, "_individualize", refuse)
    assert _symmetries(base) == []
    t = Tensor((10, 12, 14), dict.fromkeys(base, 1))
    assert monomial_subrank_power(t, 1, node_budget=1).root_orbits == len(base)


def _finds_the_whole_group(t) -> bool:
    """Whether the maps `_symmetries` returns generate the brute-force group
    of supp(t), as permutations of its points and its axes together: on
    supp({(0,0,0), (0,1,2), (0,2,1)}) swapping the last two points is both a
    relabelling and a map that swaps two axes, and a group that holds one
    of them alone gives finer orbits below the root of a power."""
    base = sorted(t.entries)
    n = len(base)
    where = {p: x for x, p in enumerate(base)}
    group = {tuple(where[_apply(g, p)] for p in base) + tuple(n + b for b in g[0])
             for g in _automorphisms_by_brute_force(t)}
    return _closure([image + [n + b for b in perm] for perm, image in _symmetries(base)], n + 3) == group


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("t", _FAMILIES.values(), ids=_FAMILIES.keys())
def test_stabiliser_orbits_on_families(t, k):
    # `_symmetries` finds the whole group of supp(t), so the orbits below
    # the root are those of the stabiliser in the brute-force group, and the
    # search takes the tree of the set-based walk fed the true orbits at the
    # root and below it. On unit(3) and swap_relabelling this needs the
    # join one level down: the root's join finds the 3-cycles of the points,
    # which join them into one orbit, but only the stabiliser's join finds
    # the relabelling that fixes one point and swaps the other two.
    assert _finds_the_whole_group(t)
    roots = _true_orbits(t, k)
    stabiliser_of = {}
    for r, classes in _stabiliser_partitions(t, k).items():
        stabiliser_of[r] = _true_orbits(t, k, fixed=r)
        assert classes == _partition(stabiliser_of[r])
    res = monomial_subrank_power(t, k)
    want = reference_max_free_diagonal(power_support(t, k), orbit_of=roots, stabiliser_of=stabiliser_of)
    assert (res.size, res.witness, res.exact, res.nodes, res.bound_prunes, res.box_prunes) == want


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_small_tensors(), st.sampled_from([1, 2]))
def test_stabiliser_orbits_are_the_true_ones_brute_force(t, k):
    # Below each point r the root branches on, the labels are the orbits of
    # r's stabiliser in the brute-force group wherever `_symmetries` finds
    # the whole group of supp(t), and finer ones otherwise.
    whole = _finds_the_whole_group(t)
    for r, classes in _stabiliser_partitions(t, k).items():
        true = _partition(_true_orbits(t, k, fixed=r))
        if whole:
            assert classes == true
        else:
            _assert_finer(classes, true)


def test_stabiliser_of_a_point_only_the_identity_fixes_builds_no_words():
    # supp(t) has no automorphism but the identity, so a map of its square
    # that fixes x only permutes the factors. With x's factors distinct, the
    # identity alone fixes x, and the labeller returns None, a point each,
    # without lifting a map; with two equal factors the factor swap fixes x,
    # and its labels are the orbits of x's stabiliser, which joins each y
    # with y's factors swapped.
    base = [(0, 1, 1), (2, 0, 0), (2, 2, 0), (2, 2, 1)]
    t = Tensor((3, 3, 3), dict.fromkeys(base, 1))
    assert len(_automorphisms_by_brute_force(t)) == 1
    orbit_of = _PowerOrbits(t, 2, _power_points(t, 2)[0])
    pts = sorted(power_support(t, 2).points)
    with mock.patch.object(diagonal, "_lift", side_effect=AssertionError("a map was lifted")):
        assert orbit_of((_compose([base[0], base[1]], t.dims),), pts) is None
    x = _compose([base[0], base[0]], t.dims)
    labels = orbit_of((x,), pts)
    assert labels is not None
    named = dict(zip(pts, labels))
    assert all(named[_compose([a, b], t.dims)] == named[_compose([b, a], t.dims)]
               for a, b in product(base, repeat=2))
    assert _partition(named) == _partition(_true_orbits(t, 2, fixed=x))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_small_tensors(max_points=7), st.sampled_from([1, 2]))
def test_stabiliser_orbits_keep_the_exact_size(t, k):
    # Branching once per orbit of the stabiliser below the root loses no
    # diagonal: the exact size is the plain search's.
    res = monomial_subrank_power(t, k)
    plain = max_free_diagonal(power_support(t, k))
    assert res.exact and plain.exact and res.size == plain.size
    assert is_free_diagonal(power_support(t, k), res.witness)


def _seeded_support(seed, count, dims):
    rng = random.Random(seed)
    pts = set()
    while len(pts) < count:
        pts.add(tuple(rng.randrange(d) for d in dims))
    return Tensor(dims, dict.fromkeys(pts, 1))


@pytest.mark.parametrize("t", [unit(1100), _seeded_support(868, 868, (10, 22, 20))],
                         ids=["unit1100", "seeded868"])
def test_stabiliser_orbits_are_built_only_below_a_visited_root(monkeypatch, t):
    # The root's children ask for their stabiliser's orbits, a labeller call
    # with a one-point diagonal, when they first branch, so a run stopped at
    # the root does no stabiliser work and reports none; one more node
    # enters the first child, which asks once.
    calls = []
    label = _PowerOrbits.__call__

    def counted(self, diagonal, points):
        if len(diagonal) == 1:
            calls.append(diagonal)
        return label(self, diagonal, points)

    monkeypatch.setattr(_PowerOrbits, "__call__", counted)
    res = monomial_subrank_power(t, 1, node_budget=1)
    assert (res.nodes, res.stabiliser_orbits, len(calls)) == (1, 0, 0)
    assert res.root_orbits >= 1
    res = monomial_subrank_power(t, 1, node_budget=2)
    assert (res.nodes, len(calls)) == (2, 1)
    assert res.stabiliser_orbits >= 1


@pytest.mark.parametrize("t, k, nodes, orbits", [(w(), 4, 2923, 134), (z3(), 2, 4625, 951), (cw(3), 2, 211280, 1128)],
                         ids=["w4", "z3^2", "cw3^2"])
def test_stabiliser_labels_spend_no_symmetry_steps(monkeypatch, t, k, nodes, orbits):
    # The step bound caps the search for the group alone. At one step per
    # point that search finds little, and the trees grow (861, 57 and 5,426
    # nodes at the default bound), but every root child that branches still
    # gets the orbits of its point's stabiliser in the group found, and a
    # point each (None) only where that stabiliser is trivial: the group
    # found has no relabelling but the identity, and the identity is the
    # only pair of a factor permutation and a map on every factor that
    # fixes the point.
    monkeypatch.setattr(diagonal, "_SYMMETRY_STEPS_PER_POINT", 1)
    base = sorted(t.entries)
    where = {p: x for x, p in enumerate(base)}
    reps, kernel = _group(base, _symmetries(base))
    label, below = _PowerOrbits.__call__, []

    def recorded(self, d, points):
        labels = label(self, d, points)
        if d:
            below.append((d[0], labels))
        return labels

    monkeypatch.setattr(_PowerOrbits, "__call__", recorded)
    res = monomial_subrank_power(t, k)
    assert (res.exact, res.nodes, res.stabiliser_orbits) == (True, nodes, orbits)
    for x, labels in below:
        if labels is None:
            word = [where[q] for q in _digits(x, t.dims, k)]
            fixers = [(s, g) for s in permutations(range(k)) for g in reps
                      if all(g[word[s[f]]] == word[f] for f in range(k))]
            assert not kernel and fixers == [(tuple(range(k)), list(range(len(base))))]


@pytest.mark.parametrize("t, k, calls, nones", [(cw(3), 2, 1 + 2, 0), (w(), 4, 1 + 4, 0), (z3(), 2, 1 + 1, 0),
                                                (unit(3), 3, 1 + 1, 0), (tn(4), 2, 1 + 11, 5)],
                         ids=["cw3^2", "w4", "z3^2", "unit3^3", "tn4^2"])
def test_labeller_asked_once_per_node_up_to_depth_one_that_branches(monkeypatch, t, k, calls, nones):
    # The labeller is asked when a node with |D| <= 1 is entered and keeps a
    # candidate past its bound and box test: once at the root and once per
    # root child that branches, however many orbits that node branches on.
    # On tn(4)^2, 2 of the 13 root children are pruned on entry, and 5 of
    # the 11 that branch have a point that the identity alone fixes.
    label, answers = _PowerOrbits.__call__, []

    def recorded(self, d, points):
        answers.append(label(self, d, points))
        return answers[-1]

    monkeypatch.setattr(_PowerOrbits, "__call__", recorded)
    res = monomial_subrank_power(t, k)
    assert res.exact
    assert (len(answers), sum(a is None for a in answers)) == (calls, nones)
