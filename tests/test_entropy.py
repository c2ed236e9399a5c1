import math
import random
import tracemalloc
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrev import (
    BudgetExceededError,
    ResourceLimitError,
    Support,
    SupportDistribution,
    Tensor,
    Theta,
    binary_entropy,
    cw,
    cw_big,
    cw_big_entropy_argmax,
    cw_big_marginal_entropy,
    cw_small_entropy_bound,
    cyc,
    entropy_bits,
    kron,
    marginal,
    matmul,
    permute_legs,
    rho_grid_oracle,
    rho_upper,
    rho_upper_on_support,
    tn,
    unit,
    w,
    z3,
)
from conftest import (
    certificate_gap,
    dense_newton_direction,
    naive_grid_max,
    random_unit_tensor,
    rank_mod_p,
)
from irrev.entropy import (
    ORACLE_GRID_LIMIT,
    _ActiveSystem,
    _AxisEncoding,
    _cw_big_param,
    _cw_small_param,
    _grid_batches,
    _grid_max,
    _line_search,
    _newton_direction,
    _newton_step,
    _objective_and_scores,
)

H13 = math.log2(3.0) - 2.0 / 3.0


def test_theta_validation():
    Theta(0.5, 0.25, 0.25)
    assert Theta.uniform().is_uniform()
    with pytest.raises(ValueError):
        Theta(0.5, 0.6, -0.1)
    with pytest.raises(ValueError):
        Theta(0.5, 0.2, 0.2)


def test_support_distribution_validation():
    SupportDistribution(((0, 0, 1), (1, 0, 0)), (0.25, 0.75))
    with pytest.raises(ValueError):
        SupportDistribution(((0, 0, 1),), (0.5,))
    with pytest.raises(ValueError):
        SupportDistribution(((0, 0, 1), (1, 0, 0)), (1.25, -0.25))


def test_marginal_examples():
    pts = tuple(sorted(w().entries))
    uni = SupportDistribution(pts, (1 / 3, 1 / 3, 1 / 3))
    m1 = marginal(uni, 1)
    assert m1[0] == pytest.approx(2 / 3) and m1[1] == pytest.approx(1 / 3)
    point = SupportDistribution(pts, (1.0, 0.0, 0.0))
    assert marginal(point, 2) == {0: 1.0, 1: 0.0}
    dpts = tuple(sorted(unit(4).entries))
    du = SupportDistribution(dpts, (0.25,) * 4)
    for axis in (1, 2, 3):
        assert all(v == pytest.approx(0.25) for v in marginal(du, axis).values())
    with pytest.raises(ValueError):
        marginal(uni, 4)


def test_entropy_bits():
    assert entropy_bits([0.5, 0.5]) == 1.0
    assert entropy_bits([1.0, 0.0]) == 0.0
    assert entropy_bits({0: 2 / 3, 1: 1 / 3}) == pytest.approx(H13, abs=1e-12)
    with pytest.raises(ValueError):
        entropy_bits([0.5, 0.6])
    with pytest.raises(ValueError):
        entropy_bits([1.5, -0.5])


def test_binary_entropy():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(1 / 3) == pytest.approx(0.9182958340544896, abs=1e-12)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


def test_rho_unit_tensors():
    for n in (2, 3, 4, 5):
        res = rho_upper(unit(n))
        assert res.value == pytest.approx(math.log2(n), abs=1e-12)
        assert res.residual <= 1e-10


def test_rho_w_is_ternary_entropy():
    res = rho_upper(w())
    assert res.value == pytest.approx(H13, abs=1e-12)
    assert res.residual <= 1e-12
    # uniform distribution attains it
    assert all(p == pytest.approx(1 / 3, abs=1e-9) for p in res.argmax.probs)


@pytest.mark.parametrize("q", range(1, 8))
def test_rho_cw_closed_form(q):
    res = rho_upper(cw(q))
    assert res.value == pytest.approx(cw_small_entropy_bound(q), abs=1e-10)


@pytest.mark.parametrize("q", range(1, 11))
def test_rho_cw_big_matches_symmetric_peak(q):
    peak = cw_big_marginal_entropy(q, cw_big_entropy_argmax(q))
    res = rho_upper(cw_big(q), tol=1e-10)
    assert res.value == pytest.approx(peak, abs=1e-8)
    assert res.residual <= 1e-10


def test_rho_z3_uniform_marginals():
    res = rho_upper(z3())
    assert res.value == pytest.approx(math.log2(3.0), abs=1e-10)


def test_rho_upper_bound_sanity():
    rng = random.Random(5)
    for _ in range(20):
        t = random_unit_tensor(rng)
        res = rho_upper(t, tol=1e-9)
        cap = sum(math.log2(d) for d in t.dims) / 3.0
        assert res.value <= cap + 1e-9


def test_rho_budget_error_carries_best():
    with pytest.raises(BudgetExceededError) as err:
        rho_upper(cw_big(3), tol=1e-14, iter_budget=2)
    best = err.value.best
    assert best is not None
    assert 0 < best.value < 3
    assert best.residual > 0


def _weighted_marginal_entropy(points, probs, th):
    dist = SupportDistribution(tuple(points), tuple(float(x) for x in probs))
    return sum(th[i] * entropy_bits(marginal(dist, i + 1)) for i in range(3))


def test_line_search_away_step_stops_before_emptying_a_coordinate():
    # The away point (0, 1, 0) is alone on coordinate 1 of the low-weight
    # axis 2.  At gamma_max that marginal entry empties, where the entropy's
    # slope is -inf; a search that masks the entry takes the whole step and
    # loses objective.
    points = [(0, 0, 0), (0, 1, 0), (1, 0, 1)]
    th = (0.4, 0.2, 0.4)
    P = np.array([0.355, 0.29, 0.355])
    a = 1
    enc = _AxisEncoding(points)
    bases = [np.bincount(enc.idx[i], weights=P, minlength=enc.sizes[i]) for i in range(3)]
    dirs = [bases[i] - (np.arange(enc.sizes[i]) == enc.idx[i][a]) for i in range(3)]
    gamma_max = P[a] / (1.0 - P[a])
    gamma = _line_search(bases, dirs, th, gamma_max)

    def objective(step):
        moved = (1.0 + step) * P
        moved[a] -= step
        moved = np.maximum(moved, 0.0)
        return _weighted_marginal_entropy(points, moved / moved.sum(), th)

    assert gamma < gamma_max
    assert objective(gamma) >= objective(0.0)


def test_rho_low_weight_axis_regression():
    # An away step on this support empties a coordinate of the low-weight
    # axis; solved exactly, the step must not lower the objective.
    pts = [(0, 1, 3), (2, 0, 3), (2, 1, 0), (2, 1, 1), (3, 0, 1), (3, 2, 1), (3, 2, 3), (3, 3, 3)]
    theta = Theta(0.579779681308748, 0.0692958442306114, 0.3509244744606406)
    res = rho_upper_on_support(Support((4, 4, 4), frozenset(pts)), theta, tol=1e-10)
    assert res.residual <= 1e-10
    assert res.value == pytest.approx(1.5765114595, abs=1e-9)


def _active_system(P, enc, th):
    return _ActiveSystem(np.flatnonzero(P > 1e-14), enc, th)


def _newton(P, f, g, enc, th):
    return _newton_step(P, f, g, enc, th, _active_system(P, enc, th))


@pytest.mark.parametrize("seed", range(6))
def test_newton_step_matches_dense_reference(seed):
    rng = random.Random(seed)
    t = random_unit_tensor(rng, max_dim=5, max_size=60)
    th = [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.0, 0.5), (0.2, 0.3, 0.5)][seed % 3]
    # A point near the optimum, where the undamped step is taken.
    res = rho_upper(t, Theta(*th), tol=1e-3)
    points = list(res.argmax.points)
    P = np.array(res.argmax.probs)
    enc = _AxisEncoding(points)
    f, g = _objective_and_scores(P, enc, th)
    step = _newton(P, f, g, enc, th)
    assert step is not None
    expected = np.maximum(P + dense_newton_direction(points, P, th), 0.0)
    expected /= expected.sum()
    assert np.abs(step[0] - expected).max() <= 1e-12
    assert step[3] < g.max() - f


# Supports where B has null vectors beyond the sums of each axis's columns.
TIGHT_SUPPORTS = {
    "tn3": tn(3),
    "tn4": tn(4),
    "tn5": tn(5),
    "cw2": cw(2),
    "cw3": cw(3),
    "cw4": cw(4),
    "CW1": cw_big(1),
    "CW2": cw_big(2),
    "CW3": cw_big(3),
    "z3": z3(),
    "matmul222": matmul(2, 2, 2),
    "kron_tn3_tn3": kron(tn(3), tn(3)),
    "cyc_tn3": cyc(tn(3)),
}


def _tight_case(name, kind):
    """Points of a tight support, a theta of the given kind and a random P > 0."""
    rng = random.Random(f"{name}:{kind}")
    points = sorted(TIGHT_SUPPORTS[name].support().points)
    if kind == "uniform":
        th = Theta.uniform().as_tuple()
    elif kind == "random":
        a, b = rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45)
        th = (a, b, 1.0 - a - b)
    else:
        th = (0.6, 1e-3, 0.399)
    P = np.array([rng.uniform(0.5, 1.5) for _ in points])
    return points, th, P / P.sum()


@pytest.mark.parametrize("kind", ["uniform", "random", "low"])
@pytest.mark.parametrize("name", sorted(TIGHT_SUPPORTS))
def test_newton_direction_matches_dense_reference_on_tight_supports(name, kind):
    points, th, P = _tight_case(name, kind)
    enc = _AxisEncoding(points)
    f, _ = _objective_and_scores(P, enc, th)
    delta = _newton_direction(P, f, enc, _active_system(P, enc, th))
    expected = dense_newton_direction(points, P, th)
    assert np.abs(delta - expected).max() <= 1e-9 * np.abs(expected).max()


@pytest.mark.parametrize("th", [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.0, 0.5)])
@pytest.mark.parametrize("name", sorted(TIGHT_SUPPORTS))
def test_newton_basis_size_is_the_rank_of_G(name, th):
    points = sorted(TIGHT_SUPPORTS[name].support().points)
    P = np.full(len(points), 1.0 / len(points))
    system = _active_system(P, _AxisEncoding(points), th)
    # G = B^T B from dicts: entry (u, v) counts the points using both
    # coordinates u and v, each an (axis, value) pair on a weighted axis.
    index, entries = {}, {}
    for p in points:
        used = [index.setdefault((i, p[i]), len(index)) for i in range(3) if th[i]]
        for u in used:
            for v in used:
                entries[u, v] = entries.get((u, v), 0) + 1
    rank = rank_mod_p(SimpleNamespace(entries=entries))
    assert len(system.basis) == rank < len(index)


@pytest.mark.parametrize("points, th", [
    ([(0, 3, 2), (1, 2, 2), (1, 3, 0), (2, 0, 2), (2, 2, 2), (2, 2, 3), (3, 2, 1)], (0.899, 0.1, 0.001)),
    ([(0, 1, 2), (1, 0, 3), (2, 0, 2), (3, 0, 0), (3, 1, 1), (3, 3, 3)], (0.1, 0.002, 0.898)),
    ([(0, 3, 2), (1, 3, 1), (2, 2, 2), (2, 3, 0), (3, 0, 2)], (0.6129012413929197, 0.005, 0.3820987586070803)),
])
def test_rho_converges_with_the_largest_score_on_a_dust_point(points, th):
    # A solve on these supports can reach a state whose largest score sits
    # on a point of mass about 1e-17, alone on its coordinate of the
    # low-weight axis.  Newton leaves such dust alone; the toward step that
    # moves it lowers the gap a lot while f may drop by an ulp.
    res = rho_upper_on_support(Support((4, 4, 4), frozenset(points)), Theta(*th))
    assert res.residual <= 1e-10
    _assert_certified(res, th)


def test_rho_cyc_tn4_newton_converges():
    res = rho_upper(cyc(tn(4)))
    assert res.residual <= 1e-10
    assert res.iterations <= 100


def _assert_certified(res, th, tol=1e-10):
    f, gap = certificate_gap(res.argmax.points, res.argmax.probs, th)
    assert res.value == pytest.approx(f, abs=1e-12)
    assert gap <= tol + 1e-12


def _random_support(rng, m, dims):
    cells = list(product(*(range(d) for d in dims)))
    return Support(dims, frozenset(rng.sample(cells, m)))


def test_rho_random_100_point_supports_converge_in_100_iterations():
    # Many points end at zero mass.  Away steps drop them one at a time
    # (up to 7,204 iterations on these supports); a Newton step cut at its
    # ratio test drops them with the Newton direction.
    for seed in range(20):
        rng = random.Random(f"sparse100:{seed}")
        dims = tuple(rng.randint(8, 24) for _ in range(3))
        res = rho_upper_on_support(_random_support(rng, 100, dims))
        assert res.iterations <= 100
        _assert_certified(res, Theta.uniform().as_tuple())


def test_rho_converges_at_weights_zero_or_at_least_1e_3():
    rng = random.Random(12)
    for _ in range(60):
        support = _random_support(rng, rng.randint(3, 10), (4, 4, 4))
        a, b = (rng.choice([0.0, 1e-3, 2e-3, 1e-2, rng.uniform(1e-3, 0.5)]) for _ in range(2))
        th = [a, b, 1.0 - a - b]
        rng.shuffle(th)
        res = rho_upper_on_support(support, Theta(*th))
        assert res.residual <= 1e-10
        _assert_certified(res, th)


def test_rho_keeps_a_point_alone_on_a_weighted_coordinate():
    # (1, 2, 2) alone holds coordinate 2 of the axis of weight 1e-12, so its
    # optimal mass is positive but underflows, and zero would make the gap
    # infinite.  The away step taken to its end is clamped at zero and
    # leaves rounding dust there, which keeps the gap finite.
    points = [(0, 2, 0), (1, 0, 3), (1, 2, 2), (1, 2, 3), (2, 2, 1), (3, 2, 3)]
    th = (0.2133072500126265, 0.7866927499863735, 1e-12)
    res = rho_upper_on_support(Support((4, 4, 4), frozenset(points)), Theta(*th))
    assert res.residual <= 1e-10
    _assert_certified(res, th)


def test_newton_step_stops_at_ratio_test_and_drops_the_point():
    points = [(0, 2, 0), (1, 0, 1), (2, 0, 1), (2, 0, 2)]
    th = (1 / 3, 1 / 3, 1 / 3)
    P = np.full(4, 0.25)
    delta = dense_newton_direction(points, P, th)
    # The full step takes a mass below zero; the ratio test stops where the
    # first one reaches it.
    assert (P + delta).min() < 0
    reach, j = min((P[a] / -delta[a], a) for a in range(4) if delta[a] < 0)
    enc = _AxisEncoding(points)
    f, g = _objective_and_scores(P, enc, th)
    step = _newton(P, f, g, enc, th)
    assert step is not None
    assert step[0][j] == 0.0
    expected = P + reach * delta
    expected[j] = 0.0
    assert np.abs(step[0] - expected / expected.sum()).max() <= 1e-12
    assert certificate_gap(points, step[0], th)[1] < certificate_gap(points, P, th)[1]


def test_newton_step_keeps_dust_masses():
    # A mass at most 1e-14 is outside the active set the step solves on; the
    # step must leave it, not zero it.
    points = [(0, 2, 0), (1, 0, 1), (2, 0, 1), (2, 0, 2)]
    th = (1 / 3, 1 / 3, 1 / 3)
    P = np.array([0.386, 0.307, 1e-16, 0.307])
    P /= P.sum()
    enc = _AxisEncoding(points)
    f, g = _objective_and_scores(P, enc, th)
    step = _newton(P, f, g, enc, th)
    assert step is not None
    assert step[0][2] == pytest.approx(P[2], rel=1e-9, abs=0.0)
    assert certificate_gap(points, step[0], th)[1] < certificate_gap(points, P, th)[1]


def test_rho_permutation_invariance():
    rng = random.Random(11)
    for _ in range(10):
        t = random_unit_tensor(rng)
        base = rho_upper(t, tol=1e-11).value
        for perm in ((1, 2, 0), (2, 0, 1), (0, 2, 1)):
            assert rho_upper(permute_legs(t, perm), tol=1e-11).value == pytest.approx(
                base, abs=1e-9
            )
        # relabel coordinate values within each axis
        relabel = [
            {v: (v * 7 + 3) % d if d > 1 else v for v in range(d)} for d in t.dims
        ]
        if all(len(set(m.values())) == len(m) for m in relabel):
            moved = Tensor(
                t.dims,
                {
                    (relabel[0][i], relabel[1][j], relabel[2][k]): c
                    for (i, j, k), c in t.entries.items()
                },
            )
            assert rho_upper(moved, tol=1e-11).value == pytest.approx(base, abs=1e-9)


def test_rho_additive_under_kron():
    rng = random.Random(21)
    for _ in range(8):
        s = random_unit_tensor(rng, max_size=4)
        t = random_unit_tensor(rng, max_size=4)
        lhs = rho_upper(kron(s, t), tol=1e-10).value
        rhs = rho_upper(s, tol=1e-10).value + rho_upper(t, tol=1e-10).value
        assert lhs == pytest.approx(rhs, abs=1e-8)


def test_grid_oracle_w():
    assert rho_grid_oracle(w(), resolution=3000) == pytest.approx(H13, abs=1e-4)


def test_grid_oracle_unit2_exact():
    assert rho_grid_oracle(unit(2), resolution=1000) == 1.0


def test_grid_oracle_cw_big_symmetric():
    got = rho_grid_oracle(cw_big(1), resolution=4000)
    peak = cw_big_marginal_entropy(1, cw_big_entropy_argmax(1))
    assert got == pytest.approx(peak, abs=1e-4)
    assert got == pytest.approx(1.4621070998581458, abs=1e-4)


def test_grid_oracle_cw_symmetric_any_size():
    for q in (3, 5, 7):
        assert rho_grid_oracle(cw(q), resolution=10) == pytest.approx(
            cw_small_entropy_bound(q), abs=1e-12
        )


def test_grid_oracle_weighted_theta():
    theta = Theta(0.5, 0.3, 0.2)
    got = rho_grid_oracle(w(), theta, resolution=800)
    opt = rho_upper(w(), theta, tol=1e-10)
    assert got == pytest.approx(opt.value, abs=1e-3)
    assert got <= opt.value + 1e-9


def test_grid_oracle_rejects_large_support():
    with pytest.raises(ValueError):
        rho_grid_oracle(z3(), resolution=100)
    with pytest.raises(ValueError):
        rho_grid_oracle(w(), resolution=0)


@pytest.mark.parametrize("m", range(1, 7))
@pytest.mark.parametrize("block", [7, 1 << 14])
def test_grid_batches_cover_each_composition_once(m, block):
    for R in (1, 2, 5, 9, 300 if m == 3 else 20):
        columns = []
        for counts in _grid_batches(m, R, block):
            assert counts.shape[0] == m and 0 < counts.shape[1] <= block
            assert (counts >= 0).all() and (counts.sum(axis=0) == R).all()
            columns.extend(map(tuple, counts.T.tolist()))
        assert len(set(columns)) == len(columns) == math.comb(R + m - 1, m - 1)


_CELLS = [(a, b, c) for a in range(3) for b in range(3) for c in range(3)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(_CELLS), min_size=1, max_size=6, unique=True),
    st.integers(1, 12),
    st.tuples(*[st.one_of(st.just(0.0), st.floats(0.05, 1.0))] * 3).filter(lambda v: sum(v) > 0),
)
def test_grid_max_matches_naive_enumeration(points, resolution, weights):
    points = sorted(points)
    th = tuple(v / sum(weights) for v in weights)
    want = naive_grid_max(points, th, resolution)
    assert _grid_max(points, th, resolution) == pytest.approx(want, rel=0, abs=1e-12)


@pytest.mark.parametrize("m, resolution", [(3, 300), (4, 40), (5, 12), (6, 12)])
def test_grid_max_matches_naive_enumeration_at_workload_shapes(m, resolution):
    rng = random.Random(1000 * m + resolution)
    for weights in [(1.0, 1.0, 1.0), (rng.random(), rng.random(), rng.random())]:
        points = sorted(rng.sample(_CELLS, m))
        th = tuple(v / sum(weights) for v in weights)
        want = naive_grid_max(points, th, resolution)
        assert _grid_max(points, th, resolution) == pytest.approx(want, rel=0, abs=1e-12)


def test_grid_max_plateaus():
    uniform = (1 / 3, 1 / 3, 1 / 3)
    # unit(2) peaks at exactly 1.0 on even grids, unit(3) at the naive value.
    for resolution in (2, 300, 1000):
        assert _grid_max(sorted(unit(2).entries), uniform, resolution) == 1.0
    points = sorted(unit(3).entries)
    assert _grid_max(points, uniform, 30) == naive_grid_max(points, uniform, 30)
    assert _grid_max(points, uniform, 999) == pytest.approx(math.log2(3), rel=0, abs=1e-15)
    # The last two points differ only on an axis of weight 0, so f is
    # constant along every bisected line.
    for points, th in [
        ([(0, 0, 0), (1, 1, 0), (1, 1, 1)], (0.5, 0.5, 0.0)),
        ([(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)], (1.0, 0.0, 0.0)),
    ]:
        for resolution in (1, 7, 40):
            want = naive_grid_max(points, th, resolution)
            assert _grid_max(points, th, resolution) == pytest.approx(want, rel=0, abs=1e-12)


def test_grid_oracle_refuses_grids_over_the_limit_before_allocating():
    six = Tensor((3, 3, 3), {p: 1 for p in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 2),
                                             (2, 1, 1), (2, 2, 2)]})
    cases = [
        (w(), ORACLE_GRID_LIMIT + 1),  # resolution
        (w(), 10**12),
        (unit(2), ORACLE_GRID_LIMIT + 1),  # a single line
        (six, 200),  # C(204, 4) lines
        (cw_big(6), ORACLE_GRID_LIMIT // 21),  # 21 points x (R + 1) steps
    ]
    for t, resolution in cases:
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="grid oracle"):
                rho_grid_oracle(t, resolution=resolution)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


@pytest.mark.parametrize("q", range(1, 5))
def test_grid_oracle_cw_big_matches_closed_form_steps(q):
    R = 4000
    want = max(cw_big_marginal_entropy(q, step / R / (3 * q)) for step in range(R + 1))
    assert rho_grid_oracle(cw_big(q), resolution=R) == pytest.approx(want, rel=0, abs=1e-12)


def test_grid_oracle_matches_optimizer_small():
    rng = random.Random(77)
    res_for_size = {2: 2000, 3: 1200, 4: 300, 5: 150}
    for _ in range(12):
        t = random_unit_tensor(rng, max_size=5)
        got = rho_grid_oracle(t, resolution=res_for_size[len(t.entries)])
        opt = rho_upper(t, tol=1e-10)
        assert got <= opt.value + 1e-9  # grid max is a lower estimate
        assert got == pytest.approx(opt.value, abs=1e-3)


def test_cw_big_marginal_entropy_values():
    assert cw_big_marginal_entropy(2, 1 / 9) == pytest.approx(1.8365916681089791, abs=1e-12)
    x1 = cw_big_entropy_argmax(1)
    assert cw_big_marginal_entropy(1, x1) == pytest.approx(1.4621070998581458, abs=1e-12)
    for q in (1, 2, 5):
        assert cw_big_marginal_entropy(q, 0.0) == pytest.approx(H13, abs=1e-12)
    with pytest.raises(ValueError):
        cw_big_marginal_entropy(2, 0.5)
    with pytest.raises(ValueError):
        cw_big_marginal_entropy(2, -0.01)
    with pytest.raises(ValueError):
        cw_big_marginal_entropy(0, 0.0)


def test_cw_big_entropy_argmax_values():
    assert cw_big_entropy_argmax(1) == pytest.approx((math.sqrt(33) - 3) / 18, abs=1e-15)
    assert cw_big_entropy_argmax(1) == pytest.approx(0.15247570258544604, abs=1e-12)
    assert cw_big_entropy_argmax(2) == pytest.approx(1 / 9, abs=1e-15)
    assert cw_big_entropy_argmax(3) == pytest.approx((9 - math.sqrt(41)) / 30, abs=1e-15)
    with pytest.raises(ValueError):
        cw_big_entropy_argmax(0)


def _entropy_curve_derivative(q, x):
    # d/dx of the symmetric-family entropy: differentiating the three
    # x*log2(x) terms directly gives q * log2((2/3-qx)(1/3-qx) / (2x)^2)
    return q * math.log2((2 / 3 - q * x) * (1 / 3 - q * x) / (4 * x * x))


@pytest.mark.parametrize("q", (1, 2, 4, 8, 16))
def test_entropy_curve_derivative_matches_finite_difference(q):
    # validate the analytic derivative away from the stationary point,
    # where central differences are well conditioned
    for frac in (0.3, 0.6):
        x = frac / (3 * q)
        h = 1e-6 / q
        fd = (cw_big_marginal_entropy(q, x + h) - cw_big_marginal_entropy(q, x - h)) / (2 * h)
        assert fd == pytest.approx(_entropy_curve_derivative(q, x), abs=1e-6)


@pytest.mark.parametrize("q", range(1, 21))
def test_cw_big_argmax_is_stationary(q):
    # the curve derivative vanishes at the returned maximizer; finite
    # differences are too ill-conditioned here (the third derivative grows
    # like q^3 / (1/3 - qx)^2 near the right edge of the domain)
    x = cw_big_entropy_argmax(q)
    assert abs(_entropy_curve_derivative(q, x)) <= 1e-8


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9))
def test_objective_concavity_midpoint(seed):
    rng = random.Random(seed)
    t = cw(2)
    pts = sorted(t.entries)

    def rand_dist():
        weights = [rng.random() for _ in pts]
        s = sum(weights)
        return [v / s for v in weights]

    def objective(probs):
        total = 0.0
        for axis in range(3):
            agg = {}
            for p, pr in zip(pts, probs):
                agg[p[axis]] = agg.get(p[axis], 0.0) + pr
            total += entropy_bits([v for v in agg.values()]) / 3.0
        return total

    a, b = rand_dist(), rand_dist()
    mid = [(x + y) / 2 for x, y in zip(a, b)]
    assert objective(mid) >= (objective(a) + objective(b)) / 2 - 1e-12


def test_cw_recognizers_find_the_families_only():
    for q in range(1, 8):
        assert _cw_small_param(cw(q)) == q
        assert _cw_big_param(cw(q)) is None
    for q in range(1, 7):
        assert _cw_big_param(cw_big(q)) == q
        assert _cw_small_param(cw_big(q)) is None
    for t in (kron(tn(3), tn(3)), cyc(cw_big(1))):
        assert _cw_small_param(t) is None and _cw_big_param(t) is None
    # One support point moved off the family's support, same dims and count.
    for family, recognize, moved in ((cw, _cw_small_param, (0, 1, 2)),
                                     (cw_big, _cw_big_param, (0, 2, 1))):
        entries = dict(family(3).entries)
        del entries[(0, 1, 1)]
        entries[moved] = 1
        t = Tensor(family(3).dims, entries)
        assert recognize(t) is None
