import math
import random
import tracemalloc
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    dsum,
    kron,
    matmul,
    permute_legs,
    rho_grid_oracle,
    rho_upper,
    rho_upper_on_support,
    tn,
    tn_entropy_bound,
    unit,
    w,
    z3,
)
from conftest import (
    STALL_POINTS,
    STALL_THETA,
    certificate_gap,
    dense_newton_direction,
    naive_grid_max,
    random_unit_tensor,
    rank_mod_p,
    reference_grid_max,
)
from irrev import entropy
from irrev.entropy import (
    ORACLE_GRID_LIMIT,
    _ActiveSystem,
    _AxisEncoding,
    _frank_wolfe_step,
    _grid_leads,
    _grid_lines,
    _grid_max,
    _line_search,
    _newton_direction,
    _newton_step,
    _objective_and_scores,
)
from irrev.tensor import cw_param

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


def test_rho_cw_big_above_the_newton_cap():
    # n = 1,026 used coordinates, past the 1,024 cap: away-step Frank-Wolfe
    # alone converges (5 away steps).
    res = rho_upper(cw_big(340), tol=1e-9)
    assert res.steps["newton"] == res.steps["drop"] == 0
    assert res.residual <= 1e-9
    assert abs(res.value - cw_big_marginal_entropy(340, cw_big_entropy_argmax(340))) <= 1e-9


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


def test_rho_stall_raises_with_its_best_iterate():
    # Both steps are refused, so the solve stops early; the best iterate it
    # carries is a distribution on the support whose residual is above tol.
    support = Support((5, 5, 5), frozenset(STALL_POINTS))
    with pytest.raises(BudgetExceededError, match="stalled after") as err:
        rho_upper_on_support(support, Theta(*STALL_THETA), tol=1e-10)
    best = err.value.best
    assert best.residual > 1e-10
    assert best.argmax.points == tuple(sorted(STALL_POINTS))
    assert min(best.argmax.probs) >= 0 and math.fsum(best.argmax.probs) == pytest.approx(1.0)


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
        return certificate_gap(points, moved / moved.sum(), th)[0]

    assert gamma < gamma_max
    assert objective(gamma) >= objective(0.0)


def _search_slope(bases, dirs, th, gamma):
    """phi' of `_line_search` at gamma, in its order of operations, so that
    its sign agrees bit for bit with the one the search bisects on."""
    d1 = 0.0
    for i in range(3):
        if th[i] == 0.0:
            continue
        m = bases[i] + gamma * dirs[i]
        pos = m > 1e-15 * bases[i]
        if (dirs[i][~pos] < 0).any():
            return -math.inf
        d1 -= th[i] * float(dirs[i][pos] @ np.log2(m[pos]))
    return d1


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(*[st.integers(0, 40)] * 3), min_size=1, max_size=30, unique=True))
def test_axis_encoding_is_the_unique_inverse(points):
    points = sorted(points)
    enc = _AxisEncoding(points)
    for axis in range(3):
        values, inverse = np.unique([p[axis] for p in points], return_inverse=True)
        assert enc.idx[axis].dtype == inverse.dtype
        assert enc.idx[axis].tolist() == inverse.tolist()
        assert enc.sizes[axis] == len(values)


def _frank_wolfe_segments(seed):
    """(points, th, P, v, s, gamma_max): the toward and the away segment of
    away-step Frank-Wolfe at a random P on a random small support."""
    rng = random.Random(seed)
    points = sorted(_random_support(rng, rng.randint(3, 9), (4, 4, 4)).points)
    th = [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.0, 0.5), (0.899, 0.1, 0.001), (0.2, 0.3, 0.5)][seed % 4]
    P = np.array([rng.choice((1e-9, 1.0)) * rng.random() for _ in points])
    P /= P.sum()
    _, _, g, _, _ = _objective_and_scores(P, _AxisEncoding(points), th)
    a = int(np.where(P > 1e-14, g, np.inf).argmin())
    return [(points, th, P, int(g.argmax()), 1.0, 1.0), (points, th, P, a, -1.0, P[a] / (1.0 - P[a]))]


@pytest.mark.parametrize("seed", range(40))
def test_line_search_returns_the_last_gamma_with_positive_slope(seed):
    for points, th, P, v, s, gamma_max in _frank_wolfe_segments(seed):
        enc = _AxisEncoding(points)
        bases = [np.bincount(enc.idx[i], weights=P, minlength=enc.sizes[i]) for i in range(3)]
        dirs = [s * ((np.arange(enc.sizes[i]) == enc.idx[i][v]) - bases[i]) for i in range(3)]
        gamma = _line_search(bases, dirs, th, gamma_max)
        if _search_slope(bases, dirs, th, gamma_max) >= 0:
            assert gamma == gamma_max
            continue
        assert 0.0 <= gamma < gamma_max
        assert gamma == 0.0 or _search_slope(bases, dirs, th, gamma) > 0
        # The next float, within 1e-15 gamma above gamma, has phi' <= 0.
        assert _search_slope(bases, dirs, th, np.nextafter(gamma, math.inf)) <= 0

        def objective(x):
            moved = np.maximum((1.0 - s * x) * P + s * x * (np.arange(len(P)) == v), 0.0)
            return certificate_gap(points, moved / moved.sum(), th)[0]

        best = objective(gamma)
        for x in np.linspace(0.0, gamma_max, 9):
            assert objective(x) <= best + 1e-12


def _two_branch_frank_wolfe_move(it, enc, th):
    """The away-step Frank-Wolfe move written as two branches, toward and
    away: P after it, and the branch taken."""
    P, f, g, margs, _ = it
    b = int(g.argmax())
    a = int(np.where(P > 1e-14, g, np.inf).argmin())
    toward = g[b] - f >= f - g[a] or P[a] >= 1.0 - 1e-12
    dirs = []
    for i in range(3):
        if toward:
            d = -margs[i]
            d[enc.idx[i][b]] += 1.0
        else:
            d = margs[i].copy()
            d[enc.idx[i][a]] -= 1.0
        dirs.append(d)
    gamma = _line_search(margs, dirs, th, 1.0 if toward else P[a] / (1.0 - P[a]))
    if toward:
        P2 = (1.0 - gamma) * P
        P2[b] += gamma
    else:
        P2 = (1.0 + gamma) * P
        P2[a] -= gamma
        P2 = np.maximum(P2, 0.0)
    return P2 / P2.sum(), "toward" if toward else "away"


@pytest.mark.parametrize("P, kind", [
    (np.full(7, 1 / 7), "toward"),
    (np.array([24, 7, 18, 5, 18, 7, 22]) / 101, "away"),
])
def test_frank_wolfe_step_is_the_two_branch_move_bit_for_bit(P, kind):
    points = sorted([(0, 3, 2), (1, 2, 2), (1, 3, 0), (2, 0, 2), (2, 2, 2), (2, 2, 3), (3, 2, 1)])
    th = (0.899, 0.1, 0.001)
    enc = _AxisEncoding(points)
    it = _objective_and_scores(P, enc, th)
    expected, expected_kind = _two_branch_frank_wolfe_move(it, enc, th)
    step = _frank_wolfe_step(it, enc, th)
    assert step is not None and step[1] == expected_kind == kind
    assert step[0][0].tobytes() == expected.tobytes()
    assert step[0][1] > it[1]


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


def _newton(P, enc, th):
    """The iterate after one Newton step from P, or None."""
    step = _newton_step(_objective_and_scores(P, enc, th), enc, th, _active_system(P, enc, th))
    return step and step[0]


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
    step = _newton(P, enc, th)
    assert step is not None
    expected = np.maximum(P + dense_newton_direction(points, P, th), 0.0)
    expected /= expected.sum()
    assert np.abs(step[0] - expected).max() <= 1e-12
    assert step[4] < _objective_and_scores(P, enc, th)[4]


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
    _, f, _, margs, _ = _objective_and_scores(P, enc, th)
    delta = _newton_direction(margs, f, _active_system(P, enc, th))
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


DUST_POINT_CASES = [
    ([(0, 3, 2), (1, 2, 2), (1, 3, 0), (2, 0, 2), (2, 2, 2), (2, 2, 3), (3, 2, 1)], (0.899, 0.1, 0.001)),
    ([(0, 1, 2), (1, 0, 3), (2, 0, 2), (3, 0, 0), (3, 1, 1), (3, 3, 3)], (0.1, 0.002, 0.898)),
    ([(0, 3, 2), (1, 3, 1), (2, 2, 2), (2, 3, 0), (3, 0, 2)], (0.6129012413929197, 0.005, 0.3820987586070803)),
]


@pytest.mark.parametrize("points, th", DUST_POINT_CASES)
def test_rho_converges_with_the_largest_score_on_a_dust_point(points, th):
    # A solve on these supports can reach a state whose largest score sits
    # on a point of mass about 1e-17, alone on its coordinate of the
    # low-weight axis.  Newton leaves such dust alone; the toward step that
    # moves it lowers the gap a lot while f may drop by an ulp.
    res = rho_upper_on_support(Support((4, 4, 4), frozenset(points)), Theta(*th))
    assert res.residual <= 1e-10
    _assert_certified(res, th)


@pytest.mark.parametrize("case, steps", [(0, (7, 1, 4, 2)), (1, (7, 0, 2, 2)), (2, (5, 0, 3, 1))])
def test_rho_dust_point_solves_take_pinned_steps(case, steps):
    # Newton, drop, toward and away steps of the solves above: a change to a
    # step or to the line search that moves the path shows here first.
    points, th = DUST_POINT_CASES[case]
    res = rho_upper_on_support(Support((4, 4, 4), frozenset(points)), Theta(*th))
    assert res.steps == dict(zip(("newton", "drop", "toward", "away"), steps))


@pytest.mark.parametrize("units, block, th", [
    (171, w(), (1 / 3, 1 / 3, 1 / 3)),
    (171, w(), (0.5, 0.3, 0.2)),
    (170, tn(3), (1 / 3, 1 / 3, 1 / 3)),
], ids=["unit171+w", "unit171+w@0.5,0.3,0.2", "unit170+tn3"])
def test_rho_newton_runs_on_519_used_coordinates(units, block, th):
    # n = 519 used coordinates; Frank-Wolfe alone stalls on these.
    res = rho_upper(dsum(unit(units), block), Theta(*th))
    assert res.residual <= 1e-10
    _assert_certified(res, th)
    # Blocks that share no coordinate add as 2^rho: each unit point is 2^0.
    want = math.log2(units + 2 ** rho_upper(block, Theta(*th)).value)
    assert res.value == pytest.approx(want, rel=0, abs=1e-12)


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


def _assert_entropies(res, th):
    # Axis i's entropy is the dict oracle's objective at the unit weight on i.
    for i in range(3):
        unit_i = tuple(float(j == i) for j in range(3))
        h = certificate_gap(res.argmax.points, res.argmax.probs, unit_i)[0]
        assert res.entropies[i] == pytest.approx(h, abs=1e-12)
    assert sum(t * h for t, h in zip(th, res.entropies)) == res.value


def test_rho_entropies_are_the_marginal_entropies_of_the_argmax():
    rng = random.Random("entropies")
    for _ in range(40):
        support = _random_support(rng, rng.randint(3, 10), (4, 4, 4))
        a, b = rng.uniform(0.05, 0.45), rng.uniform(0.05, 0.45)
        one_zero = [a, 1.0 - a, 0.0]
        rng.shuffle(one_zero)
        for th in (Theta.uniform().as_tuple(), (a, b, 1.0 - a - b), tuple(one_zero)):
            try:
                res = rho_upper_on_support(support, Theta(*th))
            except BudgetExceededError as exc:
                res = exc.best
            _assert_entropies(res, th)
    with pytest.raises(BudgetExceededError) as err:
        rho_upper(cw_big(3), tol=1e-14, iter_budget=2)
    _assert_entropies(err.value.best, Theta.uniform().as_tuple())


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
    step = _newton(P, _AxisEncoding(points), th)
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
    step = _newton(P, _AxisEncoding(points), th)
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


@pytest.mark.parametrize("p", range(6))
@pytest.mark.parametrize("block", [1, 7, 1 << 14])
def test_grid_leads_cover_each_vector_once(p, block):
    # At p = 1 and R = 40,000 the one head spans three blocks.
    for R in [0, 1, 2, 5, 9] + [40_000] * (p == 1 and block == 1 << 14):
        columns = []
        for lead in _grid_leads(p, R, block):
            assert lead.shape[0] == p and 0 < lead.shape[1] <= block
            assert (lead >= 0).all() and (lead.sum(axis=0) <= R).all()
            columns.extend(map(tuple, lead.T.tolist()))
        assert len(set(columns)) == len(columns) == math.comb(R + p, p)


_SIX = sorted([(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 2), (2, 1, 1), (2, 2, 0)])


def test_grid_max_at_six_points_holds_one_block_of_heads():
    # (m, R) = (6, 97) spans C(101, 4) lines, the most the grid limit allows
    # at 6 points.  Building every head at once, plus the list it was stacked
    # from, peaked at 9.0 MB; a block of 2^12 heads at a time peaked at 1.3 MB
    # with every line built, and at 0.9 MB with the face bound.
    tracemalloc.start()
    try:
        value = _grid_max(_SIX, (1 / 3, 1 / 3, 1 / 3), 97)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5e6
    assert value == 1.5848096881785816  # as with every head built at once


def test_grid_max_face_bound_keeps_most_lines_unbuilt(monkeypatch):
    # Every lead column that reaches the line stage passes through `search`.
    scored = []

    def counting_grid_lines(*args):
        lines, search = _grid_lines(*args)
        return lines, lambda lead, best: scored.append(lead.shape[1]) or search(lead, best)

    monkeypatch.setattr(entropy, "_grid_lines", counting_grid_lines)
    assert _grid_max(_SIX, (1 / 3, 1 / 3, 1 / 3), 97) == 1.5848096881785816
    assert sum(scored) < 0.05 * math.comb(101, 4)


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


@pytest.mark.parametrize("m, resolution", [(3, 1200), (4, 300), (5, 100), (6, 40)])
def test_grid_max_matches_reference_bisection_at_workload_shapes(m, resolution):
    # reference_grid_max builds every line; _grid_max drops the heads whose
    # face bound falls below the best value found.  Weights: uniform, random,
    # and random with one axis at 0 (no row in the bound) or 1e-9 (a row
    # whose terms are near rounding size).
    rng = random.Random(7 * m + resolution)
    for _ in range(2):
        points = sorted(rng.sample(_CELLS, m))
        weights = [rng.random() for _ in range(3)]
        zero, tiny = weights.copy(), weights.copy()
        axis = rng.randrange(3)
        zero[axis], tiny[axis] = 0.0, 1e-9 * sum(weights)
        for w in [(1.0, 1.0, 1.0), weights, zero, tiny]:
            th = tuple(v / sum(w) for v in w)
            want = reference_grid_max(points, th, resolution)
            assert _grid_max(points, th, resolution) == pytest.approx(want, rel=0, abs=1e-12)


@pytest.mark.parametrize("points, th, resolutions", [
    (sorted(unit(2).entries), (1 / 3, 1 / 3, 1 / 3), (2, 300, 1000)),
    (sorted(unit(3).entries), (1 / 3, 1 / 3, 1 / 3), (30, 999)),
    (sorted(unit(4).entries), (1 / 3, 1 / 3, 1 / 3), (4, 300)),
    ([(0, 0, 0), (1, 1, 0), (1, 1, 1)], (0.5, 0.5, 0.0), (1, 7, 40)),
    ([(0, 0, 0), (0, 1, 1), (1, 0, 0), (1, 1, 1)], (1.0, 0.0, 0.0), (1, 7, 40, 300)),
], ids=["unit2", "unit3", "unit4", "3-points-weight-0", "4-points-weight-0"])
def test_grid_max_matches_reference_bisection_on_plateaus(points, th, resolutions):
    # The supports of test_grid_max_plateaus, and unit(4), where many heads
    # tie with the maximum and faces of one head hold it.
    for resolution in resolutions:
        want = reference_grid_max(points, th, resolution)
        assert _grid_max(points, th, resolution) == pytest.approx(want, rel=0, abs=1e-12)


@st.composite
def _grid_line_cases(draw):
    """(points, theta, R, lead): a support, and the counts of all its points
    but the last two, which span one line of the grid."""
    points = sorted(draw(st.lists(st.sampled_from(_CELLS), min_size=2, max_size=6, unique=True)))
    resolution = draw(st.integers(1, 40))
    weights = draw(st.tuples(*[st.one_of(st.just(0.0), st.floats(0.05, 1.0))] * 3)
                   .filter(lambda v: sum(v) > 0))
    lead = []
    for _ in range(len(points) - 2):
        lead.append(draw(st.integers(0, resolution - sum(lead))))
    return points, tuple(v / sum(weights) for v in weights), resolution, lead


def _line_scan(case):
    """The bracket `_grid_lines` gives the line of `case`, and f at every
    split x + (S - x) of its last two points, from dicts."""
    points, th, resolution, lead = case
    lines, _ = _grid_lines(points, th, resolution)
    _, _, lo, hi = lines(np.array(lead, dtype=np.intp).reshape(-1, 1))
    S = resolution - sum(lead)
    f = [certificate_gap(points, [c / resolution for c in (*lead, x, S - x)], th)[0]
         for x in range(S + 1)]
    return int(lo[0]), int(hi[0]), f


_UNIFORM = (1 / 3, 1 / 3, 1 / 3)
# Three sides with one root, 7 // 2; S = 0; no side at all, since the last
# two points differ only on the axis of weight 0; the bracket [0, 4] with
# the maximum at 1, left of its midpoint, and [0, 3] with it at 2, right.
_LINE_EXAMPLES = [([(0, 0, 0), (1, 1, 1)], _UNIFORM, 7, []),
                  ([(0, 0, 0), (0, 1, 1), (1, 0, 1)], _UNIFORM, 5, [5]),
                  ([(0, 0, 0), (1, 1, 0), (1, 1, 1)], (0.5, 0.5, 0.0), 6, [2]),
                  ([(0, 0, 0), (0, 0, 1), (1, 1, 0)], _UNIFORM, 8, [4]),
                  ([(0, 0, 0), (0, 0, 1), (0, 1, 0)], _UNIFORM, 7, [3])]


def _with_line_examples(test):
    for case in _LINE_EXAMPLES:
        test = example(case)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(_grid_line_cases())
@_with_line_examples
def test_grid_line_bracket_holds_the_first_split_that_does_not_rise(case):
    lo, hi, f = _line_scan(case)
    # Below lo every side rises, by more than 1e-5 at these weights and
    # resolutions, so a rise of at most 1e-12 is rounding.
    first = next((x for x in range(len(f) - 1) if f[x + 1] - f[x] <= 1e-12), len(f) - 1)
    assert 0 <= lo <= first <= hi <= len(f) - 1
    # With two points all sides share one root; with S = 0 the line is a point.
    if len(case[0]) == 2 or case[2] == sum(case[3]):
        assert lo == hi


@settings(max_examples=150, deadline=None)
@given(_grid_line_cases())
@_with_line_examples
def test_grid_line_search_finds_the_line_maximum(case):
    points, th, resolution, lead = case
    _, search = _grid_lines(points, th, resolution)
    got = search(np.array(lead, dtype=np.intp).reshape(-1, 1), -math.inf)
    assert got == pytest.approx(max(_line_scan(case)[2]), rel=0, abs=1e-12)


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


def _cross_entropy_scores(points, axes):
    """Score of each point against axis distributions axes[i] (dicts):
    sum_i (1/3) log2(1 / axes[i][s_i]), which bounds the entropy maximum at
    uniform theta from above, as cross-entropy is at least entropy."""
    return {s: math.fsum(-math.log2(axes[i][s[i]]) for i in range(3)) / 3 for s in points}


def _tn_score(m, x):
    return math.log2(math.fsum(x**a for a in range(m))) - (m - 1) / 3 * math.log2(x)


@pytest.mark.parametrize("m", range(2, 12))
def test_tn_cross_entropy_score_is_flat_on_the_support(m):
    for x in (0.01, 0.3, 0.5, 0.77, 1.0):
        z = math.fsum(x**a for a in range(m))
        up = {a: x**a / z for a in range(m)}
        down = {c: x ** (m - 1 - c) / z for c in range(m)}
        scores = _cross_entropy_scores(tn(m).entries, (up, up, down))
        assert len(scores) == m * (m + 1) // 2
        for score in scores.values():
            assert abs(score - _tn_score(m, x)) <= 1e-12, (m, x, score)


@pytest.mark.parametrize("m", range(2, 12))
def test_tn_entropy_bound_brackets_the_optimizer_and_the_grid(m):
    bound = tn_entropy_bound(m)
    res = rho_upper(tn(m), tol=1e-12)
    assert res.value - 1e-14 <= bound <= res.value + res.residual + 1e-14
    assert min(_tn_score(m, k / 1000) for k in range(1, 1001)) >= bound - 1e-14


def test_tn_entropy_bound_values():
    assert tn_entropy_bound(2) == pytest.approx(H13, abs=1e-15)  # w's support
    with pytest.raises(ValueError):
        tn_entropy_bound(1)


@pytest.mark.parametrize("q", range(1, 11))
def test_cw_big_peak_is_its_own_cross_entropy_bound(q):
    # U, the largest score of a point against the marginals of the symmetric
    # distribution at the argmax, bounds rho above; the peak is the entropy
    # that distribution attains.  Their meeting certifies the peak as rho.
    x = cw_big_entropy_argmax(q)
    P = {s: (1 / 3 - q * x if q + 1 in s else x) for s in cw_big(q).entries}
    margs = [{} for _ in range(3)]
    for s, p in P.items():
        for i in range(3):
            margs[i][s[i]] = margs[i].get(s[i], 0.0) + p
    U = max(_cross_entropy_scores(P, margs).values())
    assert abs(U - cw_big_marginal_entropy(q, x)) <= 1e-14, q


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
            total += -sum(v * math.log2(v) for v in agg.values() if v > 0) / 3.0
        return total

    a, b = rand_dist(), rand_dist()
    mid = [(x + y) / 2 for x, y in zip(a, b)]
    assert objective(mid) >= (objective(a) + objective(b)) / 2 - 1e-12


def test_cw_recognizers_find_the_families_only():
    for q in range(1, 8):
        assert cw_param(cw(q)) == q
        assert cw_param(cw(q), big=True) is None
    for q in range(1, 7):
        assert cw_param(cw_big(q), big=True) == q
        assert cw_param(cw_big(q)) is None
    assert cw_param(w(), big=True) == 0 and cw_param(w()) is None
    for t in (kron(tn(3), tn(3)), cyc(cw_big(1))):
        assert cw_param(t) is None and cw_param(t, big=True) is None
    # One support point moved off the family's support, same dims and count.
    for family, big, moved in ((cw, False, (0, 1, 2)), (cw_big, True, (0, 2, 1))):
        entries = dict(family(3).entries)
        del entries[(0, 1, 1)]
        entries[moved] = 1
        t = Tensor(family(3).dims, entries)
        assert cw_param(t, big) is None
