import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irrev import (
    DegenerateInputError,
    Tensor,
    Theta,
    barrier_intermediate,
    barrier_rect,
    barrier_schonhage,
    better_table,
    cw,
    cw_better_barrier,
    cw_big,
    cw_big_table,
    cw_laser_barrier,
    cw_table,
    cyc,
    irr_lower,
    laser_table,
    matmul,
    min_rho_over_theta,
    rho_upper,
    tn,
    tn_table,
    unit,
    w,
    z3,
)
from irrev import barriers, entropy

from conftest import stalling_rho_upper

H13 = math.log2(3.0) - 2.0 / 3.0
IRR_W = 1.0 / H13  # 1.0889736868180786


def test_irr_lower_w():
    rep = irr_lower(w())
    assert rep.flattening_ranks == (2, 2, 2)
    assert rep.rho.value == pytest.approx(H13, abs=1e-12)
    assert rep.irr_lb == pytest.approx(IRR_W, abs=1e-9)
    assert rep.barrier_basic == pytest.approx(2 * IRR_W, abs=1e-9)
    assert rep.barrier_laser is None
    assert rep.tensor_id


def test_irr_lower_cw2():
    rep = irr_lower(cw(2))
    assert rep.irr_lb == pytest.approx(1.0, abs=1e-9)
    assert rep.barrier_basic == pytest.approx(2.0, abs=1e-9)
    # laser barrier attached for a recognized small-CW support
    assert rep.barrier_laser == pytest.approx(2.0, abs=1e-9)


def test_irr_lower_unit_is_reversible():
    for n in (2, 3, 5):
        rep = irr_lower(unit(n))
        assert rep.irr_lb == pytest.approx(1.0, abs=1e-10)


def test_irr_lower_degenerate_theta():
    t = Tensor((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1})
    with pytest.raises(DegenerateInputError):
        irr_lower(t, Theta(1.0, 0.0, 0.0))


def test_irr_lower_vacuous_flag():
    # 3x3 rank-2 slice on a single third index: entropy maximum is
    # (2/3) log2 3 > 1 while the largest flattening rank is 2.
    m = [[1, 1, 1], [1, 2, 3], [2, 3, 4]]
    entries = {(i, j, 0): m[i][j] for i in range(3) for j in range(3)}
    t = Tensor((3, 3, 1), entries)
    rep = irr_lower(t)
    assert rep.flattening_ranks == (2, 2, 1)
    assert rep.irr_lb < 1.0
    assert "bound-vacuous" in rep.notes
    assert rep.barrier_basic == pytest.approx(2 * rep.irr_lb, abs=1e-12)


def test_irr_lower_z3():
    rep = irr_lower(z3())
    assert rep.flattening_ranks == (3, 3, 3)
    assert rep.rho.value == pytest.approx(math.log2(3.0), abs=1e-9)
    assert rep.irr_lb == pytest.approx(1.0, abs=1e-9)


def test_irr_lower_rejects_theta_with_search():
    with pytest.raises(ValueError):
        irr_lower(w(), Theta(1.0, 0.0, 0.0), search_theta=True)


def test_barrier_intermediate():
    assert barrier_intermediate(1.0) == 2.0
    assert barrier_intermediate(1.08897) == pytest.approx(2.17794, abs=1e-9)
    with pytest.raises(ValueError):
        barrier_intermediate(0.99)
    # 2 irr + 0 (irr - 1) is nan at irr = inf, so the check refuses it and nan.
    for irr in (math.inf, math.nan):
        with pytest.raises(ValueError):
            barrier_intermediate(irr)


def test_barrier_schonhage():
    assert barrier_schonhage(1.0, 3, 2) == pytest.approx(2.0, abs=1e-12)
    assert barrier_schonhage(1.1, 1, 1) == pytest.approx(2.3, abs=1e-12)
    for irr in (1.0, 1.05, 1.3):
        assert barrier_schonhage(irr, 0, 7) == pytest.approx(
            barrier_intermediate(irr), abs=1e-12
        )
    with pytest.raises(ValueError):
        barrier_schonhage(1.1, -1, 1)
    with pytest.raises(ValueError):
        barrier_schonhage(1.1, 1, 0)
    with pytest.raises(ValueError):
        barrier_schonhage(0.9, 1, 1)
    # Irreversibility is finite: inf and nan are refused at any alpha.
    for irr in (math.inf, math.nan):
        for alpha in (0, 1, 3):
            with pytest.raises(ValueError):
                barrier_schonhage(irr, alpha, 2)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=1.0, max_value=10.0),
    st.integers(min_value=0, max_value=50),
    st.integers(min_value=1, max_value=50),
)
def test_schonhage_dominates_intermediate(irr, alpha, beta):
    assert barrier_schonhage(irr, alpha, beta) >= barrier_intermediate(irr) - 1e-12


def test_barrier_rect_symmetric_reuse():
    # W is cyclically symmetric, so the cyc detour changes nothing
    assert barrier_rect(w(), 0, 2, 2, 2) == pytest.approx(2 * IRR_W, abs=1e-9)
    # irreversibility 1 kills the alpha term entirely
    for alpha in (0, 3):
        assert barrier_rect(cw(2), alpha, 2, 2, 2) == pytest.approx(2.0, abs=1e-8)


def test_barrier_rect_asymmetric_goes_through_cyc():
    # tn(2) is not cyclically symmetric; cyc(tn(2)) has flattening ranks 8
    # and entropy maximum 3 h(1/3), matching W's irreversibility bound.
    got = barrier_rect(tn(2), 0, 2, 2, 2)
    assert got == pytest.approx(2 * IRR_W, abs=1e-6)
    with pytest.raises(ValueError):
        barrier_rect(w(), 0, 1, 1, 1)
    with pytest.raises(ValueError):
        barrier_rect(w(), -1, 2, 2, 2)


def _rect_via_cyc(t, alpha, a, b, c, theta=None):
    """The rectangular barrier at theta by building cyc(t) and bounding it
    directly, without barrier_rect."""
    irr = irr_lower(cyc(t), theta).irr_lb
    return 2.0 * irr + (alpha / (math.log2(a * b * c) / 3.0)) * (irr - 1.0)


# barrier_rect bounds cyc(t) at uniform theta, which no other theta beats
# (test_barrier_rect_uniform_theta_is_best).
@pytest.mark.parametrize("theta", [Theta.uniform()], ids=["uniform"])
@pytest.mark.parametrize("name", ["tn2", "tn3", "matmul122"])
def test_barrier_rect_matches_cyc_route(name, theta):
    t = {"tn2": tn(2), "tn3": tn(3), "matmul122": matmul(1, 2, 2)}[name]
    got = barrier_rect(t, 2, 2, 2, 2)
    assert got == pytest.approx(_rect_via_cyc(t, 2, 2, 2, 2, theta), abs=1e-9)


# Supports of 3 to 5 points in a 3x3x3 box.
SMALL_SUPPORTS = st.sets(st.tuples(*[st.integers(0, 2)] * 3), min_size=3, max_size=5)


def _small_support(points):
    try:
        return Tensor((3, 3, 3), {p: 1 for p in points})
    except ValueError:
        assume(False)  # simple tensors are rejected at construction


@settings(max_examples=30, deadline=None)
@given(SMALL_SUPPORTS)
def test_barrier_rect_matches_cyc_route_random(points):
    t = _small_support(points)
    assume({(p[1], p[2], p[0]) for p in points} != points)
    got = barrier_rect(t, 1, 1, 2, 4)
    assert got == pytest.approx(_rect_via_cyc(t, 1, 1, 2, 4), abs=1e-9)


@st.composite
def _simplex_theta(draw):
    """A theta from the simplex, with zero components drawn often."""
    weights = [draw(st.sampled_from([0, 0, 1, 2, 3, 5, 8])) for _ in range(3)]
    assume(sum(weights) > 0)
    return Theta(*(x / sum(weights) for x in weights))


@settings(max_examples=30, deadline=None)
@given(SMALL_SUPPORTS, _simplex_theta())
def test_barrier_rect_uniform_theta_is_best(points, theta):
    # rho_theta(cyc t) is convex and rotation-invariant in theta, so it is
    # least at uniform theta, the one barrier_rect uses: no theta gives a
    # larger barrier.  It weighs every leg of t, so no theta makes it zero.
    t = _small_support(points)
    assert _rect_via_cyc(t, 1, 1, 2, 4, theta) <= barrier_rect(t, 1, 1, 2, 4) + 1e-9


def test_laser_barrier_values():
    assert cw_laser_barrier(2, "flattening") == pytest.approx(2.0, abs=1e-12)
    assert cw_laser_barrier(7, "flattening") == pytest.approx(2.2245539, abs=1e-6)
    assert cw_laser_barrier(2, "conjectured") == pytest.approx(3.2451124, abs=1e-6)
    with pytest.raises(ValueError):
        cw_laser_barrier(1, "flattening")
    with pytest.raises(ValueError):
        cw_laser_barrier(3, "guessing")


def test_better_barrier():
    assert cw_better_barrier(6) == pytest.approx(18 / (5 * math.log2(3.0)), abs=1e-12)
    assert cw_better_barrier(2) == pytest.approx(4 / math.log2(3.0), abs=1e-12)
    rows = better_table(2, 50)
    q_best, v_best = min(rows, key=lambda r: r[1])
    assert q_best == 6
    assert v_best == pytest.approx(2.271347112857247, abs=1e-12)
    with pytest.raises(ValueError):
        cw_better_barrier(1)


def test_cw_table_frozen_values():
    rows = cw_table(2, 7)
    expect = [2.0, 2.0253805, 2.0624435, 2.0962707, 2.1254923, 2.1506409]
    assert [q for q, _ in rows] == list(range(2, 8))
    for (_, got), want in zip(rows, expect):
        assert got == pytest.approx(want, abs=1e-6)
    values = [v for _, v in rows]
    assert all(a < b for a, b in zip(values, values[1:]))  # strictly increasing


def test_cw_big_table_frozen_values():
    rows = cw_big_table(1, 6)
    expect = [2.1680525, 2.1779474, 2.1914630, 2.2055046, 2.2191282, 2.2320061]
    for (_, got), want in zip(rows, expect):
        assert got == pytest.approx(want, abs=1e-5)
    values = [v for _, v in rows]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_cw_big_table_cross_checks_optimizer():
    rows = cw_big_table(1, 3)
    for q, v in rows:
        peak = 2 * math.log2(q + 2) / v
        # the optimizer on the actual support agrees with the closed form
        assert rho_upper(cw_big(q), tol=1e-9).value == pytest.approx(peak, abs=1e-6)


def test_tn_table_frozen_values():
    rows = tn_table(2, 7)
    expect = [
        (2, 1, 2.177947373636157),
        (3, 2, 2.1680525330530567),
        (4, 3, 2.159493735197743),
        (5, 4, 2.152370795345807),
        (6, 5, 2.146408788386804),
        (7, 6, 2.1413506983264314),
    ]
    for (m, n, got), (em, en, want) in zip(rows, expect):
        assert (m, n) == (em, en)
        assert got == pytest.approx(want, abs=1e-6)
    values = [v for _, _, v in rows]
    assert all(b < a for a, b in zip(values, values[1:]))  # strictly decreasing


def test_laser_tables():
    flat = laser_table(2, 7, "flattening")
    expect_flat = [2.0, 2.0474379, 2.1054476, 2.1533829, 2.1923634, 2.2245539]
    for (_, got), want in zip(flat, expect_flat):
        assert got == pytest.approx(want, abs=1e-6)
    conj = laser_table(2, 11, "conjectured")
    expect_conj = [3.2451124, 2.6567799, 2.5, 2.4407196, 2.4159389,
                   2.4061387, 2.4036319, 2.4049172, 2.4082398, 2.4126602]
    for (_, got), want in zip(conj, expect_conj):
        assert got == pytest.approx(want, abs=1e-6)


def test_laser_table_default_range_follows_rank_mode():
    assert laser_table() == laser_table(2, 7, "flattening")
    assert laser_table(rank_mode="conjectured") == laser_table(2, 11, "conjectured")


def test_closed_forms_pinned_bit_for_bit():
    # Recorded from the published tables' code; a refactor of the formulas
    # must reproduce every double exactly.  Every table is a closed form, so
    # none of these doubles depends on an optimizer's path.
    assert cw_table() == [
        (2, 2.0), (3, 2.0253805487847796), (4, 2.0624427223787434), (5, 2.096271427975897),
        (6, 2.125492498993707), (7, 2.1506410948196013),
    ]
    assert cw_big_table() == [
        (1, 2.168052533053057), (2, 2.177947373636157), (3, 2.1914627837527907),
        (4, 2.205505349395), (5, 2.219128384995452), (6, 2.2320064180707027),
    ]
    assert tn_table() == [
        (2, 1, 2.177947373636157), (3, 2, 2.168052533053057), (4, 3, 2.159493735197743),
        (5, 4, 2.1523707953458073), (6, 5, 2.1464087883868035), (7, 6, 2.141350698326431),
    ]
    assert laser_table() == [
        (2, 2.0), (3, 2.04743802857166), (4, 2.1054483912493094), (5, 2.1533827903669653),
        (6, 2.192363433677784), (7, 2.224553956027506),
    ]
    assert laser_table(rank_mode="conjectured") == [
        (2, 3.245112497836532), (3, 2.6567800692966967), (4, 2.5000000000000004),
        (5, 2.4407203980553334), (6, 2.415939301283583), (7, 2.4061394763767834),
        (8, 2.403632260832872), (9, 2.4049172615376646), (10, 2.4082399653118496),
        (11, 2.412659815934603),
    ]
    assert better_table() == [
        (2, 2.52371901428583), (3, 2.351393999530882), (4, 2.2960819109658654),
        (5, 2.2766202254984584), (6, 2.271347112857247), (7, 2.2724569918659734),
        (8, 2.2766218942732013), (9, 2.282263748712121), (10, 2.2885798048495594),
        (11, 2.2951426914826913), (12, 2.3017190021520437),
    ]
    assert cw_laser_barrier(8) == 2.251629167387823
    assert cw_laser_barrier(9) == 2.274784665005535
    assert cw_laser_barrier(12, "conjectured") == 2.4176479565032665
    assert cw_better_barrier(13) == 2.3081805358206484
    assert barrier_schonhage(1.5, 1, 2) == 3.25
    assert barrier_schonhage(1.2, 3, 1) == 3.0
    assert barrier_schonhage(2.0, 2, 5) == 4.4


def test_tables_call_no_optimizer(monkeypatch):
    tables = (cw_table, cw_big_table, tn_table, laser_table, better_table)
    want = [table() for table in tables]

    def refuse(*args, **kwargs):
        raise AssertionError("a table called the entropy optimizer")

    monkeypatch.setattr(barriers, "rho_upper", refuse)
    monkeypatch.setattr(entropy, "rho_upper_on_support", refuse)
    assert [table() for table in tables] == want


def test_table_range_validation():
    with pytest.raises(ValueError):
        cw_table(1, 7)
    with pytest.raises(ValueError):
        cw_big_table(0, 3)
    with pytest.raises(ValueError):
        tn_table(1, 4)
    with pytest.raises(ValueError):
        laser_table(1, 5)
    with pytest.raises(ValueError):
        better_table(1, 5)
    for table, lo in ((cw_table, 2), (cw_big_table, 1), (tn_table, 2), (laser_table, 2),
                      (better_table, 2)):
        assert len(table(lo + 1, lo + 1)) == 1
        with pytest.raises(ValueError, match=rf"{lo + 2}\.\.{lo + 1} is empty"):
            table(lo + 2, lo + 1)


def test_min_rho_over_theta():
    res = min_rho_over_theta(w(), tol=1e-9).rho
    assert res.value <= H13 + 1e-9
    # the search can never lose to the uniform default
    t = Tensor((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1})
    res2 = min_rho_over_theta(t, tol=1e-9).rho
    uniform = irr_lower(t).rho.value
    assert res2.value <= uniform + 1e-9


def test_search_theta_tightens_report():
    rep_u = irr_lower(cw_big(1))
    rep_s = irr_lower(cw_big(1), search_theta=True)
    assert rep_s.irr_lb >= rep_u.irr_lb - 1e-9


def test_report_json_fields():
    rep = irr_lower(cw(2))
    doc = rep.to_json_dict()
    assert set(doc) == {
        "tensor_id",
        "flattening_ranks",
        "rho",
        "theta_used",
        "irr_lb",
        "barrier_basic",
        "barrier_laser",
        "notes",
    }
    assert set(doc["rho"]) == {"value", "argmax", "residual", "iterations", "steps"}
    assert doc["flattening_ranks"] == [3, 3, 3]
    probs = doc["rho"]["argmax"]["probabilities"]
    assert len(probs) == 6
    assert set(probs[0]) == {"point", "prob"}


# Two supports on which a 6-grid plus three halving rounds stopped above the
# minimum over theta, by 4.2e-4 and 5.9e-5.
THETA_REGRESSIONS = [
    (
        [(0, 1, 3), (2, 0, 3), (2, 1, 0), (2, 1, 1), (3, 0, 1), (3, 2, 1), (3, 2, 3), (3, 3, 3)],
        1.576511271,
    ),
    (
        [(0, 3, 1), (1, 0, 1), (1, 1, 1), (1, 3, 2), (2, 1, 0), (2, 2, 0), (2, 3, 1), (3, 3, 3)],
        1.884936786,
    ),
]


@pytest.mark.parametrize("points,minimum", THETA_REGRESSIONS)
def test_min_rho_over_theta_finds_minimum(points, minimum):
    tol = 1e-10
    t = Tensor((4, 4, 4), {p: 1 for p in points})
    search = min_rho_over_theta(t, tol=tol)
    theta, res = search.theta, search.rho
    assert res.value == pytest.approx(minimum, abs=1e-8)
    # Independently of the search: no theta of a 12-step grid, and no
    # neighbour of theta at step 1e-3, has a smaller entropy maximum.
    n = 12
    probes = [Theta(i / n, j / n, (n - i - j) / n) for i in range(n + 1) for j in range(n + 1 - i)]
    star = theta.as_tuple()
    for up in range(3):
        for down in range(3):
            if up != down:
                nb = list(star)
                nb[up] += 1e-3
                nb[down] -= 1e-3
                probes.append(Theta(*nb))
    for probe in probes:
        assert res.value <= rho_upper(t, probe, tol=tol).value + 2 * tol


# Two supports whose minimum over theta sits at a weight of 0, so a step of
# 1e-3 away from it leaves the simplex.  With solves barred at weights in
# (0, 1e-3) the search stopped with gaps of 8.1e-5 and 5.9e-7; without the
# bar, one solve on each stalls near a zero weight and gives only its cut.
THETA_ZERO_WEIGHT_MINIMA = [
    ([(0, 1, 3), (0, 2, 3), (1, 2, 2), (1, 3, 3), (3, 0, 1)], math.log2(3.0)),
    ([(0, 2, 0), (0, 3, 0), (1, 1, 1), (1, 2, 2), (1, 3, 0), (3, 1, 0)], 1.5),
]


@pytest.mark.parametrize("points,minimum", THETA_ZERO_WEIGHT_MINIMA)
def test_min_rho_over_theta_closes_gap_at_zero_weight(points, minimum):
    search = min_rho_over_theta(Tensor((4, 4, 4), {p: 1 for p in points}), tol=1e-10)
    assert search.gap <= 1e-10
    assert search.rho.value == pytest.approx(minimum, abs=1e-10)


def test_min_rho_over_theta_keeps_the_cut_of_a_stalled_solve(monkeypatch):
    t = Tensor((2, 3, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 0): 1})
    plain = min_rho_over_theta(t)
    monkeypatch.setattr(barriers, "rho_upper", stalling_rho_upper(2))
    search = min_rho_over_theta(t)
    assert (plain.stalled, search.stalled) == (0, 1)
    assert search.gap <= 1e-10
    assert search.rho.residual <= 1e-10
    assert search.rho.value == pytest.approx(plain.rho.value, abs=1e-10)
    assert search.rho.value == rho_upper(t, search.theta).value


def test_min_rho_over_theta_stops_on_a_repeated_theta_with_the_gap_open(monkeypatch):
    # The second solve stalls at the cut model's minimiser (1, 0, 0); its
    # value never becomes the upper bound, and its cut leads the model back
    # to (1, 0, 0), so the search stops there and reports the open gap.
    t = matmul(1, 2, 2)
    plain = min_rho_over_theta(t)
    assert plain.theta.as_tuple() == (1.0, 0.0, 0.0)
    assert (plain.solves, plain.rho.value, plain.gap) == (2, 1.0, 0.0)
    monkeypatch.setattr(barriers, "rho_upper", stalling_rho_upper(2))
    search = min_rho_over_theta(t)
    assert (search.solves, search.stalled) == (2, 1)
    assert search.theta.is_uniform()
    assert search.rho.value == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert search.gap == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_tensor_content_id_pinned():
    from irrev.barriers import tensor_content_id

    rational = Tensor((2, 3, 2), {(0, 0, 0): Fraction(-3, 7), (1, 2, 1): Fraction(1234, 5),
                                  (0, 2, 1): Fraction(-100, 33), (1, 0, 0): 7})
    assert tensor_content_id(w()) == "594e9e022d61"
    assert tensor_content_id(cw(2)) == "b4e5bd0b8cf7"
    assert tensor_content_id(rational) == "d2b570d10f12"
