"""Acceptance suite: one test per published-number criterion.

Each test prints a `[acceptance] criterion N: PASS` line (visible with -s, or
on failure).  Reference values quoted from the family tables are printed as
two-decimal truncations, so table comparisons accept the truncation window
[printed - 5e-3, printed + 0.01 + 5e-3]; full-precision closed forms are
pinned at tight absolute tolerances.
"""

import math
import random
import time
from itertools import combinations, product

import irrev
from irrev import (
    Tensor,
    cw,
    cw_big,
    cw_big_entropy_argmax,
    cw_big_marginal_entropy,
    cw_big_table,
    cw_table,
    flattening_ranks,
    irr_lower,
    is_free_diagonal,
    kron,
    laser_table,
    matmul,
    max_free_diagonal,
    monomial_subrank_power,
    rank_exact,
    rho_grid_oracle,
    rho_upper,
    tn_table,
    unit,
    w,
    z3,
)
from irrev.linalg import flatten

H13 = math.log2(3.0) - 2.0 / 3.0


def report(n):
    print(f"[acceptance] criterion {n}: PASS")


def assert_truncated(computed, printed, slack=5e-3):
    """Printed table values are two-decimal truncations."""
    assert printed - slack <= computed <= printed + 0.01 + slack, (computed, printed)


def test_criterion_01_cw_table():
    t0 = time.perf_counter()
    rows = cw_table(2, 7)
    elapsed = time.perf_counter() - t0
    printed = [2.0, 2.02, 2.06, 2.09, 2.12, 2.15]
    for (_, got), want in zip(rows, printed):
        assert_truncated(got, want)
    assert elapsed < 1.0, elapsed
    report(1)


def test_criterion_02_cw_big_table_and_optimizer_agreement():
    t0 = time.perf_counter()
    rows = cw_big_table(1, 6, tol=1e-9, cross_check_tol=1e-6)
    printed = [2.16, 2.17, 2.19, 2.20, 2.21, 2.23]
    for (_, got), want in zip(rows, printed):
        assert_truncated(got, want)
    for q in range(1, 11):
        peak = cw_big_marginal_entropy(q, cw_big_entropy_argmax(q))
        opt = rho_upper(cw_big(q), tol=1e-9)
        assert abs(opt.value - peak) <= 1e-6, (q, opt.value, peak)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, elapsed
    report(2)


def test_criterion_03_better_barrier_minimum():
    t0 = time.perf_counter()
    rows = irrev.better_table(2, 50)
    q_best, v_best = min(rows, key=lambda r: r[1])
    assert q_best == 6
    assert abs(v_best - 18.0 / (5.0 * math.log2(3.0))) <= 1e-12
    assert abs(v_best - 2.27125) <= 1e-4
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    report(3)


def test_criterion_04_laser_tables():
    t0 = time.perf_counter()
    flat = laser_table(2, 7, "flattening")
    printed_flat = [2.0, 2.04, 2.10, 2.15, 2.19, 2.22]
    for (_, got), want in zip(flat, printed_flat):
        assert_truncated(got, want)
    conj = laser_table(2, 11, "conjectured")
    printed_conj = [3.24, 2.65, 2.50, 2.44, 2.41, 2.40, 2.40, 2.40, 2.40, 2.41]
    for (_, got), want in zip(conj, printed_conj):
        assert_truncated(got, want)
    q_best, v_best = min(conj, key=lambda r: r[1])
    assert q_best in {7, 8, 9, 10}
    assert_truncated(v_best, 2.40)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, elapsed
    report(4)


def test_criterion_05_w_tensor():
    assert flattening_ranks(w()) == (2, 2, 2)
    res = rho_upper(w(), tol=1e-10)
    assert abs(res.value - H13) <= 1e-9
    assert f"{res.value:.6f}" == "0.918296"
    rep = irr_lower(w(), tol=1e-10)
    assert abs(rep.irr_lb - 1.0 / H13) <= 1e-6
    assert round(rep.irr_lb, 5) == 1.08897
    report(5)


def test_criterion_06_tn_table():
    rows = tn_table(2, 7, tol=1e-10)
    m2 = rows[0][2]
    assert abs(m2 - 2.0 / H13) <= 1e-6
    assert math.floor(m2 * 1e5) / 1e5 == 2.17794
    tail = [v for _, _, v in rows[1:]]
    assert all(b < a for a, b in zip(tail, tail[1:]))
    assert all(2.0 < v < 2.18 for v in tail)
    report(6)


def test_criterion_07_flattening_ranks():
    for q in range(1, 11):
        assert flattening_ranks(cw(q)) == (q + 1, q + 1, q + 1)
        assert flattening_ranks(cw_big(q)) == (q + 2, q + 2, q + 2)
    for a, b, c in product(range(1, 5), repeat=3):
        if a * b * c < 2:
            continue
        assert flattening_ranks(matmul(a, b, c)) == (a * b, b * c, c * a)
    assert flattening_ranks(z3()) == (3, 3, 3)
    report(7)


def test_criterion_08_oracle_equivalence():
    named = [
        (w(), 3000),
        (unit(2), 1000),
        (unit(3), 999),
        (cw(2), 60),
    ]
    for t, resolution in named:
        got = rho_grid_oracle(t, resolution=resolution)
        opt = rho_upper(t, tol=1e-10)
        assert abs(got - opt.value) <= 1e-3, (t, got, opt.value)
    for q in range(1, 5):
        t = cw_big(q)
        got = rho_grid_oracle(t, resolution=4000)
        opt = rho_upper(t, tol=1e-10)
        assert abs(got - opt.value) <= 1e-3, (q, got, opt.value)

    rng = random.Random(0xACCE55)
    res_for_size = {2: 2000, 3: 1200, 4: 300, 5: 150}
    checked = 0
    while checked < 50:
        dims = tuple(rng.randint(2, 4) for _ in range(3))
        size = rng.randint(2, 5)
        cells = list(product(*(range(d) for d in dims)))
        pts = rng.sample(cells, size)
        try:
            t = Tensor(dims, {p: 1 for p in pts})
        except ValueError:
            continue
        got = rho_grid_oracle(t, resolution=res_for_size[len(t.entries)])
        opt = rho_upper(t, tol=1e-10)
        assert abs(got - opt.value) <= 1e-3, (sorted(t.entries), got, opt.value)
        checked += 1
    report(8)


def test_criterion_09_combinatorial_search():
    t0 = time.perf_counter()
    for n in range(2, 7):
        res = max_free_diagonal(unit(n).support())
        assert (res.size, res.exact) == (n, True)
    res = max_free_diagonal(w().support())
    assert (res.size, res.exact) == (1, True)
    bound = rho_upper(w(), tol=1e-10).value
    for k in (2, 3):
        power = monomial_subrank_power(w(), k)
        assert power.exact
        assert power.per_copy_rate <= H13 + 1e-9
        assert power.per_copy_rate <= bound + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, elapsed
    report(9)


def test_criterion_09_matmul222_stated_value():
    """Stated reference: 3 is extracted from supp(<2,2,2>); the free-diagonal
    maximum is 2.

    The two numbers belong to different notions of extraction.  A free
    diagonal certifies a monomial restriction, and for the 8-point support of
    <2,2,2> the largest one has size 2: every size-3 diagonal traps a foreign
    support point in its projected box (e.g. {(0,1,2),(1,2,0),(2,0,1)} traps
    (0,0,0)).  Free diagonals are closed under taking subsets, so none is
    larger either.  The stated 3 is reached by a combinatorial degeneration
    (Strassen 1991): integer potentials u0, u1, u2 whose sum is 0 on a
    3-point diagonal D and positive on the rest of the support, so that
    <3> degenerates from <2,2,2>: the border subrank of <2,2,2> is at least
    3.  Both numbers lie below 2**rho(<2,2,2>) = 4.

    The size-3 and degeneration checks use plain set and integer arithmetic,
    independent of the package's freeness predicate and search.
    """
    t = matmul(2, 2, 2)
    support = set(t.entries)
    assert len(support) == 8

    # Monomial maximum, from the exact search.
    sup = t.support()
    res = max_free_diagonal(sup)
    assert (res.size, res.exact) == (2, True)
    assert is_free_diagonal(sup, res.witness)

    # No size-3 free diagonal: each one's box holds a foreign support point.
    diagonals = [
        d
        for d in combinations(sorted(support), 3)
        if all(len({p[a] for p in d}) == 3 for a in range(3))
    ]
    assert len(diagonals) == 8
    for d in diagonals:
        box = set(product(*({p[a] for p in d} for a in range(3))))
        assert (box & support) - set(d), d

    # The stated 3: a combinatorial degeneration onto a 3-point diagonal.
    stated = 3
    diag = {(0, 0, 0), (1, 3, 2), (2, 1, 3)}
    u = ((-2, -2, -2, 0), (1, 1, 2, 0), (1, 2, 2, 1))
    assert len(diag) == stated and diag <= support
    assert all(len({p[a] for p in diag}) == stated for a in range(3))
    for p in support:
        weight = sum(u[a][p[a]] for a in range(3))
        if p in diag:
            assert weight == 0, p
        else:
            assert weight > 0, p

    # Sandwich: monomial maximum < degeneration value <= 2**rho.
    assert res.size < stated <= 2 ** rho_upper(t, tol=1e-10).value
    report("9 (matmul 2,2,2 stated value)")


def test_criterion_10_property_suite():
    # concavity spot check on 1000 random distribution pairs
    rng = random.Random(1000)
    pts = sorted(cw_big(2).entries)

    def objective(probs):
        total = 0.0
        for axis in range(3):
            agg = {}
            for p, pr in zip(pts, probs):
                agg[p[axis]] = agg.get(p[axis], 0.0) + pr
            total += sum(-v * math.log2(v) for v in agg.values() if v > 0) / 3.0
        return total

    for _ in range(1000):
        a = [rng.random() for _ in pts]
        b = [rng.random() for _ in pts]
        sa, sb = sum(a), sum(b)
        a = [v / sa for v in a]
        b = [v / sb for v in b]
        mid = [(x + y) / 2 for x, y in zip(a, b)]
        assert objective(mid) >= (objective(a) + objective(b)) / 2 - 1e-12

    # optimizer terminates with its certificate below tol on every family tensor
    tol = 1e-9
    family = [unit(2), unit(3), matmul(2, 2, 2), w(), z3(), cw(2), cw(5),
              cw_big(1), cw_big(4), irrev.tn(3), irrev.tn(6)]
    for t in family:
        res = rho_upper(t, tol=tol)
        assert res.residual <= tol, (t, res.residual)

    # kron multiplicativity of support sizes and flattening ranks
    rng = random.Random(20)
    pairs = 0
    while pairs < 20:
        dims = lambda: tuple(rng.randint(2, 3) for _ in range(3))
        def sample():
            d = dims()
            cells = list(product(*(range(x) for x in d)))
            pts = rng.sample(cells, rng.randint(2, 5))
            return Tensor(d, {p: 1 for p in pts})
        try:
            s, t = sample(), sample()
        except ValueError:
            continue
        prod_t = kron(s, t)
        assert len(prod_t.entries) == len(s.entries) * len(t.entries)
        for axis in (1, 2, 3):
            assert rank_exact(flatten(prod_t, axis)) == rank_exact(
                flatten(s, axis)
            ) * rank_exact(flatten(t, axis))
        pairs += 1
    report(10)
