import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irrev import (
    Tensor,
    cw,
    cw_big,
    dsum,
    flattening_ranks,
    kron,
    matmul,
    rank_exact,
    tn,
    unit,
    w,
    z3,
)
from irrev import linalg
from irrev.linalg import ExactMatrix, flatten
from conftest import rank_mod_p, random_rational_tensor


def test_flatten_shapes_and_layout():
    t = matmul(1, 2, 3)  # dims (2, 6, 3)
    m1 = flatten(t, 1)
    assert (m1.rows, m1.cols) == (2, 18)
    m2 = flatten(t, 2)
    assert (m2.rows, m2.cols) == (6, 6)
    m3 = flatten(t, 3)
    assert (m3.rows, m3.cols) == (3, 12)
    # cyclic column pairing: axis 2 pairs (k, i) as k*n1 + i
    t = w()
    assert flatten(t, 2).entries[(0, 2)] == 1  # point (0,0,1): row j=0, col k*2+i=2
    assert flatten(t, 1).entries[(0, 1)] == 1  # point (0,0,1): row 0, col j*2+k=1
    with pytest.raises(ValueError):
        flatten(t, 0)


def test_rank_exact_basics():
    assert rank_exact(ExactMatrix(3, 5, {})) == 0
    ident = ExactMatrix(4, 4, {(i, i): 1 for i in range(4)})
    assert rank_exact(ident) == 4
    # rank-1 rational matrix
    m = ExactMatrix(3, 3, {(i, j): Fraction(2**i, 3**j) for i in range(3) for j in range(3)})
    assert rank_exact(m) == 1
    # 2x2 with a cancellation
    m = ExactMatrix(2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
    assert rank_exact(m) == 1
    m = ExactMatrix(2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 5})
    assert rank_exact(m) == 2


def test_rank_matches_prime_field_oracle():
    rng = random.Random(2024)
    for _ in range(100):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        entries = {}
        for _ in range(rng.randint(1, rows * cols)):
            v = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            if v:
                entries[(rng.randrange(rows), rng.randrange(cols))] = v
        m = ExactMatrix(rows, cols, entries)
        assert rank_exact(m) == rank_mod_p(m)


def test_unit_flattening_rank():
    for n in (2, 3, 5):
        assert rank_exact(flatten(unit(n), 1)) == n


@pytest.mark.parametrize("q", range(1, 11))
def test_cw_flattening_ranks(q):
    assert flattening_ranks(cw(q)) == (q + 1, q + 1, q + 1)
    assert flattening_ranks(cw_big(q)) == (q + 2, q + 2, q + 2)
    assert max(flattening_ranks(cw(q))) == q + 1
    assert max(flattening_ranks(cw_big(q))) == q + 2


def test_matmul_flattening_ranks():
    for a, b, c in [(2, 2, 2), (3, 2, 4), (1, 4, 2), (4, 4, 4), (2, 1, 3)]:
        assert flattening_ranks(matmul(a, b, c)) == (a * b, b * c, c * a)


def test_named_tensor_ranks():
    assert flattening_ranks(w()) == (2, 2, 2)
    assert flattening_ranks(z3()) == (3, 3, 3)
    for m in range(2, 7):
        assert flattening_ranks(tn(m)) == (m, m, m)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_flattening_rank_multiplicative_under_kron(seed):
    r = random.Random(seed)
    s, t = random_rational_tensor(r, max_size=5), random_rational_tensor(r, max_size=5)
    prod = kron(s, t)
    for axis in (1, 2, 3):
        assert rank_exact(flatten(prod, axis)) == rank_exact(flatten(s, axis)) * rank_exact(
            flatten(t, axis)
        )


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**9))
def test_flattening_rank_additive_under_dsum(seed):
    r = random.Random(seed)
    s, t = random_rational_tensor(r, max_size=5), random_rational_tensor(r, max_size=5)
    total = dsum(s, t)
    for axis in (1, 2, 3):
        assert rank_exact(flatten(total, axis)) == rank_exact(flatten(s, axis)) + rank_exact(
            flatten(t, axis)
        )


def test_exact_matrix_validation():
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, {(0, 0): 0})
    with pytest.raises(ValueError):
        ExactMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        ExactMatrix(0, 2, {})


def _sum_of_two_simple(r):
    """u1 (x) v1 (x) w1 + u2 (x) v2 (x) w2 on a random box: every flattening
    has rank at most 2, below min(rows, cols) whenever both exceed 2."""
    while True:
        dims = tuple(r.randint(2, 5) for _ in range(3))
        vecs = [[[Fraction(r.randint(-3, 3), r.randint(1, 3)) for _ in range(n)] for n in dims]
                for _ in range(2)]
        entries = {}
        for i, j, k in product(*(range(n) for n in dims)):
            v = sum(u[i] * v_[j] * w_[k] for u, v_, w_ in vecs)
            if v:
                entries[(i, j, k)] = v
        try:
            return Tensor(dims, entries)
        except ValueError:
            continue


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9), st.booleans())
def test_flattening_ranks_match_rank_exact(seed, two_simple):
    r = random.Random(seed)
    t = _sum_of_two_simple(r) if two_simple else random_rational_tensor(r, max_dim=5, max_size=40)
    assert flattening_ranks(t) == tuple(rank_exact(flatten(t, a)) for a in (1, 2, 3))


# On axes of length 2**40 a column key j * 2**40 + k needs 81 bits; in int64,
# j = 2**24 would wrap onto j = 0 and merge their columns.
_BIG = 2**40
_BIG_COORD = st.sampled_from((0, 2**24, _BIG - 1))
_HUGE_VALUE = st.builds(Fraction, st.integers(-10**30, 10**30).filter(bool),
                        st.sampled_from((1, 3, 10**20 + 39)))


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(_BIG_COORD, _BIG_COORD, _BIG_COORD), _HUGE_VALUE,
                       min_size=2, max_size=10), st.booleans())
@example({(0, 0, 0): Fraction(1), (0, 2**24, 0): Fraction(1), (_BIG - 1, 2**24, 0): Fraction(1)},
         False)
def test_flattening_ranks_match_rank_exact_on_huge_coordinates_and_values(entries, p_divides):
    if p_divides:
        entries[next(iter(entries))] = Fraction(-5, 2 * linalg.P)
    try:
        t = Tensor((_BIG, _BIG, _BIG), entries)
    except ValueError:  # simple
        assume(False)
    assert flattening_ranks(t) == tuple(rank_exact(flatten(t, a)) for a in (1, 2, 3))


@pytest.fixture
def exact_calls(monkeypatch):
    calls = []

    def counting(matrix):
        calls.append((matrix.rows, matrix.cols))
        return rank_exact(matrix)

    monkeypatch.setattr(linalg, "rank_exact", counting)
    return calls


@pytest.mark.parametrize("corner,ranks", [(1, (1, 2, 2)), (1 + linalg.P, (2, 2, 2))])
def test_short_rank_mod_p_reaches_exact_fallback(exact_calls, corner, ranks):
    # Axis 1 flattens to [[1, 1], [1, corner]] on two columns, each holding
    # two entries.  Its rank mod P is 1 < min(2, 2) for both corners, while
    # the rank over Q is 1 for corner 1 and 2 for corner 1 + P (determinant P).
    t = Tensor((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 0): 1, (1, 1, 1): corner})
    assert flattening_ranks(t) == ranks
    assert exact_calls == [(2, 4)]


def test_denominator_divisible_by_p_reaches_exact_fallback(exact_calls):
    entries = {p: Fraction(1 + sum(p) * (sum(p) + 1)) for p in product(range(2), repeat=3)}
    entries[(1, 0, 1)] = Fraction(1, linalg.P)
    t = Tensor((2, 2, 2), entries)
    assert flattening_ranks(t) == (2, 2, 2)
    assert len(exact_calls) == 3


@pytest.mark.parametrize("dims", [(3, 4, 5), (5, 2, 2), (2, 9, 3)])
def test_dense_full_rank_needs_no_exact_fallback(exact_calls, dims):
    r = random.Random(7)
    t = Tensor(dims, {p: Fraction(r.randint(1, 50), r.randint(1, 50))
                      for p in product(*(range(n) for n in dims))})
    n1, n2, n3 = dims
    assert flattening_ranks(t) == (min(n1, n2 * n3), min(n2, n3 * n1), min(n3, n1 * n2))
    assert exact_calls == []


def test_sparse_flattening_needs_no_exact_fallback(exact_calls):
    # The diagonal (i, i, 0) plus (1, 0, 0) and (2, 1, 0): on axes 1 and 2 two
    # columns hold two entries each, and each flattening is triangular with a
    # nonzero diagonal, so its rank mod P is full.
    n = 300
    entries = {(i, i, 0): Fraction(i + 1, 7) for i in range(n)}
    entries[(1, 0, 0)] = entries[(2, 1, 0)] = Fraction(-3)
    assert flattening_ranks(Tensor((n, n, 1), entries)) == (n, n, 1)
    assert exact_calls == []


def test_free_families_need_no_exact_fallback(exact_calls, monkeypatch):
    # Free supports are counted: no residue matrix is built, mod P or exactly.
    mod_p_calls = []
    full_row_rank = linalg._full_row_rank_mod_p
    monkeypatch.setattr(linalg, "_full_row_rank_mod_p",
                        lambda a: mod_p_calls.append(a.shape) or full_row_rank(a))
    for t in (w(), tn(4), matmul(1, 2, 2), cw_big(3), kron(tn(3), z3())):
        flattening_ranks(t)
    assert flattening_ranks(kron(cw(2), matmul(2, 2, 2))) == (12, 12, 12)
    assert exact_calls == []
    assert mod_p_calls == []
