import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrev import (
    ExactMatrix,
    cw,
    cw_big,
    dsum,
    flatten,
    flattening_ranks,
    kron,
    matmul,
    max_flattening_rank,
    rank_exact,
    tn,
    unit,
    w,
    z3,
)
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
    assert max_flattening_rank(cw(q)) == q + 1
    assert max_flattening_rank(cw_big(q)) == q + 2


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
