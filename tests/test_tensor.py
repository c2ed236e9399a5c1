import json
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrev import (
    ResourceLimitError,
    Support,
    Tensor,
    cw,
    cw_big,
    cyc,
    dsum,
    from_json,
    kron,
    matmul,
    permute_legs,
    tn,
    to_json,
    unit,
    w,
    z3,
)
from conftest import random_rational_tensor
from irrev.linalg import ExactMatrix, rank_exact
from irrev import tensor as tensor_module
from irrev.tensor import _is_simple


def test_unit_small():
    t = unit(2)
    assert t.dims == (2, 2, 2)
    assert set(t.entries) == {(0, 0, 0), (1, 1, 1)}
    assert all(c == 1 for c in t.entries.values())
    t3 = unit(3)
    assert t3.dims == (3, 3, 3)
    assert len(t3.entries) == 3


def test_unit_rejects_simple():
    with pytest.raises(ValueError):
        unit(1)
    with pytest.raises(ValueError):
        unit(0)


def test_matmul_counts_and_dims():
    t = matmul(2, 2, 2)
    assert t.dims == (4, 4, 4)
    assert len(t.entries) == 8
    assert (0, 0, 0) in t.entries
    # dims follow (ab, bc, ca) even when an axis collapses to 1
    t = matmul(1, 2, 1)
    assert t.dims == (2, 2, 1)
    assert len(t.entries) == 2
    with pytest.raises(ValueError):
        matmul(1, 1, 1)


def test_cw_family():
    t = cw(1)
    assert t.dims == (2, 2, 2)
    assert set(t.entries) == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert len(cw(2).entries) == 6
    assert cw(7).dims == (8, 8, 8)
    assert len(cw(7).entries) == 21
    with pytest.raises(ValueError):
        cw(0)


def test_cw_big_family():
    t = cw_big(0)
    assert t.dims == (2, 2, 2)
    assert set(t.entries) == set(w().entries)
    assert len(cw_big(1).entries) == 6
    assert cw_big(1).dims == (3, 3, 3)
    t6 = cw_big(6)
    assert len(t6.entries) == 21
    assert t6.dims == (8, 8, 8)


def test_tn_family():
    t = tn(2)
    assert set(t.entries) == {(0, 0, 0), (0, 1, 1), (1, 0, 1)}
    assert len(tn(3).entries) == 6
    with pytest.raises(ValueError):
        tn(1)


def test_z3_structure():
    t = z3()
    assert t.dims == (3, 3, 3)
    assert len(t.entries) == 9
    for (a, b, c) in t.entries:
        assert (a + b) % 3 == c


@pytest.mark.parametrize("param", range(1, 21))
def test_family_support_sizes(param):
    assert len(cw(param).entries) == 3 * param
    assert len(cw_big(param).entries) == 3 * param + 3
    if param >= 2:
        assert len(tn(param).entries) == param * (param + 1) // 2
        assert len(unit(param).entries) == param
    a, b, c = 1 + param % 3, 1 + (param // 3) % 3, 1 + (param // 9) % 3
    if a * b * c >= 2:
        assert len(matmul(a, b, c).entries) == a * b * c


def test_simple_tensor_rejection():
    # single entry
    with pytest.raises(ValueError):
        Tensor((2, 2, 2), {(0, 0, 0): 1})
    # full box with product coefficients u (x) v (x) w
    entries = {}
    u, v, wv = [1, 2], [3, 1], [1, 5]
    for i, j, k in product(range(2), repeat=3):
        entries[(i, j, k)] = u[i] * v[j] * wv[k]
    with pytest.raises(ValueError):
        Tensor((2, 2, 2), entries)
    # same support but broken proportionality is fine
    entries[(1, 1, 1)] += 1
    Tensor((2, 2, 2), entries)


def test_tensor_validation():
    with pytest.raises(ValueError):
        Tensor((2, 2, 2), {(0, 0, 2): 1, (1, 1, 1): 1})  # out of range
    with pytest.raises(ValueError):
        Tensor((2, 2, 2), [((0, 0, 0), 1), ((0, 0, 0), 2), ((1, 1, 1), 1)])  # dup
    with pytest.raises(ValueError):
        Tensor((2, 2, 2), {(0, 0, 0): 0, (1, 1, 1): 1})  # zero coefficient
    with pytest.raises(ValueError):
        Tensor((2, 2, 2), {})


def test_tensor_immutable():
    t = w()
    with pytest.raises(AttributeError):
        t.dims = (3, 3, 3)
    with pytest.raises(TypeError):
        t.entries[(0, 0, 1)] = Fraction(2)


def test_kron_diagonals():
    assert set(kron(unit(2), unit(2)).entries) == set(unit(4).entries)
    assert kron(unit(2), unit(2)).dims == (4, 4, 4)


def test_kron_counts():
    assert len(kron(w(), w()).entries) == 9
    s, t = matmul(2, 2, 2), cw(2)
    assert len(kron(s, t).entries) == len(s.entries) * len(t.entries)
    assert kron(s, t).dims == (12, 12, 12)


def test_kron_matches_matmul_composition():
    # <1,2,1> (x) <2,1,1> has the support of <2,2,1> after relabeling axis 1
    # by the pairing swap (j, i) -> (i, j), i.e. 1 <-> 2.
    got = set(kron(matmul(1, 2, 1), matmul(2, 1, 1)).entries)
    swap = {0: 0, 1: 2, 2: 1, 3: 3}
    relabeled = {(swap[i], j, k) for (i, j, k) in got}
    assert relabeled == set(matmul(2, 2, 1).entries)
    assert len(got) == 4


def test_kron_resource_limit():
    big = unit(1 << 12)
    with pytest.raises(ResourceLimitError):
        kron(kron(big, big), big)


def test_dsum():
    assert set(dsum(unit(2), unit(2)).entries) == set(unit(4).entries)
    t = dsum(w(), unit(2))
    assert t.dims == (4, 4, 4)
    assert len(t.entries) == 5
    t = dsum(unit(2), cw(2))
    assert t.dims == (5, 5, 5)
    assert len(t.entries) == 8


def test_kron_dsum_associative_exactly():
    a, b, c = w(), unit(2), cw(1)
    assert kron(kron(a, b), c) == kron(a, kron(b, c))
    assert dsum(dsum(a, b), c) == dsum(a, dsum(b, c))


def test_permute_legs():
    t = matmul(1, 2, 3)  # dims (2, 6, 3)
    p = permute_legs(t, (1, 2, 0))
    assert p.dims == (6, 3, 2)
    for (i, j, k), coeff in t.entries.items():
        assert p.entries[(j, k, i)] == coeff
    with pytest.raises(ValueError):
        permute_legs(t, (0, 0, 1))


def test_cyc_diagonal():
    assert set(cyc(unit(2)).entries) == set(unit(8).entries)


def test_cyc_counts():
    assert len(cyc(w()).entries) == 27
    t = matmul(1, 2, 1)  # dims (2, 2, 1), so every cyc leg has size 4
    assert len(cyc(t).entries) == 2**3
    assert cyc(t).dims == (4, 4, 4)


def _rotate_composite(idx, radix):
    # decompose idx in the given mixed radix, rotate parts right, recompose
    # in the rotated radix
    n1, n2, n3 = radix
    c = idx % n3
    rest = idx // n3
    b = rest % n2
    a = rest // n2
    return (c * n1 + a) * n2 + b


def test_cyc_invariant_under_leg_rotation():
    t = matmul(1, 2, 3)
    n1, n2, n3 = t.dims
    ct = cyc(t)
    rotated = permute_legs(ct, (1, 2, 0))
    # rotated axis a has radix equal to old axis a+1; rotating the parts
    # brings each composite index back to the cyc(t) layout
    radices = [(n2, n3, n1), (n3, n1, n2), (n1, n2, n3)]
    relabeled = {}
    for (x, y, zz), coeff in rotated.entries.items():
        key = (
            _rotate_composite(x, radices[0]),
            _rotate_composite(y, radices[1]),
            _rotate_composite(zz, radices[2]),
        )
        relabeled[key] = coeff
    assert relabeled == dict(ct.entries)


def test_json_round_trip_families():
    for t in [unit(2), matmul(2, 3, 4), cw(3), cw_big(2), tn(4), w(), z3()]:
        back = from_json(to_json(t))
        assert back == t


def test_json_format_shape():
    doc = json.loads(to_json(w()))
    assert set(doc) == {"dims", "entries"}
    assert doc["dims"] == [2, 2, 2]
    assert doc["entries"][0] == {"i": 0, "j": 0, "k": 1, "num": "1", "den": "1"}
    # sorted lexicographically
    keys = [(e["i"], e["j"], e["k"]) for e in doc["entries"]]
    assert keys == sorted(keys)


def test_json_rejects_bad_documents():
    with pytest.raises(ValueError):
        from_json("not json")
    with pytest.raises(ValueError):
        from_json('{"dims": [2, 2, 2]}')
    good = {"dims": [2, 2, 2], "entries": [
        {"i": 0, "j": 0, "k": 1, "num": "1", "den": "1"},
        {"i": 0, "j": 1, "k": 0, "num": "1", "den": "1"},
        {"i": 1, "j": 0, "k": 0, "num": "1", "den": "1"},
    ]}
    from_json(json.dumps(good))
    bad_den = json.loads(json.dumps(good))
    bad_den["entries"][0]["den"] = "-1"
    with pytest.raises(ValueError):
        from_json(json.dumps(bad_den))
    bad_zero = json.loads(json.dumps(good))
    bad_zero["entries"][0]["num"] = "0"
    with pytest.raises(ValueError):
        from_json(json.dumps(bad_zero))
    dup = json.loads(json.dumps(good))
    dup["entries"].append(dup["entries"][0])
    with pytest.raises(ValueError):
        from_json(json.dumps(dup))


def test_json_rejects_non_integer_fields():
    def doc(**changes):
        d = {"dims": [2, 2, 2], "entries": [
            {"i": 0, "j": 0, "k": 1, "num": "1", "den": "1"},
            {"i": 0, "j": 1, "k": 0, "num": "1", "den": "1"},
            {"i": 1, "j": 0, "k": 0, "num": "1", "den": "1"},
        ]}
        if "dims" in changes:
            d["dims"] = changes.pop("dims")
        d["entries"][2].update(changes)
        return json.dumps(d)

    # JSON integers and integer strings are the accepted forms.
    assert from_json(doc(num=1, den=1)) == w()
    assert from_json(doc(num="-3", den="2")).entries[(1, 0, 0)] == Fraction(-3, 2)
    for bad in (
        doc(dims=[2, 2, True]),
        doc(dims=[2, 2, 2.0]),
        doc(i=0.9),
        doc(i=1.0),
        doc(j=True),
        doc(k=False),
        doc(i="1"),
        doc(num=1.7),
        doc(num="1.7"),
        doc(num=True),
        doc(den=2.0),
        doc(den=" 1"),
        doc(den="1e3"),
    ):
        with pytest.raises(ValueError):
            from_json(bad)


def test_json_normalizes_fractions():
    doc = {"dims": [2, 2, 2], "entries": [
        {"i": 0, "j": 0, "k": 1, "num": "2", "den": "4"},
        {"i": 0, "j": 1, "k": 0, "num": "1", "den": "1"},
        {"i": 1, "j": 0, "k": 0, "num": "1", "den": "1"},
    ]}
    t = from_json(json.dumps(doc))
    assert t.entries[(0, 0, 1)] == Fraction(1, 2)
    assert from_json(to_json(t)) == t


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_json_round_trip_random(seed):
    t = random_rational_tensor(random.Random(seed))
    assert from_json(to_json(t)) == t


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**9))
def test_kron_dsum_sizes_random(seed):
    r = random.Random(seed)
    s, t = random_rational_tensor(r), random_rational_tensor(r)
    ks = kron(s, t)
    assert len(ks.entries) == len(s.entries) * len(t.entries)
    assert ks.dims == tuple(a * b for a, b in zip(s.dims, t.dims))
    ds = dsum(s, t)
    assert len(ds.entries) == len(s.entries) + len(t.entries)
    assert ds.dims == tuple(a + b for a, b in zip(s.dims, t.dims))


def _all_flattenings_rank_one(entries) -> bool:
    """Oracle for simplicity: every flattening, built here, has rank 1."""
    dims = [max(p[a] for p in entries) + 1 for a in range(3)]
    for a in range(3):
        b, c = (a + 1) % 3, (a + 2) % 3
        m = ExactMatrix(dims[a], dims[b] * dims[c],
                        {(p[a], p[b] * dims[c] + p[c]): v for p, v in entries.items()})
        if rank_exact(m) != 1:
            return False
    return True


_nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool)
_axis_subset = st.sets(st.integers(0, 2), min_size=1)


@st.composite
def _rank_one_entries(draw, perturb):
    """Rank-one coefficients u_i v_j w_k on a product set in a 3x3x3 box; with
    perturb, one coefficient is then changed to another nonzero value."""
    axes = [draw(_axis_subset) for _ in range(3)]
    u, v, x = ({i: draw(_nonzero) for i in axis} for axis in axes)
    entries = {(i, j, k): u[i] * v[j] * x[k] for i, j, k in product(*axes)}
    if perturb:
        p = draw(st.sampled_from(sorted(entries)))
        entries[p] = draw(_nonzero.filter(lambda c: c != entries[p]))
    return entries


_sparse_entries = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), _nonzero,
    min_size=1, max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_rank_one_entries(False), _rank_one_entries(True), _sparse_entries))
def test_is_simple_matches_flattening_rank_oracle(entries):
    simple = _all_flattenings_rank_one(entries)
    assert _is_simple(entries) == simple
    if simple:
        with pytest.raises(ValueError, match="simple"):
            Tensor((3, 3, 3), entries)
    else:
        assert Tensor((3, 3, 3), entries).entries == entries


@pytest.mark.parametrize("dims, entries", [
    ((2.7, 2, 2), {(0.9, 0, 1): 1, (0, 1.5, 0): 1, (1, 0, 0): 1}),  # would truncate to W
    ((2.0, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1}),
    ((2, True, 2), {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1}),
    ((2, 2, 2), {(0, 0, 1.0): 1, (0, 1, 0): 1, (1, 0, 0): 1}),
    ((2, 2, 2), {(0, 0, True): 1, (0, 1, 0): 1, (1, 0, 0): 1}),
])
def test_tensor_rejects_float_and_bool_dims_and_indices(dims, entries):
    with pytest.raises(ValueError):
        Tensor(dims, entries)


@pytest.mark.parametrize("points", [
    set(),
    {(0, 0, 2), (0, 1, 0)},  # out of range
    {(0, 0, 1.0), (0, 1, 0)},
    {(0, 0, True), (0, 1, 0)},
])
def test_support_rejects_bad_points(points):
    with pytest.raises(ValueError):
        Support((2, 2, 2), frozenset(points))


def test_tensor_support_checks_no_point_again(monkeypatch):
    t = w()
    calls = []
    monkeypatch.setattr(tensor_module, "_check_index", lambda *args: calls.append(args))
    s = t.support()
    assert calls == []
    assert s == Support(t.dims, frozenset(t.entries)) and len(calls) == 3
