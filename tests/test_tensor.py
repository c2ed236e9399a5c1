import copy
import gc
import json
import pickle
import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
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
from conftest import random_rational_tensor, reference_to_json
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


def test_tensor_refuses_del():
    t = w()
    for name in ("dims", "entries"):
        with pytest.raises(AttributeError):
            delattr(t, name)
    assert t.dims == (2, 2, 2) and len(t.entries) == 3


@pytest.mark.parametrize("t", [
    w(),
    tn(3),
    Tensor((2, 3, 2), {(0, 0, 1): Fraction(3, 7), (1, 2, 0): -2}),
], ids=["w", "tn3", "rational"])
def test_tensor_copies_and_pickles_to_an_equal_tensor(t):
    for twin in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
        assert type(twin) is Tensor and twin == t and hash(twin) == hash(t)
        assert twin.dims == t.dims and dict(twin.entries) == dict(t.entries)


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


def test_json_rejects_nesting_too_deep_for_the_decoder():
    with pytest.raises(ValueError, match="not valid JSON"):
        from_json("[" * 100_000)


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


@pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2.5), (2, 2, 2, 2)])
def test_support_rejects_bad_dims(dims):
    with pytest.raises(ValueError, match="dims must be three positive integers"):
        Support(dims, frozenset({(0, 0, 1), (1, 0, 0)}))


@pytest.mark.parametrize("case", ["list points", "list dims"])
def test_support_keeps_no_caller_container(case):
    dims, points = [2, 2, 2], [(0, 0, 1), (1, 0, 0)]
    s = Support(dims, frozenset(points)) if case == "list dims" else Support((2, 2, 2), points)
    dims[0] = 5
    points.append((1, 1, 1))
    assert s.dims == (2, 2, 2) and s.points == frozenset({(0, 0, 1), (1, 0, 0)})
    assert hash(s) == hash(Support((2, 2, 2), frozenset({(0, 0, 1), (1, 0, 0)})))


def test_support_is_an_immutable_value():
    a = Support((2, 2, 2), frozenset({(0, 0, 1), (1, 0, 0)}))
    b = Support((2, 2, 2), frozenset([(1, 0, 0), (0, 0, 1)]))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Support((2, 2, 3), a.points)
    assert a != Support((2, 2, 2), frozenset({(0, 0, 1)}))
    assert a != (a.dims, a.points)
    assert w().support() == Support((2, 2, 2), frozenset(w().entries))
    assert (repr(Support((2, 2, 2), frozenset({(0, 0, 1)})))
            == "Support(dims=(2, 2, 2), points=frozenset({(0, 0, 1)}))")
    for name in ("dims", "points", "other"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        del a.dims
    assert a == b
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and type(twin) is Support


def test_tensor_support_checks_no_point_again(monkeypatch):
    t = w()
    calls = []
    monkeypatch.setattr(tensor_module, "_check_index", lambda *args: calls.append(args))
    s = t.support()
    assert calls == []
    assert s == Support(t.dims, frozenset(t.entries)) and len(calls) == 3


_BIG_COEFFS = st.builds(
    Fraction, st.integers(-10**30, 10**30).filter(bool), st.integers(1, 10**20)
)
_BIG_POINTS = st.tuples(st.integers(0, 11), st.integers(0, 123), st.integers(0, 2))


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(_BIG_POINTS, _BIG_COEFFS, min_size=2, max_size=40))
def test_to_json_matches_json_dumps_reference(entries):
    try:
        t = Tensor((12, 124, 3), entries)
    except ValueError:  # simple
        assume(False)
    text = to_json(t)
    assert text == reference_to_json(t)
    assert from_json(text) == t


def _doc_with(*records) -> str:
    doc = json.loads(to_json(w()))
    doc["entries"].extend({"i": i, "j": j, "k": k, "num": n, "den": d} for i, j, k, n, d in records)
    return json.dumps(doc)


def test_from_json_repeated_string_pair_gives_equal_coefficients():
    t = from_json(_doc_with((1, 1, 1, "2", "4"), (1, 1, 0, "2", "4"), (0, 1, 1, "-1", "2")))
    assert t.entries[(1, 1, 1)] == t.entries[(1, 1, 0)] == Fraction(1, 2)
    assert t.entries[(0, 1, 1)] == Fraction(-1, 2)
    assert t.entries[(0, 0, 1)] == 1
    # Mixed and integer pairs are valid too and are never taken for string ones.
    t = from_json(_doc_with((1, 1, 1, 3, "1"), (1, 1, 0, "3", 1), (0, 1, 1, 3, 1)))
    assert t.entries[(1, 1, 1)] == t.entries[(1, 1, 0)] == t.entries[(0, 1, 1)] == 3


@pytest.mark.parametrize("record", [
    (0, 0, 1, "1", "1"),  # duplicate of w's first point, same cached pair
    (1, 1, 1, "1", "1"),  # then the same point again below
    (2, 0, 0, "1", "1"),
    (0, -1, 0, "1", "1"),
    (1, 1, True, "1", "1"),
    (1, 1.0, 1, "1", "1"),
])
def test_from_json_rejects_bad_points_with_cached_coefficients(record):
    records = [record, record] if record[:3] == (1, 1, 1) else [record]
    with pytest.raises(ValueError, match="duplicate|index"):
        from_json(_doc_with(*records))


def _rec(i, j, k, num="1", den="1", **extra):
    return {"i": i, "j": j, "k": k, "num": num, "den": den, **extra}


_W_RECORDS = [_rec(0, 0, 1), _rec(0, 1, 0), _rec(1, 0, 0)]


def _file(entries, dims=(2, 2, 2)) -> str:
    return json.dumps({"dims": list(dims), "entries": entries})


def _w_plus(*records) -> str:
    return _file(_W_RECORDS + list(records))


_AT = "at (1, 1, 1)"
_NOT_INTEGER = f"num and den must be integer strings or integers {_AT}, got "
_INDEX = "index {} must be integers in range for dims (2, 2, 2)"

# (file, the one error message the reader gives).  The cases with several
# faults pin which one wins.
READER_ERRORS = {
    "not-object": ("[]", 'tensor file must be {"dims": [...], "entries": [...]}'),
    "extra-top-key": (json.dumps({"dims": [2, 2, 2], "entries": [], "x": 1}),
                      'tensor file must be {"dims": [...], "entries": [...]}'),
    "dims-not-list": (json.dumps({"dims": 2, "entries": []}), "dims and entries must be lists"),
    "record-list": (_file([[0, 0, 1, "1", "1"]] + _W_RECORDS),
                    "bad entry record: [0, 0, 1, ...]"),
    "record-missing-den": (_file([{"i": 1, "j": 1, "k": 1, "num": "1"}] + _W_RECORDS),
                           "bad entry record: {'i': 1, 'j': 1, 'k': 1, ...}"),
    "record-null": (_w_plus(None), "bad entry record: None"),
    "record-string": (_w_plus("ijk"), "bad entry record: 'ijk'"),
    "num-float": (_w_plus(_rec(1, 1, 1, num=1.5)), _NOT_INTEGER + "1.5"),
    "num-bool": (_w_plus(_rec(1, 1, 1, num=True)), _NOT_INTEGER + "True"),
    "den-bool": (_w_plus(_rec(1, 1, 1, den=False)), _NOT_INTEGER + "False"),
    "den-zero": (_w_plus(_rec(1, 1, 1, den="0")), f"denominator must be positive {_AT}"),
    "den-digits": (_w_plus(_rec(1, 1, 1, den="9" * 5000)),
                   f"num and den have at most {sys.get_int_max_str_digits()} digits {_AT}"),
    "dims-bool": (_file(_W_RECORDS, dims=(2, True, 2)),
                  "dims must be three positive integers, got (2, True, 2)"),
    "dims-two": (_file(_W_RECORDS, dims=(2, 2)), "dims must be three positive integers, got (2, 2)"),
    "index-bool": (_w_plus(_rec(1, 1, True)), _INDEX.format("(1, 1, True)")),
    "index-float": (_w_plus(_rec(1, 1.0, 1)), _INDEX.format("(1, 1.0, 1)")),
    "index-range": (_w_plus(_rec(2, 0, 0)), _INDEX.format("(2, 0, 0)")),
    "index-negative": (_w_plus(_rec(0, -1, 0)), _INDEX.format("(0, -1, 0)")),
    "num-zero-string": (_w_plus(_rec(1, 1, 1, num="0")), f"zero coefficient {_AT}"),
    "num-zero-integer": (_w_plus(_rec(1, 1, 1, num=0)), f"zero coefficient {_AT}"),
    "num-minus-zero": (_w_plus(_rec(1, 1, 1, num="-0")), f"zero coefficient {_AT}"),
    "duplicate": (_w_plus(_rec(0, 1, 0, num="2")), "duplicate entry at (0, 1, 0)"),
    "empty": (_file([]), "tensor has no entries"),
    "simple": (_file([_rec(0, 0, 0)]), "simple tensors u (x) v (x) w are not supported"),
    # Several faults.  Reading: the first faulty record in file order.
    "den-then-record": (_w_plus(_rec(1, 1, 1, den="-1"), [1]), f"denominator must be positive {_AT}"),
    "record-then-den": (_w_plus([1], _rec(1, 1, 1, den="-1")), "bad entry record: [1]"),
    # A coefficient fault in any record comes before dims and index faults.
    "dims-then-num": (_file([_rec(5, 5, 5)] + _W_RECORDS + [_rec(1, 1, 1, num="x")], dims=(0, 2, 2)),
                      _NOT_INTEGER + "'x'"),
    "index-then-num": (_file([_rec(5, 5, 5)] + _W_RECORDS + [_rec(1, 1, 1, num=1.5)]),
                       _NOT_INTEGER + "1.5"),
    # Then dims before any index.
    "index-then-dims": (_file([_rec(5, 5, 5)] + _W_RECORDS, dims=(2, 2, -2)),
                        "dims must be three positive integers, got (2, 2, -2)"),
    # Then point by point in file order: index, zero, duplicate.
    "zero-then-index": (_w_plus(_rec(1, 1, 1, num="0"), _rec(9, 0, 0)), f"zero coefficient {_AT}"),
    "index-then-zero": (_w_plus(_rec(9, 0, 0), _rec(1, 1, 1, num="0")), _INDEX.format("(9, 0, 0)")),
    "zero-then-duplicate": (_w_plus(_rec(1, 1, 1, num="0"), _rec(0, 0, 1)), f"zero coefficient {_AT}"),
    "duplicate-then-zero": (_w_plus(_rec(0, 0, 1), _rec(1, 1, 1, num="0")),
                            "duplicate entry at (0, 0, 1)"),
    "index-and-zero": (_w_plus(_rec(9, 0, 0, num="0")), _INDEX.format("(9, 0, 0)")),
    "zero-and-duplicate": (_w_plus(_rec(0, 0, 1, num="0")), "zero coefficient at (0, 0, 1)"),
    # Then the whole tensor: simple is checked after every point.
    "duplicate-of-simple": (_file([_rec(0, 0, 0), _rec(0, 0, 0)]), "duplicate entry at (0, 0, 0)"),
}


@pytest.mark.parametrize("text, message", READER_ERRORS.values(), ids=READER_ERRORS.keys())
def test_reader_error_messages_and_which_fault_wins(text, message):
    with pytest.raises(ValueError) as err:
        from_json(text)
    assert str(err.value) == message


def test_reader_accepts_extra_record_keys_and_integer_coefficients():
    t = from_json(_file([_rec(0, 0, 1, note="x", weight=[1, 2]), _rec(0, 1, 0, num=3, den=2),
                         _rec(1, 0, 0, num=-4, den="6")]))
    assert dict(t.entries) == {(0, 0, 1): 1, (0, 1, 0): Fraction(3, 2), (1, 0, 0): Fraction(-2, 3)}


@pytest.mark.parametrize("parse_fails", [False, True])
@pytest.mark.parametrize("was_enabled", [True, False])
def test_read_tensor_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, was_enabled,
                                                          parse_fails):
    path = tmp_path / "t.json"
    path.write_text(_w_plus(_rec(2, 0, 0)) if parse_fails else to_json(w()))
    during = []
    parse = tensor_module.from_json
    monkeypatch.setattr(tensor_module, "from_json",
                        lambda text: during.append(gc.isenabled()) or parse(text))
    before = gc.isenabled()
    try:
        gc.enable() if was_enabled else gc.disable()
        if parse_fails:
            with pytest.raises(ValueError, match="index"):
                tensor_module.read_tensor(str(path))
        else:
            assert tensor_module.read_tensor(str(path)) == w()
        assert gc.isenabled() is was_enabled
    finally:
        gc.enable() if before else gc.disable()
    assert during == [False]


_ENTRY_MAPS = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 2)),
    st.fractions(min_value=-50, max_value=50, max_denominator=30).filter(bool),
    min_size=2, max_size=30,
)


@settings(max_examples=100, deadline=None)
@given(_ENTRY_MAPS, st.randoms(use_true_random=False))
def test_from_json_round_trip_keeps_the_entry_order(entries, rng):
    try:
        t = Tensor((4, 5, 3), entries)
    except ValueError:  # simple
        assume(False)
    back = from_json(to_json(t))
    assert back == t and list(back.entries) == sorted(t.entries)
    # A file in any record order reads back in that order.
    records = json.loads(to_json(t))["entries"]
    rng.shuffle(records)
    shuffled = from_json(_file(records, dims=t.dims))
    assert shuffled == t
    assert list(shuffled.entries) == [(r["i"], r["j"], r["k"]) for r in records]
