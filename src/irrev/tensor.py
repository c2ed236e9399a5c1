"""Sparse 3-tensors over the rationals.

Tensors are immutable maps from index triples to nonzero rational
coefficients, together with explicit dimensions.  This module provides the
named families used throughout the package (unit/diagonal tensors, matrix
multiplication tensors, the small and big Coppersmith-Winograd tensors,
reduced polynomial multiplication tensors, the cyclic-group tensor), the
Kronecker product / direct sum / cyclic-symmetrization constructions, and a
JSON file format.

Simple tensors (those of the form u (x) v (x) w) are rejected at
construction: every quantity computed downstream assumes at least one
flattening has rank >= 2.
"""

from __future__ import annotations

import gc
import json
import re
import reprlib
import sys
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ResourceLimitError

Index = tuple[int, int, int]

# Per-axis dimension cap for product constructions (kron, cyc).
MAX_DIM = 1 << 22

# Error messages show a malformed value through this: at most three items of
# a container, none nested, and 16 characters of a string or number, so that
# a huge bad input gives a short error line rather than a copy of itself.
_ECHO = reprlib.Repr()
_ECHO.maxlevel = 1
_ECHO.maxdict = _ECHO.maxlist = _ECHO.maxtuple = _ECHO.maxset = _ECHO.maxfrozenset = 3
_ECHO.maxstring = _ECHO.maxlong = _ECHO.maxother = 16
_echo = _ECHO.repr


def _checked_dims(dims: Iterable[int]) -> tuple[int, int, int]:
    dims = tuple(dims)
    if len(dims) != 3 or not all(type(d) is int and d > 0 for d in dims):
        raise ValueError(f"dims must be three positive integers, got {_echo(dims)}")
    return dims


def _check_index(point: Index, dims: tuple[int, int, int]) -> None:
    # Exactly int: bool and float indices are rejected, never coerced.
    i, j, k = point
    if not (type(i) is type(j) is type(k) is int
            and 0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
        raise ValueError(f"index {_echo(point)} must be integers in range for dims {_echo(dims)}")


class Support:
    """Nonzero pattern of a tensor: a nonempty set of index triples in a dims box.

    Immutable, compared and hashed by (dims, points)."""

    __slots__ = ("dims", "points")

    dims: tuple[int, int, int]
    points: frozenset[Index]

    def __init__(self, dims: Iterable[int], points: Iterable[Index]) -> None:
        dims, points = _checked_dims(dims), frozenset(points)
        if not points:
            raise ValueError("support must be nonempty")
        for p in points:
            _check_index(p, dims)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "points", points)

    @classmethod
    def _unchecked(cls, dims: tuple[int, int, int], points: frozenset[Index]) -> Support:
        """A Support of points already known to be valid, built without the checks."""
        s = object.__new__(cls)
        object.__setattr__(s, "dims", dims)
        object.__setattr__(s, "points", points)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Support is immutable")

    def __delattr__(self, name):
        raise AttributeError("Support is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.dims == other.dims and self.points == other.points

    def __hash__(self):
        return hash((self.dims, self.points))

    def __repr__(self):
        return f"{type(self).__qualname__}(dims={self.dims!r}, points={self.points!r})"

    def __reduce__(self):
        # copy and pickle rebuild through the checks: __setattr__ refuses the default way.
        return type(self), (self.dims, self.points)


class Tensor:
    """Immutable sparse 3-tensor with nonzero rational coefficients."""

    __slots__ = ("dims", "entries")

    dims: tuple[int, int, int]
    entries: Mapping[Index, Fraction]

    def __init__(self, dims: Iterable[int], entries) -> None:
        """entries: a mapping or an iterable of (point, coefficient) pairs.

        The one checker of every tensor's input.  The first rule broken
        raises ValueError, in this order: dims are three positive integers;
        then, pair by pair, the point is in range (`_check_index`), the
        coefficient is nonzero and the point is not a repeat; then there is
        an entry, and the tensor is not simple.
        """
        dims = _checked_dims(dims)
        items = entries.items() if isinstance(entries, Mapping) else entries
        norm: dict[Index, Fraction] = {}
        for key, coeff in items:
            point = tuple(key)
            _check_index(point, dims)
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if not c:
                raise ValueError(f"zero coefficient at {_echo(point)}")
            if point in norm:
                raise ValueError(f"duplicate entry at {_echo(point)}")
            norm[point] = c
        if not norm:
            raise ValueError("tensor has no entries")
        if _is_simple(norm):
            raise ValueError("simple tensors u (x) v (x) w are not supported")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", MappingProxyType(norm))

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def __delattr__(self, name):
        raise AttributeError("Tensor is immutable")

    def __reduce__(self):
        # As for Support: copy and pickle rebuild through the checks.
        return Tensor, (self.dims, dict(self.entries))

    def support(self) -> Support:
        # __init__ checked every point.
        return Support._unchecked(self.dims, frozenset(self.entries))

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.dims == other.dims and dict(self.entries) == dict(other.entries)

    def __hash__(self):
        return hash((self.dims, frozenset(self.entries.items())))

    def __repr__(self):
        return f"Tensor(dims={self.dims}, nnz={len(self.entries)})"


def _is_simple(entries: dict[Index, Fraction]) -> bool:
    """u (x) v (x) w iff the support is the product of its projections and, for a
    fixed entry c0 = c(i0, j0, k0), c(i,j,k) c0^2 = c(i,j0,k0) c(i0,j,k0) c(i0,j0,k)."""
    n1, n2, n3 = (len({p[axis] for p in entries}) for axis in range(3))
    if n1 * n2 * n3 != len(entries):
        return False
    (i0, j0, k0), c0 = next(iter(entries.items()))
    return all(c * c0 * c0 == entries[i, j0, k0] * entries[i0, j, k0] * entries[i0, j0, k]
               for (i, j, k), c in entries.items())


# ---------------------------------------------------------------------------
# Named families


def unit(n: int) -> Tensor:
    """Diagonal (rank-n unit) tensor: n ones on the main diagonal of an n^3 box."""
    if n < 2:
        raise ValueError("unit tensor needs n >= 2 (n = 1 is a simple tensor)")
    return Tensor((n, n, n), {(i, i, i): 1 for i in range(n)})


def matmul(a: int, b: int, c: int) -> Tensor:
    """Matrix multiplication tensor for (a x b) x (b x c) products.

    Index pairs are flattened row-major, so dims are (ab, bc, ca) and the
    support has exactly abc points.
    """
    if min(a, b, c) < 1:
        raise ValueError("matmul parameters must be positive")
    if a * b * c < 2:
        raise ValueError("matmul(1,1,1) is a simple tensor")
    entries = {
        (i * b + j, j * c + k, k * a + i): 1
        for i, j, k in product(range(a), range(b), range(c))
    }
    return Tensor((a * b, b * c, c * a), entries)


def _cw_points(q: int, big: bool) -> list[Index]:
    """supp(cw(q)): (0,i,i), (i,0,i), (i,i,0) for i = 1..q; then, if big, the 3 corners of cw_big(q)."""
    points = [p for i in range(1, q + 1) for p in ((0, i, i), (i, 0, i), (i, i, 0))]
    if big:
        points += [(0, 0, q + 1), (0, q + 1, 0), (q + 1, 0, 0)]
    return points


def cw(q: int) -> Tensor:
    """Small Coppersmith-Winograd tensor: 3q ones on dims (q+1)^3."""
    if q < 1:
        raise ValueError("cw needs q >= 1")
    return Tensor((q + 1, q + 1, q + 1), dict.fromkeys(_cw_points(q, False), 1))


def cw_big(q: int) -> Tensor:
    """Big Coppersmith-Winograd tensor: the cw support plus 3 corner points, 3q+3 ones."""
    if q < 0:
        raise ValueError("cw_big needs q >= 0")
    return Tensor((q + 2, q + 2, q + 2), dict.fromkeys(_cw_points(q, True), 1))


def cw_param(t: Tensor, big: bool = False) -> int | None:
    """q if supp(t) is supp(cw_big(q)) (big; q = 0 is supp(w())) or supp(cw(q)), else None.
    Coefficients are not compared; the dims and count tests spare building the point set."""
    q = t.dims[0] - (2 if big else 1)
    match = t.dims == (t.dims[0],) * 3 and len(t.entries) == 3 * q + (3 if big else 0)
    return q if match and t.entries.keys() == set(_cw_points(q, big)) else None


def tn(m: int) -> Tensor:
    """Reduced polynomial multiplication tensor on indices 0..m-1: ones at (i, j, i+j)."""
    if m < 2:
        raise ValueError("tn needs m >= 2 (m = 1 is a simple tensor)")
    entries = {
        (i, j, i + j): 1 for i in range(m) for j in range(m - i)
    }
    return Tensor((m, m, m), entries)


def w() -> Tensor:
    """The three-point tensor with ones at (0,0,1), (0,1,0), (1,0,0)."""
    return Tensor((2, 2, 2), {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1})


def z3() -> Tensor:
    """Structure tensor of the cyclic group of order 3: ones at all (a, b, a+b mod 3)."""
    return Tensor((3, 3, 3), {(a, b, (a + b) % 3): 1 for a in range(3) for b in range(3)})


# ---------------------------------------------------------------------------
# Constructions


def kron(s: Tensor, t: Tensor) -> Tensor:
    """Tensor Kronecker product; composite indices pair row-major (i_s * n_t + i_t)."""
    dims = tuple(ds * dt for ds, dt in zip(s.dims, t.dims))
    if max(dims) > MAX_DIM:
        raise ResourceLimitError(f"kron dims {dims} exceed the {MAX_DIM} per-axis limit")
    entries: dict[Index, Fraction] = {}
    for (i1, j1, k1), c1 in s.entries.items():
        for (i2, j2, k2), c2 in t.entries.items():
            key = (i1 * t.dims[0] + i2, j1 * t.dims[1] + j2, k1 * t.dims[2] + k2)
            entries[key] = c1 * c2
    return Tensor(dims, entries)


def dsum(s: Tensor, t: Tensor) -> Tensor:
    """Direct sum: dims add, entries of t are shifted past those of s."""
    dims = tuple(ds + dt for ds, dt in zip(s.dims, t.dims))
    entries: dict[Index, Fraction] = dict(s.entries)
    for (i, j, k), c in t.entries.items():
        entries[(i + s.dims[0], j + s.dims[1], k + s.dims[2])] = c
    return Tensor(dims, entries)


def permute_legs(t: Tensor, perm: tuple[int, int, int]) -> Tensor:
    """Relabel tensor legs: new axis a is old axis perm[a] (perm is 0-based)."""
    if sorted(perm) != [0, 1, 2]:
        raise ValueError(f"perm must be a permutation of (0, 1, 2), got {perm!r}")
    dims = tuple(t.dims[perm[a]] for a in range(3))
    entries = {
        tuple(point[perm[a]] for a in range(3)): c for point, c in t.entries.items()
    }
    return Tensor(dims, entries)


def cyc(t: Tensor) -> Tensor:
    """Kronecker product of t with its two cyclic leg rotations.

    All three dims of the result equal n1*n2*n3, and the construction is
    invariant under cyclic leg permutation up to index relabeling.
    """
    r1 = permute_legs(t, (1, 2, 0))
    r2 = permute_legs(t, (2, 0, 1))
    return kron(kron(t, r1), r2)


# ---------------------------------------------------------------------------
# File format


def to_json(t: Tensor) -> str:
    """Serialize to the tensor file format (entries sorted lexicographically)."""
    # The bytes of json.dumps with separators (", ", ": "): every field is an
    # int or a decimal integer string, so nothing needs escaping.
    entries = ", ".join(
        f'{{"i": {i}, "j": {j}, "k": {k}, "num": "{c.numerator}", "den": "{c.denominator}"}}'
        for (i, j, k), c in sorted(t.entries.items())
    )
    d0, d1, d2 = t.dims
    return f'{{"dims": [{d0}, {d1}, {d2}], "entries": [{entries}]}}'


_INTEGER = re.compile(r"-?[0-9]+")


def _coefficient_part(x, point: Index) -> int:
    """num or den of an entry: a decimal integer string or a JSON integer."""
    if type(x) is str and _INTEGER.fullmatch(x):
        try:
            return int(x)
        except ValueError:  # only Python's cap on digits in an int string
            raise ValueError(f"num and den have at most {sys.get_int_max_str_digits()} "
                             f"digits at {_echo(point)}") from None
    # Exact type: JSON true and false decode to bool, a subclass of int.
    if type(x) is int:
        return x
    raise ValueError(f"num and den must be integer strings or integers at {_echo(point)}, "
                     f"got {_echo(x)}")


def _coefficient(num, den, point: Index) -> Fraction:
    n, d = _coefficient_part(num, point), _coefficient_part(den, point)
    if d <= 0:
        raise ValueError(f"denominator must be positive at {_echo(point)}")
    return Fraction(n, d)


def from_json(text: str) -> Tensor:
    """Parse the tensor file format.

    One pass reads the records and `Tensor.__init__`, the checker of every
    tensor, makes one more.  The first rule broken raises ValueError, in this
    order: the text is JSON, an object of exactly "dims" and "entries", both
    lists; then, record by record in file order, the record is an object
    with the fields i, j, k, num and den (other keys are ignored), and num
    and den make a coefficient; then the rules of `Tensor`: dims, then
    index, zero and duplicate for each point in file order, then at least
    one entry and no simple tensor.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"dims", "entries"}:
        raise ValueError('tensor file must be {"dims": [...], "entries": [...]}')
    dims, raw = doc["dims"], doc["entries"]
    if not (isinstance(dims, list) and isinstance(raw, list)):
        raise ValueError("dims and entries must be lists")
    # One Fraction per distinct (num, den) string pair: files of small-integer
    # coefficients repeat few pairs over many records.  Only str pairs are
    # keys: True == 1 would let a bool hit an int pair's entry.
    coeffs: dict[tuple[str, str], Fraction] = {}
    entries: list[tuple[Index, Fraction]] = []
    for rec in raw:
        try:
            point, num, den = (rec["i"], rec["j"], rec["k"]), rec["num"], rec["den"]
        except (KeyError, TypeError):  # not an object, or a field missing
            raise ValueError(f"bad entry record: {_echo(rec)}") from None
        if type(num) is str and type(den) is str:
            c = coeffs.get((num, den))
            if c is None:
                c = coeffs[num, den] = _coefficient(num, den, point)
        else:
            c = _coefficient(num, den, point)
        entries.append((point, c))
    return Tensor(dims, entries)


def read_tensor(path: str) -> Tensor:
    """Read a tensor file; '-' reads from stdin.

    The garbage collector is paused while the text is parsed, and left as the
    caller had it, enabled or disabled, whether the parse succeeds or raises.
    A parse makes one object per record and per field, none in a cycle, so
    the collections they would trigger free nothing and scan every object the
    process holds.  The pause is process-wide: other threads get no cyclic
    collection during it either.
    """
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return from_json(text)
    finally:
        if enabled:
            gc.enable()
