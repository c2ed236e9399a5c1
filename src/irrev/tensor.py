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

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import ResourceLimitError

Index = tuple[int, int, int]

# Per-axis dimension cap for product constructions (kron, cyc).
MAX_DIM = 1 << 22


def _check_index(point: Index, dims: tuple[int, int, int]) -> None:
    # Exactly int: bool and float indices are rejected, never coerced.
    i, j, k = point
    if not (type(i) is type(j) is type(k) is int
            and 0 <= i < dims[0] and 0 <= j < dims[1] and 0 <= k < dims[2]):
        raise ValueError(f"index {point!r} must be integers in range for dims {dims}")


@dataclass(frozen=True)
class Support:
    """Nonzero pattern of a tensor: a nonempty set of index triples in a dims box."""

    dims: tuple[int, int, int]
    points: frozenset[Index]

    def __post_init__(self):
        if not self.points:
            raise ValueError("support must be nonempty")
        for p in self.points:
            _check_index(p, self.dims)


class Tensor:
    """Immutable sparse 3-tensor with nonzero rational coefficients."""

    __slots__ = ("dims", "entries")

    dims: tuple[int, int, int]
    entries: Mapping[Index, Fraction]

    def __init__(self, dims: Iterable[int], entries) -> None:
        dims = tuple(dims)
        if len(dims) != 3 or not all(type(d) is int and d > 0 for d in dims):
            raise ValueError(f"dims must be three positive integers, got {dims!r}")
        items = entries.items() if isinstance(entries, Mapping) else entries
        norm: dict[Index, Fraction] = {}
        for key, coeff in items:
            point = tuple(key)
            _check_index(point, dims)
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if c == 0:
                raise ValueError(f"zero coefficient at {point}")
            if point in norm:
                raise ValueError(f"duplicate entry at {point}")
            norm[point] = c
        if not norm:
            raise ValueError("tensor has no entries")
        if _is_simple(norm):
            raise ValueError("simple tensors u (x) v (x) w are not supported")
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "entries", MappingProxyType(norm))

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def support(self) -> Support:
        # Built without Support.__post_init__: __init__ checked every point.
        s = object.__new__(Support)
        object.__setattr__(s, "dims", self.dims)
        object.__setattr__(s, "points", frozenset(self.entries))
        return s

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


def cw(q: int) -> Tensor:
    """Small Coppersmith-Winograd tensor: 3q ones on dims (q+1)^3."""
    if q < 1:
        raise ValueError("cw needs q >= 1")
    entries: dict[Index, int] = {}
    for i in range(1, q + 1):
        entries[(0, i, i)] = 1
        entries[(i, 0, i)] = 1
        entries[(i, i, 0)] = 1
    return Tensor((q + 1, q + 1, q + 1), entries)


def cw_big(q: int) -> Tensor:
    """Big Coppersmith-Winograd tensor: the cw support plus 3 corner points, 3q+3 ones."""
    if q < 0:
        raise ValueError("cw_big needs q >= 0")
    entries: dict[Index, int] = {}
    for i in range(1, q + 1):
        entries[(0, i, i)] = 1
        entries[(i, 0, i)] = 1
        entries[(i, i, 0)] = 1
    entries[(0, 0, q + 1)] = 1
    entries[(0, q + 1, 0)] = 1
    entries[(q + 1, 0, 0)] = 1
    return Tensor((q + 2, q + 2, q + 2), entries)


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
    entries = [
        {"i": i, "j": j, "k": k, "num": str(c.numerator), "den": str(c.denominator)}
        for (i, j, k), c in sorted(t.entries.items())
    ]
    return json.dumps({"dims": list(t.dims), "entries": entries}, separators=(", ", ": "))


_INTEGER = re.compile(r"-?[0-9]+")


def _coefficient_part(x, point: Index) -> int:
    """num or den of an entry: a decimal integer string or a JSON integer."""
    if type(x) is str and _INTEGER.fullmatch(x):
        try:
            return int(x)
        except ValueError:  # only Python's cap on digits in an int string
            raise ValueError(f"num and den have at most {sys.get_int_max_str_digits()} "
                             f"digits at {point}") from None
    # Exact type: JSON true and false decode to bool, a subclass of int.
    if type(x) is int:
        return x
    raise ValueError(f"num and den must be integer strings or integers at {point}, got {x!r}")


def from_json(text: str) -> Tensor:
    """Parse the tensor file format, validating structure and coefficient rules."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"dims", "entries"}:
        raise ValueError('tensor file must be {"dims": [...], "entries": [...]}')
    dims, raw = doc["dims"], doc["entries"]
    if not (isinstance(dims, list) and isinstance(raw, list)):
        raise ValueError("dims and entries must be lists")
    entries: list[tuple[Index, Fraction]] = []
    for rec in raw:
        if not isinstance(rec, dict) or not {"i", "j", "k", "num", "den"} <= set(rec):
            raise ValueError(f"bad entry record: {rec!r}")
        point = (rec["i"], rec["j"], rec["k"])
        num, den = _coefficient_part(rec["num"], point), _coefficient_part(rec["den"], point)
        if den <= 0:
            raise ValueError(f"denominator must be positive at {point}")
        entries.append((point, Fraction(num, den)))
    return Tensor(dims, entries)


def read_tensor(path: str) -> Tensor:
    """Read a tensor file; '-' reads from stdin."""
    if path == "-":
        return from_json(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return from_json(fh.read())

