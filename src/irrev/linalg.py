"""Exact linear algebra over the rationals: flattenings and rank.

Each flattening rank takes the first of three routes that applies.  When
every column holds one entry, the rank is the number of nonzero rows, found
by counting.  Otherwise the entries are reduced modulo the prime P and
eliminated in numpy over the nonzero rows and columns; a rank mod P is never
above the rank over Q, so when it reaches the smaller of the two counts it is
exact.  When it falls short, or P divides a denominator, fraction-free
(Bareiss-style) elimination on sparse integer rows decides, with
intermediate values integral and of polynomially bounded bit growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .tensor import Tensor

P = 2147483629  # prime below 2**31: a product of two residues fits in int64


@dataclass(frozen=True)
class ExactMatrix:
    """Sparse matrix with nonzero rational entries."""

    rows: int
    cols: int
    entries: Mapping[tuple[int, int], Fraction]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("matrix dimensions must be positive")
        norm: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in self.entries.items():
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry ({r}, {c}) out of range")
            val = v if isinstance(v, Fraction) else Fraction(v)
            if val == 0:
                raise ValueError(f"zero entry stored at ({r}, {c})")
            norm[(r, c)] = val
        object.__setattr__(self, "entries", MappingProxyType(norm))


# Flattening axis -> 0-based legs (a, b, c): leg a gives the rows, and legs
# b and c, in cyclic order after a, pair row-major into the columns.
_LEGS = {axis: (axis - 1, axis % 3, (axis + 1) % 3) for axis in (1, 2, 3)}


def flatten(t: Tensor, axis: int) -> ExactMatrix:
    """Group two legs of t into one: axis a becomes the rows, the other two
    (in cyclic order) pair row-major into the columns."""
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis!r}")
    a, b, c = _LEGS[axis]
    nc = t.dims[c]
    entries = {(p[a], p[b] * nc + p[c]): v for p, v in t.entries.items()}
    return ExactMatrix(t.dims[a], t.dims[b] * nc, entries)


def _integer_rows(matrix: ExactMatrix) -> list[dict[int, int]]:
    grouped: dict[int, dict[int, Fraction]] = {}
    for (r, c), v in matrix.entries.items():
        grouped.setdefault(r, {})[c] = v
    rows = []
    for row in grouped.values():
        scale = math.lcm(*(v.denominator for v in row.values()))
        ints = {c: int(v * scale) for c, v in row.items()}
        g = math.gcd(*ints.values())
        rows.append({c: x // g for c, x in ints.items()})
    return rows


def _exact_div(x: int, d: int) -> int:
    q, r = divmod(x, d)
    if r:
        raise ArithmeticError("fraction-free elimination invariant violated")
    return q


def rank_exact(matrix: ExactMatrix) -> int:
    """Rank over the rationals, exactly.

    Sparse one-step Bareiss elimination: each step applies the two-term
    update (p * a - a_pc * p_c) / prev to every remaining row, which stays
    integral for any pivot choice by Sylvester's identity.  Pivot rows are
    chosen shortest-first to limit fill-in.
    """
    rows = _integer_rows(matrix)
    prev = 1
    rank = 0
    while rows:
        pi = min(range(len(rows)), key=lambda idx: len(rows[idx]))
        prow = rows.pop(pi)
        # Within the pivot row, prefer a column touching few other rows.
        counts = {c: 0 for c in prow}
        for row in rows:
            for c in row:
                if c in counts:
                    counts[c] += 1
        pc = min(counts, key=lambda c: (counts[c], c))
        pval = prow[pc]
        updated: list[dict[int, int]] = []
        for row in rows:
            a = row.pop(pc, 0)
            if a:
                merged = {c: pval * x for c, x in row.items()}
                for c, y in prow.items():
                    if c == pc:
                        continue
                    merged[c] = merged.get(c, 0) - a * y
                out = {c: _exact_div(x, prev) for c, x in merged.items() if x}
            else:
                out = {c: _exact_div(pval * x, prev) for c, x in row.items()}
            if out:
                updated.append(out)
        rows = updated
        prev = pval
        rank += 1
    return rank


def _full_row_rank_mod_p(a: np.ndarray) -> bool:
    """Whether residues mod P have full row rank; each pivot rewrites in place
    only the rows with a nonzero in its column."""
    while len(a):
        pc = np.argmax(a[0] != 0)
        if not a[0, pc]:
            return False
        pivot_row = a[0] * pow(int(a[0, pc]), -1, P) % P
        a = a[1:]
        hit = np.flatnonzero(a[:, pc])
        a[hit] = (a[hit] - a[hit, pc, None] * pivot_row) % P
    return True


def flattening_ranks(t: Tensor) -> tuple[int, int, int]:
    """Exact flattening ranks: the number of nonzero rows when each column holds one
    entry; else the rank over F_P of the dense nonzero-rows x nonzero-columns array if
    it reaches min(rows, cols) >= rank over Q >= rank mod P; else `rank_exact`.

    The residues mod P are built once per call, with one reduction per distinct
    coefficient object and one inverse per distinct denominator; a denominator
    that P divides sends every axis that is not free to `rank_exact`."""
    n = len(t.entries)
    coords = tuple(zip(*t.entries))
    pts = residues = None
    ranks = []
    for axis, (a, b, c) in _LEGS.items():
        # More entries than columns cannot all sit in distinct columns.
        if n <= t.dims[b] * t.dims[c] and len(set(zip(coords[b], coords[c]))) == n:
            ranks.append(len(set(coords[a])))
            continue
        if pts is None:
            # dims below 2**31 keep the column key below 2**62
            pts = np.array(coords, dtype=object if max(t.dims) >= 2**31 else np.int64)
            # A file's equal coefficients share one Fraction (`tensor.from_json`),
            # and hashing a Fraction costs more than reducing it, so each
            # distinct object, told apart by id, is reduced once.
            distinct = {id(v): v for v in t.entries.values()}
            dens = {v.denominator for v in distinct.values()}
            if all(d % P for d in dens):
                inv = {d: pow(d, -1, P) for d in dens}
                residue = {i: v.numerator * inv[v.denominator] % P for i, v in distinct.items()}
                residues = np.fromiter(map(residue.__getitem__, map(id, t.entries.values())),
                                       dtype=np.int64, count=n)
        if residues is not None:
            rows, row_of = np.unique(pts[a], return_inverse=True)
            cols, col_of = np.unique(pts[b] * t.dims[c] + pts[c], return_inverse=True)
            m = np.zeros((len(rows), len(cols)), dtype=np.int64)
            m[row_of, col_of] = residues
            if _full_row_rank_mod_p(m if len(rows) <= len(cols) else m.T):
                ranks.append(min(m.shape))
                continue
        ranks.append(rank_exact(flatten(t, axis)))
    return tuple(ranks)
