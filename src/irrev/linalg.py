"""Exact linear algebra over the rationals: flattenings and rank.

Rank is computed by fraction-free (Bareiss-style) elimination on sparse
integer rows, so intermediate values stay integral with polynomially bounded
bit growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping

from .tensor import Tensor


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


def flatten(t: Tensor, axis: int) -> ExactMatrix:
    """Group two legs of t into one: axis a becomes the rows, the other two
    (in cyclic order) pair row-major into the columns."""
    n1, n2, n3 = t.dims
    if axis == 1:
        rows, cols = n1, n2 * n3
        key = lambda i, j, k: (i, j * n3 + k)
    elif axis == 2:
        rows, cols = n2, n3 * n1
        key = lambda i, j, k: (j, k * n1 + i)
    elif axis == 3:
        rows, cols = n3, n1 * n2
        key = lambda i, j, k: (k, i * n2 + j)
    else:
        raise ValueError(f"axis must be 1, 2 or 3, got {axis!r}")
    return ExactMatrix(rows, cols, {key(i, j, k): c for (i, j, k), c in t.entries.items()})


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


def flattening_ranks(t: Tensor) -> tuple[int, int, int]:
    return tuple(rank_exact(flatten(t, axis)) for axis in (1, 2, 3))


def max_flattening_rank(t: Tensor) -> int:
    """Largest of the three flattening ranks; lower-bounds asymptotic rank."""
    return max(flattening_ranks(t))
