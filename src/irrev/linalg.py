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
    it reaches min(rows, cols) >= rank over Q >= rank mod P; else `rank_exact`."""
    residues, ranks = None, []
    for axis in (1, 2, 3):
        a, b, c = axis - 1, axis % 3, (axis + 1) % 3
        rows = {p[a] for p in t.entries}
        cols = {(p[b], p[c]) for p in t.entries}
        if len(cols) == len(t.entries):
            ranks.append(len(rows))
            continue
        if residues is None and all(v.denominator % P for v in t.entries.values()):
            residues = [v.numerator * pow(v.denominator, -1, P) % P for v in t.entries.values()]
        if residues is not None:
            row_of, col_of = ({k: n for n, k in enumerate(keys)} for keys in (rows, cols))
            m = np.zeros((len(rows), len(cols)), dtype=np.int64)
            m[[row_of[p[a]] for p in t.entries], [col_of[p[b], p[c]] for p in t.entries]] = residues
            if _full_row_rank_mod_p(m if len(rows) <= len(cols) else m.T):
                ranks.append(min(m.shape))
                continue
        ranks.append(rank_exact(flatten(t, axis)))
    return tuple(ranks)
