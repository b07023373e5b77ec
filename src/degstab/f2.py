"""Linear algebra over F_2 with rows stored as int bitmasks.

Convention: bit j of a row mask is the entry in column j. A vector in F_2^n is
a single n-bit mask; applying a matrix to it takes parities of row&vector.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from .bits import parity
from .errors import DimensionMismatchError, SingularMatrixError


def _rref_basis(work: list[int], ncols: int) -> dict[int, int]:
    """RREF basis of the rows keyed on each vector's pivot, its lowest set bit.

    The basis stays reduced as rows come in. A row is reduced by one XOR per
    pivot bit it carries, at most rank steps; a row left nonzero clears its
    new pivot from the others, unless no row so far had that bit. The scan
    stops once the rank reaches min(ncols, len(work)).
    """
    for row in work:
        if row >> ncols:
            raise DimensionMismatchError(f"row {row:#x} does not fit in {ncols} columns")
    index: dict[int, int] = {}
    vecs: list[int] = []
    pivots = seen = 0
    full = min(ncols, len(work))
    for row in work:
        if len(vecs) == full:
            break
        bits = row & pivots
        while bits:
            b = bits & -bits
            row ^= vecs[index[b]]
            bits ^= b
        if row:
            p = row & -row
            if seen & p:
                vecs = [v ^ row if v & p else v for v in vecs]
            seen |= row
            index[p] = len(vecs)
            vecs.append(row)
            pivots |= p
    return {p: vecs[i] for p, i in index.items()}


def rref_rows(rows: Iterable[int], ncols: int) -> tuple[list[int], int, tuple[int, ...]]:
    """Reduced row echelon form. Returns (rows, rank, pivot_columns).

    A row's pivot is its lowest set bit, and the RREF is unique. Zero rows
    are kept at the bottom so len(rows) is preserved.
    """
    work = list(rows)
    basis = _rref_basis(work, ncols)
    lows = sorted(basis)
    red = [basis[low] for low in lows]
    pivots = tuple(low.bit_length() - 1 for low in lows)
    return red + [0] * (len(work) - len(red)), len(red), pivots


def rank_of_rows(rows: Iterable[int], ncols: int) -> int:
    return len(_rref_basis(list(rows), ncols))


def kernel_basis_of_rows(rows: Iterable[int], ncols: int) -> list[int]:
    """Basis of {x : parity(row & x) = 0 for every row}.

    One basis vector per free column, in increasing free-column order; basis
    vector for free column c has bit c set and bits only at pivot columns
    otherwise. This canonical shape is relied on by the subspace code.
    """
    red, _, pivots = rref_rows(rows, ncols)
    free = sorted(set(range(ncols)).difference(pivots))
    return [(1 << c) | sum(1 << p for row, p in zip(red, pivots) if row >> c & 1) for c in free]


class F2Matrix:
    """Immutable bit matrix; rows is a tuple of int masks."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Sequence[int], ncols: int):
        rows = tuple(int(r) for r in rows)
        if ncols < 0:
            raise ValueError("ncols must be >= 0")
        for r in rows:
            if r < 0 or r >> ncols:
                raise ValueError(f"row mask {r:#x} does not fit in {ncols} columns")
        self.rows = rows
        self.ncols = ncols

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls([1 << i for i in range(n)], n)

    @classmethod
    def from_entries(cls, entries: Sequence[Sequence[int]]) -> "F2Matrix":
        ncols = len(entries[0]) if entries else 0
        rows = []
        for e in entries:
            if len(e) != ncols:
                raise DimensionMismatchError(f"row of length {len(e)} in a matrix of {ncols} columns")
            rows.append(sum((bit & 1) << j for j, bit in enumerate(e)))
        return cls(rows, ncols)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, F2Matrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        body = ", ".join(format(r, f"0{max(self.ncols, 1)}b")[::-1] for r in self.rows)
        return f"F2Matrix([{body}], ncols={self.ncols})"

    def apply(self, x: int) -> int:
        """y with bit i = parity(rows[i] & x); the product M x (x a column vector)."""
        y = 0
        for i, row in enumerate(self.rows):
            y |= parity(row & x) << i
        return y

    def transpose(self) -> "F2Matrix":
        cols = []
        for j in range(self.ncols):
            m = 0
            for i, row in enumerate(self.rows):
                m |= ((row >> j) & 1) << i
            cols.append(m)
        return F2Matrix(cols, self.nrows)

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.ncols != other.nrows:
            raise DimensionMismatchError("dimension mismatch in matrix product")
        out = []
        for row in self.rows:
            acc = 0
            j = 0
            while row:
                if row & 1:
                    acc ^= other.rows[j]
                row >>= 1
                j += 1
            out.append(acc)
        return F2Matrix(out, other.ncols)

    def rank(self) -> int:
        return rank_of_rows(self.rows, self.ncols)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.ncols

    def inverse(self) -> "F2Matrix":
        n = self.ncols
        if self.nrows != n:
            raise SingularMatrixError("matrix is not square")
        # reduce [M | I], rows of width 2n: M is invertible iff its n columns
        # are the pivots, and then the right half holds M^-1
        aug = [row | (1 << (n + i)) for i, row in enumerate(self.rows)]
        work, _, pivots = rref_rows(aug, 2 * n)
        if pivots != tuple(range(n)):
            raise SingularMatrixError("matrix is singular")
        return F2Matrix([w >> n for w in work], n)

    def solve(self, b: int) -> Optional[int]:
        """One x with parity(rows[i] & x) = bit i of b, or None if inconsistent."""
        # reduce [M | b], b carried in column ncols: a pivot there is 0 = 1
        c = self.ncols
        aug = [row | (((b >> i) & 1) << c) for i, row in enumerate(self.rows)]
        work, _, pivots = rref_rows(aug, c + 1)
        if c in pivots:
            return None
        x = 0
        for row, p in zip(work, pivots):
            x |= ((row >> c) & 1) << p
        return x


def random_invertible(n: int, seed: Optional[int] = None, *, rng: Optional[random.Random] = None) -> F2Matrix:
    """Uniform invertible n x n matrix by rejection sampling of random rows."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if rng is None:
        rng = random.Random(seed)
    while True:
        rows = [rng.getrandbits(n) for _ in range(n)]
        if rank_of_rows(rows, n) == n:
            return F2Matrix(rows, n)
