"""Linear and affine subspaces of F_2^n, and restriction of functions to them.

An affine subspace of co-dimension k is stored by its annihilator: k
independent linear forms in reduced row echelon form (each form an int mask,
bit j-1 <-> variable x_j), with one constant per form. This representative is
canonical, so equality of subspaces is tuple equality of their forms and
constants. A linear subspace is the affine subspace with zero constants:
LinearSubspace is the AffineSubspace whose consts is fixed at 0.

Enumeration visits the [n k]_2 codim-k subspaces in one canonical order,
numpy block by block. A pivot block holds the RREF forms with one pivot
combination; blocks come in lexicographic order of the combinations. Inside
a block, row i has a free slot at every non-pivot column above its pivot,
and a form is named by its free-bit integer g: bit j of g fills the j-th
slot, slots taken row-major with columns ascending. The block's forms and
solution bases are built at once by scattering the bits of arange(2**slots)
into the slots, and blocks longer than the chunk size are split.

This order is rank order: codim_rank gives each subspace its position, the
offset of its pivot combination (the sizes of the blocks before it) plus
its free-bit integer. The profile's `new` step names subspaces by rank to
deduplicate them.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import f2
from .anf import ANF
from .bits import mask_to_vars, parity_table, xor_points
from .counting import gaussian_binomial
from .errors import (
    AnfSyntaxError,
    DimensionMismatchError,
    EnumerationRangeError,
    NotCanonicalError,
    VariableIndexError,
)


def _canonical_forms(forms: Sequence[int], n: int) -> tuple[int, ...]:
    rows, rank, _ = f2.rref_rows(forms, n)
    return tuple(rows[:rank])


@dataclass(frozen=True)
class AffineSubspace:
    """Solution set of `forms . x = consts`; bit i of consts pairs with forms[i].

    Canonicalised jointly, so equal affine subspaces compare equal. The all-of-
    F_2^n case is forms=() with consts=0.
    """

    n: int
    forms: tuple[int, ...]
    consts: int

    def __post_init__(self) -> None:
        # the RREF invariants that offset, points and equality rely on: the
        # pivots (lowest set bits) increase, no form has a bit at a later
        # form's pivot, and consts has one bit per form
        seen = pivot = 0
        for i, a in enumerate(self.forms):
            name = f"form {i} ({a:#x})"
            if a <= 0 or a >> self.n:
                raise VariableIndexError(f"{name} is not a nonzero mask of n={self.n} bits")
            if a & -a <= pivot:
                raise NotCanonicalError(f"{name} does not pivot above the form before it")
            pivot = a & -a
            if seen & pivot:
                raise NotCanonicalError(f"{name} pivots on a column an earlier form uses")
            seen |= a
        if self.consts < 0 or self.consts >> len(self.forms):
            raise NotCanonicalError(
                f"consts {self.consts:#x} has bits beyond its {len(self.forms)} forms"
            )

    @classmethod
    def from_equations(cls, n: int, forms: Sequence[int], consts: Sequence[int] | int) -> "AffineSubspace":
        forms = [int(a) for a in forms]
        if isinstance(consts, int):
            bvec = [(consts >> i) & 1 for i in range(len(forms))]
        else:
            bvec = [int(b) & 1 for b in consts]
        if len(bvec) != len(forms):
            raise ValueError("need one constant per form")
        for a in forms:
            if a < 0 or a >> n:
                raise VariableIndexError(f"form mask {a:#x} does not fit n={n}")
        # joint RREF of the augmented system, constants carried in bit n
        aug = [a | (b << n) for a, b in zip(forms, bvec)]
        rows, rank, _ = f2.rref_rows(aug, n + 1)
        rows = rows[:rank]
        mask = (1 << n) - 1
        if any(r & mask == 0 for r in rows):
            raise ValueError("inconsistent equations define an empty set")
        out_forms = tuple(r & mask for r in rows)
        out_consts = 0
        for i, r in enumerate(rows):
            out_consts |= (r >> n) << i
        return AffineSubspace(n, out_forms, out_consts)

    @property
    def codim(self) -> int:
        return len(self.forms)

    @property
    def dim(self) -> int:
        return self.n - len(self.forms)

    @property
    def underlying(self) -> "LinearSubspace":
        return LinearSubspace(self.n, self.forms)

    def solution_basis(self) -> list[int]:
        return f2.kernel_basis_of_rows(self.forms, self.n)

    def offset(self) -> int:
        """Particular solution; bits at pivot columns copy the constants.

        The forms are in RREF, so form i's pivot is its lowest set bit."""
        v = 0
        for i, a in enumerate(self.forms):
            if (self.consts >> i) & 1:
                v |= a & -a
        return v

    def contains_point(self, x: int) -> bool:
        return all(
            (a & x).bit_count() % 2 == ((self.consts >> i) & 1)
            for i, a in enumerate(self.forms)
        )

    def points(self) -> np.ndarray:
        return xor_points(self.solution_basis()) ^ np.uint32(self.offset())

    def to_text(self) -> str:
        return format_subspace(self)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class LinearSubspace(AffineSubspace):
    """Solution set of `forms . x = 0`, the zero-constant affine subspace;
    forms are canonical (RREF, full rank)."""

    consts: int = field(default=0, init=False, repr=False)

    @classmethod
    def from_forms(cls, n: int, forms: Sequence[int]) -> "LinearSubspace":
        return cls(n, AffineSubspace.from_equations(n, forms, 0).forms)

    @classmethod
    def hyperplane(cls, n: int, normal: int) -> "LinearSubspace":
        if normal == 0:
            raise ValueError("hyperplane normal must be nonzero")
        return cls.from_forms(n, [normal])


def contains(inner: AffineSubspace, outer: AffineSubspace) -> bool:
    """True iff inner is a subset of outer.

    Subset-ness means every constraint of `outer` is implied by the
    constraints of `inner` (smaller space = more constraints).
    """
    if inner.n != outer.n:
        raise DimensionMismatchError(f"subspaces in {inner.n} and {outer.n} variables")
    n = inner.n
    aug_inner = [a | (((inner.consts >> i) & 1) << n) for i, a in enumerate(inner.forms)]
    aug_outer = [a | (((outer.consts >> i) & 1) << n) for i, a in enumerate(outer.forms)]
    base = f2.rank_of_rows(aug_inner, n + 1)
    return f2.rank_of_rows(aug_inner + aug_outer, n + 1) == base


def restrict(func: ANF, space: AffineSubspace) -> ANF:
    """Restriction of func to the subspace, as an ANF on dim(space) variables.

    The j-th new variable is the coefficient of the j-th canonical solution
    basis vector (increasing free-column order of the annihilator's RREF), so
    for an annihilator solved as x_pivot = linear combination of free
    variables this is literally that substitution with the free variables
    renumbered 1..dim in increasing order.
    """
    if func.n != space.n:
        raise DimensionMismatchError(f"function on {func.n} variables, subspace in {space.n}")
    return ANF.from_truth_table(func.truth_table()[space.points()])


def indicator(space: AffineSubspace) -> ANF:
    """Characteristic function of the subspace; degree is exactly its codim."""
    n = space.n
    par = parity_table(n)
    x = np.arange(1 << n, dtype=np.uint32)
    tt = np.ones(1 << n, dtype=np.uint8)
    for i, a in enumerate(space.forms):
        tt &= par[x & np.uint32(a)] == ((space.consts >> i) & 1)
    return ANF.from_truth_table(tt)


# -- enumeration -----------------------------------------------------------

# Solution bases are uint32 point masks.
MAX_ENUM_VARS = 32
_INT64_MAX = (1 << 63) - 1


def count_codim(n: int, k: int) -> int:
    return gaussian_binomial(n, k)


def _check_codim(n: int, k: int) -> None:
    if not 0 <= n <= MAX_ENUM_VARS:
        raise EnumerationRangeError(
            f"subspace enumeration supports 0 <= n <= {MAX_ENUM_VARS}, got n={n}"
        )
    if not 0 <= k <= n:
        raise EnumerationRangeError(f"co-dimension must lie in 0..n={n}, got {k}")


# Pivot blocks are built in pieces of at least this many rows, so that tiny
# chunks (one row per chunk at m >= 19 in the scan engine) are cut from a
# shared piece instead of each paying some twenty numpy calls. A piece of
# forms and bases takes at most 1 MB.
_PIECE = 4096


def _pivot_blocks(n: int, k: int, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(forms, bases) of every codim-k subspace in canonical order, one pivot
    block at a time, blocks longer than size split into pieces.

    A pivot block holds the RREF forms with one pivot combination: row i is
    1 << pivots[i] plus free bits at the non-pivot columns above its pivot.
    Free-bit integer g sets those slots, bit j of g on the j-th slot taken
    row-major with columns ascending, so the block's rows run over
    g = 0 .. 2**slots - 1. The basis vector of free column c is 1 << c plus
    1 << pivots[i] for every row i with a free bit at c.
    """
    for pivots in itertools.combinations(range(n), k):
        free = [c for c in range(n) if c not in pivots]
        slots = [(i, c) for i, p in enumerate(pivots) for c in free if c > p]
        for start in range(0, 1 << len(slots), size):
            g = np.arange(start, min(1 << len(slots), start + size), dtype=np.int64)
            forms = np.empty((k, len(g)), dtype=np.int64)
            forms[:] = np.array([1 << p for p in pivots], dtype=np.int64)[:, None]
            bases = np.empty((n - k, len(g)), dtype=np.int64)
            bases[:] = np.array([1 << c for c in free], dtype=np.int64)[:, None]
            for j, (i, c) in enumerate(slots):
                bit = (g >> j) & 1
                forms[i] |= bit << c
                bases[free.index(c)] |= bit << pivots[i]
            yield forms.T, bases.T.astype(np.uint32)


@lru_cache(maxsize=None)
def _block_rows(n: int, k: int) -> tuple[int, ...]:
    """Rows of each pivot block, in canonical order: 2**slots, row i with
    pivot q having n - k + i - q free slots."""
    return tuple(
        1 << sum(n - k + i - q for i, q in enumerate(pivots))
        for pivots in itertools.combinations(range(n), k)
    )


def _chunks(n: int, k: int, chunk_size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pivot blocks regrouped into chunks of exactly chunk_size rows,
    the last one shorter."""
    blocks = _pivot_blocks(n, k, max(chunk_size, _PIECE))
    return _regroup(blocks, itertools.repeat(chunk_size))


def _regroup(
    pieces: Iterable[tuple[np.ndarray, np.ndarray]], sizes: Iterator[int]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(forms, bases) pieces, in order, regrouped into C-contiguous chunks
    whose lengths are read from sizes in turn, the last one shorter. A chunk
    that lies in one C-contiguous piece is a view of it."""
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    have = 0
    size = next(sizes)
    for forms, bases in pieces:
        while len(forms):
            take = min(len(forms), size - have)
            parts.append((forms[:take], bases[:take]))
            forms, bases = forms[take:], bases[take:]
            have += take
            if have == size:
                yield _join(parts)
                parts, have, size = [], 0, next(sizes)
    if parts:
        yield _join(parts)


def _join(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    if len(parts) == 1:
        forms, bases = parts[0]
        return np.ascontiguousarray(forms), np.ascontiguousarray(bases)
    forms = np.concatenate([f for f, _ in parts])
    bases = np.concatenate([b for _, b in parts])
    return forms, bases


def enumerate_codim(n: int, k: int) -> Iterator[LinearSubspace]:
    """All linear subspaces of co-dimension k, canonical order; [n k]_2 of
    them. Bad arguments raise here, not on first next()."""
    chunks = iter_codim_chunks(n, k)
    return (LinearSubspace(n, tuple(row)) for forms, _ in chunks for row in forms.tolist())


def iter_codim_chunks(
    n: int, k: int, chunk_size: int = 8192
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Stream (forms, solution bases) over all codim-k subspaces, chunked.

    Yields a (len, k) int64 array of RREF forms, one row per subspace,
    together with a (len, n-k) uint32 array of the matching canonical
    solution bases; every chunk but the last has chunk_size rows. Order
    matches enumerate_codim. Bad arguments raise here, not on first next().
    """
    _check_codim(n, k)
    if chunk_size < 1:
        raise EnumerationRangeError(f"chunk_size must be at least 1, got {chunk_size}")
    return _chunks(n, k, chunk_size)


_CACHE_LIMIT = 250_000


@lru_cache(maxsize=16)
def materialized_codim(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached full enumeration for small [n k]_2, as read-only (forms, bases)
    arrays shaped like one iter_codim_chunks chunk; used by the scan engine."""
    _check_codim(n, k)
    if count_codim(n, k) > _CACHE_LIMIT:
        raise EnumerationRangeError(
            f"{count_codim(n, k)} subspaces of co-dimension {k} in F_2^{n} exceed"
            f" the cache limit {_CACHE_LIMIT}; stream them with iter_codim_chunks"
        )
    forms, bases = next(_chunks(n, k, count_codim(n, k)))
    forms.setflags(write=False)
    bases.setflags(write=False)
    return forms, bases


@lru_cache(maxsize=None)
def _pivot_offsets(n: int, k: int) -> np.ndarray:
    """(k, n + 1) int64 table for codim_rank: entry [i, x] sums, over the
    pivots q < x of row i, the ways to fill rows i..k-1, free bits included,
    with row i's pivot at q.

    Row i with pivot q has n - k + i - q free slots. The forms whose pivot
    combination comes before a form's with pivots p, and first differs from
    it at row i, number table[i, p_i] - table[i, p_(i-1) + 1] times 2 to the
    free slots of rows 0..i-1.
    """
    table = np.zeros((k, n + 1), dtype=np.int64)
    after = [1] * (n + 1)  # after[q + 1]: ways to fill the later rows above pivot q
    for i in range(k - 1, -1, -1):
        # row i's pivot q lies in i .. n - k + i: rows 0..i-1 need i columns
        # below it and rows i+1..k-1 need k - 1 - i above it
        weights = [
            (1 << (n - k + i - q)) * after[q + 1] if i <= q <= n - k + i else 0
            for q in range(n)
        ]
        prefix = list(itertools.accumulate(weights, initial=0))
        table[i] = prefix
        after = [prefix[n] - prefix[t] for t in range(n + 1)]
    return table


def codim_rank(n: int, forms) -> np.ndarray:
    """Position of each codim-k subspace in the canonical order, vectorized.

    `forms` has shape (..., k): the RREF annihilator rows of each subspace,
    in any row order. The rank is the offset of the forms' pivot combination
    (the number of subspaces in the pivot blocks before it, which come
    lexicographically first) plus their free-bit integer, so
    codim_rank(n, chunk forms) over a whole enumeration is 0, 1, 2, ...
    Returns an int64 array of shape (...). Ranks run below [n k]_2; a
    co-dimension whose [n k]_2 does not fit int64 raises.
    """
    forms = np.asarray(forms, dtype=np.int64)
    if forms.ndim < 1:
        raise EnumerationRangeError("forms need a last axis of length k")
    k = forms.shape[-1]
    _check_codim(n, k)
    if count_codim(n, k) > _INT64_MAX:
        raise EnumerationRangeError(
            f"[{n} {k}]_2 = {count_codim(n, k)} subspaces exceed the int64 rank"
            f" limit 2**63 - 1"
        )
    flat = forms.reshape(math.prod(forms.shape[:-1]), k)
    if ((flat <= 0) | (flat >> n != 0)).any():
        raise VariableIndexError(f"forms must be nonzero masks of n={n} bits")
    # sort each subspace's rows by pivot (lowest set bit)
    keyed = np.sort(np.bitwise_count((flat & -flat) - 1).astype(np.int64) << n | flat, axis=1)
    piv = keyed >> n
    flat = keyed & ((1 << n) - 1)
    low = np.int64(1) << piv
    pivot_mask = np.bitwise_or.reduce(low, axis=1)
    if ((flat & pivot_mask[:, None]) != low).any() or (np.bitwise_count(pivot_mask) != k).any():
        raise EnumerationRangeError("forms are not the RREF annihilator of a codim-k subspace")
    table = _pivot_offsets(n, k)
    rank = np.zeros(len(flat), dtype=np.int64)
    shift = np.zeros(len(flat), dtype=np.int64)
    lower = np.zeros(len(flat), dtype=np.int64)  # previous pivot + 1
    for i in range(k):
        p = piv[:, i]
        rank += (table[i, p] - table[i, lower]) << shift
        # free bits of row i: the bits above its pivot, less the (zero)
        # columns of the later pivots, removed from the top down
        v = flat[:, i] >> (p + 1)
        for j in range(k - 1, i, -1):
            below = (np.int64(1) << (piv[:, j] - p - 1)) - 1
            v = (v & below) | ((v >> 1) & ~below)
        rank += v << shift
        shift += n - k + i - p
        lower = p + 1
    return rank.reshape(forms.shape[:-1])


# -- text form ---------------------------------------------------------------


def format_subspace(space: AffineSubspace) -> str:
    """Equation list like "x1+x2=0; x3=1"."""
    if not space.forms:
        return "0=0"
    eqs = []
    for i, a in enumerate(space.forms):
        lhs = "+".join(f"x{v}" for v in mask_to_vars(a))
        eqs.append(f"{lhs}={(space.consts >> i) & 1}")
    return "; ".join(eqs)


def parse_subspace(text: str, n: int) -> AffineSubspace:
    """Inverse of format_subspace; accepts any equation list over x1..xn."""
    forms = []
    consts = []
    for eq in text.split(";"):
        eq = re.sub(r"\s+", "", eq)
        if not eq:
            continue
        m = re.fullmatch(r"((?:x[0-9]+)(?:\+x[0-9]+)*)=([01])", eq)
        if not m:
            if eq == "0=0":
                continue
            raise AnfSyntaxError(f"bad subspace equation {eq!r}")
        mask = 0
        for part in m.group(1).split("+"):
            v = int(part[1:])
            if v < 1 or v > n:
                raise VariableIndexError(f"variable x{v} out of range for n={n}")
            mask ^= 1 << (v - 1)  # x1+x1 cancels
        if mask == 0:
            if m.group(2) == "1":
                raise ValueError("inconsistent equation 0=1")
            continue
        forms.append(mask)
        consts.append(int(m.group(2)))
    return AffineSubspace.from_equations(n, forms, consts)
