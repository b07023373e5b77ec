"""Linear and affine subspaces of F_2^n, and restriction of functions to them.

An affine subspace of co-dimension k is stored by its annihilator: k
independent linear forms in reduced row echelon form (each form an int mask,
bit j-1 <-> variable x_j), with one constant per form. This representative is
canonical, so equality of subspaces is tuple equality of their forms and
constants. A linear subspace is the affine subspace with zero constants:
LinearSubspace is the AffineSubspace whose consts is fixed at 0.

Enumeration visits the [n k]_2 codim-k subspaces in one canonical order:
lexicographic in the pivot combinations, then by the free-bit integer g.
Row i has a free slot at every non-pivot column above its pivot, and bit j
of g fills the j-th slot, slots taken row-major with columns ascending.

A subspace is named by its position in this order: codim_rank computes it
from the forms and codim_unrank decodes forms from it, both from one small
cached table (_rank_table). The enumerations decode consecutive positions,
and a scan carries positions and builds forms only for the spaces it
reports. The spaces whose pivots all exceed p are a suffix of the order,
the last [n-p-1 k]_2; the scan engine builds each co-dimension's
restrictions from those suffixes of the one below.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from . import f2
from .anf import ANF
from .bits import mask_to_vars, parity_table, xor_points
from .counting import gaussian_binomial
from .errors import (
    AnfSyntaxError,
    DegstabError,
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

# The points of an enumerated space are uint32 masks (AffineSubspace.points).
MAX_ENUM_VARS = 32
_INT64_MAX = (1 << 63) - 1
_CHUNK = 8192  # spaces per iter_codim_chunks chunk


def count_codim(n: int, k: int) -> int:
    return gaussian_binomial(n, k)


def _check_codim(n: int, k: int) -> None:
    if not 0 <= n <= MAX_ENUM_VARS:
        raise EnumerationRangeError(
            f"subspace enumeration supports 0 <= n <= {MAX_ENUM_VARS}, got n={n}"
        )
    if not 0 <= k <= n:
        raise EnumerationRangeError(f"co-dimension must lie in 0..n={n}, got {k}")


def enumerate_codim(n: int, k: int) -> Iterator[LinearSubspace]:
    """All linear subspaces of co-dimension k, canonical order; [n k]_2 of
    them. Bad arguments raise here, not on first next()."""
    chunks = iter_codim_chunks(n, k)
    return (LinearSubspace(n, tuple(row)) for forms in chunks for row in forms.tolist())


def iter_codim_chunks(n: int, k: int) -> Iterator[np.ndarray]:
    """Stream the RREF forms of all codim-k subspaces, chunked.

    Yields (len, k) int64 arrays, one row per subspace, each the
    codim_unrank of the next _CHUNK positions; every chunk but the last
    has _CHUNK rows. Order matches enumerate_codim. Bad arguments raise
    here, not on first next().
    """
    _check_codim(n, k)
    end = count_codim(n, k)
    return (codim_unrank(n, k, np.arange(s, min(s + _CHUNK, end))) for s in range(0, end, _CHUNK))


_CACHE_LIMIT = 250_000


@lru_cache(maxsize=16)
def materialized_codim(n: int, k: int) -> np.ndarray:
    """Cached full enumeration for small [n k]_2: the codim_unrank of every
    position, as one read-only array shaped like an iter_codim_chunks chunk."""
    _check_codim(n, k)
    if count_codim(n, k) > _CACHE_LIMIT:
        raise EnumerationRangeError(
            f"{count_codim(n, k)} subspaces of co-dimension {k} in F_2^{n} exceed"
            f" the cache limit {_CACHE_LIMIT}; stream them with iter_codim_chunks"
        )
    forms = codim_unrank(n, k, np.arange(count_codim(n, k)))
    forms.setflags(write=False)
    return forms


def _int64s(name: str, values, error: type[DegstabError]) -> np.ndarray:
    """values as an int64 array, int64 input not copied; non-integer values
    and values outside int64 raise error, naming the argument."""
    a = np.asarray(values)
    if a.size and (a.dtype.kind not in "iu" or a.dtype == np.uint64 and a.max() > _INT64_MAX):
        raise error(f"{name} must be integers that fit int64, got {a.dtype} values")
    return a.astype(np.int64, copy=False)


@lru_cache(maxsize=None)
def _rank_table(n: int, k: int) -> np.ndarray:
    """off[b, c, p], b <= k and c, p <= n: the number of codim-b subspaces on
    the columns >= c whose first pivot lies below p. A first pivot q leaves
    n - b - q free slots in its row and a codim-(b-1) space above it, so
    that is the sum of 2**(n-b-q) [n-q-1 b-1]_2 over c <= q < p. Entries
    are clipped at 2**63 - 1, which no position below it reaches."""
    off = np.zeros((k + 1, n + 1, n + 1), dtype=np.int64)
    for b in range(1, k + 1):
        first = [q <= n - b and count_codim(n - q - 1, b - 1) << (n - b - q) for q in range(n)]
        ends = list(itertools.accumulate(first, initial=0))
        for c in range(n + 1):
            off[b, c, c:] = [min(end - ends[c], _INT64_MAX) for end in ends[c:]]
    off.setflags(write=False)
    return off


def codim_rank(n: int, forms) -> np.ndarray:
    """Position of each codim-k subspace in the canonical order, vectorized.

    `forms` has shape (..., k): the RREF annihilator rows of each subspace,
    in any row order. With pivots p_i, g_i row i's free bits, S_i the slots
    of the rows before it and p_-1 = -1, the rank is the sum over i of
    (off[k-i, p_(i-1) + 1, p_i] + g_i) * 2**S_i (_rank_table).
    Returns an int64 array of shape (...). Ranks run below [n k]_2; a
    co-dimension whose [n k]_2 does not fit int64 raises.
    """
    forms = _int64s("forms", forms, VariableIndexError)
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
    pivot_mask = np.zeros(len(flat), dtype=np.int64)
    for column in low.T:
        pivot_mask |= column
    if ((flat & pivot_mask[:, None]) != low).any() or (np.bitwise_count(pivot_mask) != k).any():
        raise EnumerationRangeError("forms are not the RREF annihilator of a codim-k subspace")
    return _rank(n, flat, piv).reshape(forms.shape[:-1])


def _rank(n: int, rows: np.ndarray, piv: np.ndarray) -> np.ndarray:
    """codim_rank's arithmetic, unchecked: the positions of the spaces whose
    RREF annihilator rows, sorted by pivot, are the int64 rows of `rows`
    (shape (N, k)), with the pivot columns `piv` (int64, same shape)."""
    k = rows.shape[1]
    off = _rank_table(n, k)
    rank = np.zeros(len(rows), dtype=np.int64)
    shift = lo = 0
    for i in range(k):
        p = piv[:, i]
        # g_i: the bits above p_i, less the (zero) columns of the later
        # pivots, removed from the top down
        v = rows[:, i] >> (p + 1)
        for j in range(k - 1, i, -1):
            below = (np.int64(1) << (piv[:, j] - p - 1)) - 1
            v = (v & below) | ((v >> 1) & ~below)
        rank += (off[k - i].take(lo * (n + 1) + p) + v) << shift
        shift += n - k + i - p
        lo = p + 1
    return rank


def codim_unrank(n: int, k: int, ranks) -> np.ndarray:
    """The RREF forms at positions `ranks` of the canonical codim-k order,
    as an int64 array of shape ranks.shape + (k,): codim_rank's inverse,
    peeling off its terms row by row. Positions run below [n k]_2 and
    2**63 - 1, so the first spaces past the int64 limit decode too."""
    _check_codim(n, k)
    ranks = _int64s("ranks", ranks, EnumerationRangeError)
    flat = ranks.reshape(-1)
    end = min(count_codim(n, k), _INT64_MAX)
    if ((flat < 0) | (flat >= end)).any():
        raise EnumerationRangeError(f"ranks of codim-{k} subspaces of F_2^{n} lie in 0..{end - 1}")
    off = _rank_table(n, k)
    forms = np.empty((len(flat), k), dtype=np.int64)
    rest, lo = flat.copy(), 0
    for i in range(k):
        p = np.count_nonzero(off[k - i, lo] <= rest[:, None], axis=1) - 1
        rest -= off[k - i].take(lo * (n + 1) + p)
        # a zero column at p in the rows before, codim_rank's removal undone
        below = (np.int64(1) << p[:, None]) - 1
        forms[:, :i] = (forms[:, :i] & below) | ((forms[:, :i] & ~below) << 1)
        slots = n - k + i - p
        forms[:, i] = (np.int64(1) << p) | ((rest & ((np.int64(1) << slots) - 1)) << (p + 1))
        rest >>= slots
        lo = p + 1
    return forms.reshape(ranks.shape + (k,))


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
