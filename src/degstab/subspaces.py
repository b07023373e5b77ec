"""Linear and affine subspaces of F_2^n, and restriction of functions to them.

A subspace of co-dimension k is stored by its annihilator: k independent
linear forms in reduced row echelon form (each form an int mask, bit j-1 <->
variable x_j). This representative is canonical, so equality of subspaces is
tuple equality of their forms.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from . import f2
from .anf import ANF
from .bits import mask_to_vars, parity_table, xor_points
from .counting import gaussian_binomial
from .errors import AnfSyntaxError, VariableIndexError


def _canonical_forms(forms: Sequence[int], n: int) -> tuple[int, ...]:
    rows, rank, _ = f2.rref_rows(forms, n)
    return tuple(rows[:rank])


@dataclass(frozen=True)
class LinearSubspace:
    """Solution set of `forms . x = 0`; forms are canonical (RREF, full rank)."""

    n: int
    forms: tuple[int, ...]

    @classmethod
    def from_forms(cls, n: int, forms: Sequence[int]) -> "LinearSubspace":
        for a in forms:
            if a < 0 or a >> n:
                raise VariableIndexError(f"form mask {a:#x} does not fit n={n}")
        return cls(n, _canonical_forms(forms, n))

    @classmethod
    def hyperplane(cls, n: int, normal: int) -> "LinearSubspace":
        if normal == 0:
            raise ValueError("hyperplane normal must be nonzero")
        return cls.from_forms(n, [normal])

    @property
    def codim(self) -> int:
        return len(self.forms)

    @property
    def dim(self) -> int:
        return self.n - len(self.forms)

    def solution_basis(self) -> list[int]:
        return f2.kernel_basis_of_rows(self.forms, self.n)

    def offset(self) -> int:
        return 0

    def contains_point(self, x: int) -> bool:
        return all((a & x).bit_count() % 2 == 0 for a in self.forms)

    def points(self) -> np.ndarray:
        return xor_points(self.solution_basis())

    def to_text(self) -> str:
        return format_subspace(self)

    def __str__(self) -> str:
        return self.to_text()


@dataclass(frozen=True)
class AffineSubspace:
    """Solution set of `forms . x = consts`; bit i of consts pairs with forms[i].

    Canonicalised jointly, so equal affine subspaces compare equal. The all-of-
    F_2^n case is forms=() with consts=0.
    """

    n: int
    forms: tuple[int, ...]
    consts: int

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
        return cls(n, out_forms, out_consts)

    @classmethod
    def linear(cls, v: LinearSubspace) -> "AffineSubspace":
        return cls(v.n, v.forms, 0)

    @property
    def codim(self) -> int:
        return len(self.forms)

    @property
    def dim(self) -> int:
        return self.n - len(self.forms)

    @property
    def underlying(self) -> LinearSubspace:
        return LinearSubspace(self.n, self.forms)

    def solution_basis(self) -> list[int]:
        return f2.kernel_basis_of_rows(self.forms, self.n)

    def offset(self) -> int:
        """Particular solution; bits at pivot columns copy the constants."""
        rows, rank, pivots = f2.rref_rows(self.forms, self.n)
        v = 0
        for i, p in enumerate(pivots):
            v |= ((self.consts >> i) & 1) << p
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


Subspace = LinearSubspace | AffineSubspace


def _as_affine(space: Subspace) -> AffineSubspace:
    if isinstance(space, LinearSubspace):
        return AffineSubspace.linear(space)
    return space


def contains(inner: Subspace, outer: Subspace) -> bool:
    """True iff inner is a subset of outer.

    Subset-ness means every constraint of `outer` is implied by the
    constraints of `inner` (smaller space = more constraints).
    """
    vi, vo = _as_affine(inner), _as_affine(outer)
    if vi.n != vo.n:
        raise ValueError("subspaces live in different dimensions")
    n = vi.n
    aug_inner = [a | (((vi.consts >> i) & 1) << n) for i, a in enumerate(vi.forms)]
    aug_outer = [a | (((vo.consts >> i) & 1) << n) for i, a in enumerate(vo.forms)]
    base = f2.rank_of_rows(aug_inner, n + 1)
    return f2.rank_of_rows(aug_inner + aug_outer, n + 1) == base


def restrict(func: ANF, space: Subspace) -> ANF:
    """Restriction of func to the subspace, as an ANF on dim(space) variables.

    The j-th new variable is the coefficient of the j-th canonical solution
    basis vector (increasing free-column order of the annihilator's RREF), so
    for an annihilator solved as x_pivot = linear combination of free
    variables this is literally that substitution with the free variables
    renumbered 1..dim in increasing order.
    """
    aff = _as_affine(space)
    if func.n != aff.n:
        raise ValueError(f"function on {func.n} variables, subspace in {aff.n}")
    return ANF.from_truth_table(func.truth_table()[aff.points()])


def indicator(space: Subspace) -> ANF:
    """Characteristic function of the subspace; degree is exactly its codim."""
    aff = _as_affine(space)
    n = aff.n
    par = parity_table(n)
    x = np.arange(1 << n, dtype=np.uint32)
    tt = np.ones(1 << n, dtype=np.uint8)
    for i, a in enumerate(aff.forms):
        tt &= par[x & np.uint32(a)] == ((aff.consts >> i) & 1)
    return ANF.from_truth_table(tt)


# -- enumeration -----------------------------------------------------------


def count_codim(n: int, k: int) -> int:
    return gaussian_binomial(n, k)


def _free_positions(n: int, pivots: tuple[int, ...]) -> list[tuple[int, int]]:
    """(row, column) slots that may hold free bits, row-major, columns ascending."""
    pivot_set = set(pivots)
    slots = []
    for i, p in enumerate(pivots):
        for c in range(p + 1, n):
            if c not in pivot_set:
                slots.append((i, c))
    return slots


def _iter_rref_forms(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All canonical k x n RREF annihilator matrices, deterministic order:

    pivot-column combinations lexicographically, then free-bit assignments in
    increasing binary order (bits filled row-major, columns ascending).
    """
    if k == 0:
        yield ()
        return
    if k < 0 or k > n:
        raise ValueError(f"codimension {k} out of range for n={n}")
    for pivots in itertools.combinations(range(n), k):
        base = [1 << p for p in pivots]
        slots = _free_positions(n, pivots)
        nslots = len(slots)
        for g in range(1 << nslots):
            rows = base.copy()
            gg = g
            while gg:
                j = (gg & -gg).bit_length() - 1
                i, c = slots[j]
                rows[i] |= 1 << c
                gg &= gg - 1
            yield tuple(rows)


def _kernel_from_rref(n: int, pivots: tuple[int, ...], rows: tuple[int, ...]) -> list[int]:
    # same result as f2.kernel_basis_of_rows but skips re-reducing
    pivot_set = set(pivots)
    basis = []
    for c in range(n):
        if c in pivot_set:
            continue
        v = 1 << c
        for i, p in enumerate(pivots):
            if (rows[i] >> c) & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def enumerate_codim(n: int, k: int) -> Iterator[LinearSubspace]:
    """All linear subspaces of co-dimension k, canonical order; [n k]_2 of them."""
    for rows in _iter_rref_forms(n, k):
        yield LinearSubspace(n, rows)


def iter_codim_chunks(
    n: int, k: int, chunk_size: int = 8192
) -> Iterator[tuple[list[tuple[int, ...]], np.ndarray]]:
    """Stream (forms, solution bases) over all codim-k subspaces, chunked.

    Yields lists of forms tuples together with a (len, n-k) uint32 array of
    the matching canonical solution bases. Order matches enumerate_codim.
    """
    forms_buf: list[tuple[int, ...]] = []
    bases_buf: list[list[int]] = []
    for rows in _iter_rref_forms(n, k):
        pivots = tuple((r & -r).bit_length() - 1 for r in rows)
        forms_buf.append(rows)
        bases_buf.append(_kernel_from_rref(n, pivots, rows))
        if len(forms_buf) >= chunk_size:
            yield forms_buf, np.array(bases_buf, dtype=np.uint32).reshape(len(forms_buf), n - k)
            forms_buf, bases_buf = [], []
    if forms_buf:
        yield forms_buf, np.array(bases_buf, dtype=np.uint32).reshape(len(forms_buf), n - k)


_CACHE_LIMIT = 250_000


@lru_cache(maxsize=16)
def materialized_codim(n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], np.ndarray]:
    """Cached full enumeration for small [n k]_2; used by the scan engine."""
    if count_codim(n, k) > _CACHE_LIMIT:
        raise ValueError(
            f"{count_codim(n, k)} subspaces of co-dimension {k} in F_2^{n} exceed"
            f" the cache limit {_CACHE_LIMIT}; stream them with iter_codim_chunks"
        )
    all_forms: list[tuple[int, ...]] = []
    arrays = []
    for forms, bases in iter_codim_chunks(n, k, chunk_size=1 << 15):
        all_forms.extend(forms)
        arrays.append(bases)
    bases = np.concatenate(arrays, axis=0) if arrays else np.zeros((0, n - k), np.uint32)
    bases.setflags(write=False)
    return tuple(all_forms), bases


# -- text form ---------------------------------------------------------------


def format_subspace(space: Subspace) -> str:
    """Equation list like "x1+x2=0; x3=1"."""
    aff = _as_affine(space)
    if not aff.forms:
        return "0=0"
    eqs = []
    for i, a in enumerate(aff.forms):
        lhs = "+".join(f"x{v}" for v in mask_to_vars(a))
        eqs.append(f"{lhs}={(aff.consts >> i) & 1}")
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
