"""Independent reference implementations used to cross-check the package.

Everything here is deliberately slow and simple: direct monomial
evaluation, textbook subset-sum coefficient extraction, symbolic
substitution over sets of monomials, and span enumeration by brute
force. The two numpy routines build whole ANF rows of restrictions, batched
so that whole scans at n = 9..12 can be checked: gathered_rows by the
truth-table gather and Moebius transform, and substituted_rows by one-pivot
substitution on full rows, where the scan engine carries only the weight-r
part. Nothing is shared with the code under test; monomials are plain integer masks with bit i-1 standing for
variable x_i.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np


# -- truth tables and coefficients -------------------------------------------


def eval_monomials(monomials: Iterable[int], x: int) -> int:
    value = 0
    for m in monomials:
        if x & m == m:
            value ^= 1
    return value


def truth_table(n: int, monomials: Iterable[int]) -> list[int]:
    ms = list(monomials)
    return [eval_monomials(ms, x) for x in range(1 << n)]


def coefficients(n: int, tt: Sequence[int]) -> set[int]:
    """Monomial masks of the polynomial, one coefficient at a time.

    The coefficient of x^S is the XOR of f over all points below S.
    """
    coeffs = set()
    for s in range(1 << n):
        acc = 0
        x = s
        while True:
            acc ^= tt[x]
            if x == 0:
                break
            x = (x - 1) & s
        if acc:
            coeffs.add(s)
    return coeffs


def degree_of_monomials(monomials: Iterable[int]) -> Optional[int]:
    ms = list(monomials)
    if not ms:
        return None
    return max(m.bit_count() for m in ms)


def degree_of_tt(n: int, tt: Sequence[int]) -> Optional[int]:
    return degree_of_monomials(coefficients(n, tt))


def derivative_tt(tt: Sequence[int], a: int) -> list[int]:
    return [tt[x ^ a] ^ tt[x] for x in range(len(tt))]


def complement_monomials(n: int, monomials: Iterable[int]) -> set[int]:
    full = (1 << n) - 1
    return {full & ~m for m in monomials}


# -- tiny GF(2) linear algebra -------------------------------------------------


def f2_rank(rows: Iterable[int]) -> int:
    pivots: list[int] = []
    for row in rows:
        for p in pivots:
            row = min(row, row ^ p)
        if row:
            pivots.append(row)
    return len(pivots)


def gauss_jordan(rows: Iterable[int], ncols: int) -> tuple[list[int], int, tuple[int, ...]]:
    """RREF column by column, each pivot the lowest set bit of its row:
    (rows with the zero rows at the bottom, rank, pivot columns)."""
    work = list(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        sel = None
        for i in range(r, len(work)):
            if (work[i] >> c) & 1:
                sel = i
                break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        for i in range(len(work)):
            if i != r and (work[i] >> c) & 1:
                work[i] ^= work[r]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, r, tuple(pivots)


def kernel_basis(rows: Iterable[int], ncols: int) -> list[int]:
    """Solution basis of the rows, one vector per free column, increasing."""
    red, rank, _ = gauss_jordan(rows, ncols)
    return _kernel_from_rref(ncols, red[:rank])


def canonical_kernel(n: int, conditions: Iterable[int]) -> tuple[int, ...]:
    """RREF basis of {a : parity(a & c) = 0 for every condition c}."""
    basis = kernel_basis(conditions, n)
    red, rank, _ = gauss_jordan(basis, n)
    return tuple(red[:rank])


def normal_conditions(n: int, monomials: Iterable[int]) -> list[int]:
    """Per degree-(r+1) monomial nu of l_a * f_r, the variables i in nu
    with nu - i in f_r."""
    conditions: dict[int, int] = {}
    for mu in monomials:
        for i in range(n):
            bit = 1 << i
            if not mu & bit:
                conditions[mu | bit] = conditions.get(mu | bit, 0) | bit
    return list(conditions.values())


def fast_point_conditions(n: int, monomials: Iterable[int]) -> list[int]:
    """Per degree-(r-1) monomial nu of sum a_i df_r/dx_i, the variables i
    outside nu with nu + i in f_r."""
    conditions: dict[int, int] = {}
    for mu in monomials:
        rest = mu
        while rest:
            bit = rest & -rest
            rest ^= bit
            conditions[mu ^ bit] = conditions.get(mu ^ bit, 0) | bit
    return list(conditions.values())


def dense_r_k(n: int, monomials: Sequence[int], k: int) -> int:
    """R_k with one row per degree-k monomial m over a column for each of
    the C(n, r + k) degree-(r + k) monomials: the products x^m * x^mu with
    disjoint masks, which never collide."""
    r = degree_of_monomials(monomials)
    domain = [sum(1 << v for v in c) for c in combinations(range(n), k)]
    codomain = {sum(1 << v for v in c): i for i, c in enumerate(combinations(range(n), r + k))}
    rows = []
    for m in domain:
        row = 0
        for mu in monomials:
            if mu & m == 0:
                row |= 1 << codomain[mu | m]
        rows.append(row)
    return len(domain) - gauss_jordan(rows, len(codomain))[1]


def span_set(rows: Iterable[int]) -> frozenset[int]:
    """All nonzero XOR combinations of the rows."""
    members = {0}
    for row in rows:
        members |= {m ^ row for m in members}
    members.discard(0)
    return frozenset(members)


def independent_rows(rows: Iterable[int]) -> list[int]:
    """A maximal independent subset of the rows, greedily in the given order."""
    out: list[int] = []
    for v in rows:
        if f2_rank(out + [v]) == len(out) + 1:
            out.append(v)
    return out


def hyperplane_spans(span: frozenset[int]) -> list[frozenset[int]]:
    """The subspaces of one dimension less inside a span: for a basis
    s_1..s_k and each nonzero c in F_2^k, the combinations sum b_i s_i with
    b . c = 0."""
    basis = independent_rows(sorted(span))
    combos = {b: 0 for b in range(1, 1 << len(basis))}
    for b in combos:
        for i, s in enumerate(basis):
            if b >> i & 1:
                combos[b] ^= s
    return [
        frozenset(v for b, v in combos.items() if (b & c).bit_count() % 2 == 0)
        for c in range(1, 1 << len(basis))
    ]


def new_count(drops: Iterable[frozenset[int]], parent_drops: set[frozenset[int]]) -> int:
    """Drop spans none of whose hyperplane spans is in parent_drops: the
    degree-drop spaces inside no degree-drop space of co-dimension one less."""
    return sum(1 for s in drops if not any(p in parent_drops for p in hyperplane_spans(s)))


def drop_profile(n: int, monomials: Sequence[int], k_max: int) -> list[tuple[int, int, int]]:
    """(codim, count, new) per co-dimension 1..k_max."""
    rows = []
    prev: set[frozenset[int]] = set()
    for k in range(1, k_max + 1):
        drops = degree_drop_spans(n, monomials, k)
        rows.append((k, len(drops), new_count(drops, prev)))
        prev = drops
    return rows


@lru_cache(maxsize=None)
def all_codim_spaces(n: int, k: int) -> list[frozenset[int]]:
    """Every co-dimension-k linear subspace of F_2^n, one span of
    annihilator forms per space: each k-dimensional span is a
    (k-1)-dimensional one plus a vector outside it."""
    if k == 0:
        return [frozenset()]
    seen = set()
    for span in all_codim_spaces(n, k - 1):
        for v in range(1, 1 << n):
            if v not in span:
                seen.add(span | {v} | {v ^ s for s in span})
    return sorted(seen, key=sorted)


# -- canonical enumeration order -----------------------------------------------


def _slots(n: int, pivots: Sequence[int]) -> list[tuple[int, int]]:
    """The (row, column) slots that may hold free bits, row-major."""
    return [(i, c) for i, p in enumerate(pivots) for c in range(p + 1, n) if c not in pivots]


def iter_rref_forms(n: int, k: int):
    """All canonical k x n RREF annihilator matrices, in the package's order:

    pivot-column combinations lexicographically, then free-bit assignments in
    increasing binary order (bits filled row-major, columns ascending).
    """
    for pivots in combinations(range(n), k):
        slots = _slots(n, pivots)
        for g in range(1 << len(slots)):
            rows = [1 << p for p in pivots]
            for j, (i, c) in enumerate(slots):
                if g >> j & 1:
                    rows[i] |= 1 << c
            yield tuple(rows)


def _kernel_from_rref(n: int, rows: Sequence[int]) -> list[int]:
    """Solution basis of an RREF annihilator: one vector per free column c,
    increasing, with bit c and the pivots of the rows that carry c."""
    pivots = [(r & -r).bit_length() - 1 for r in rows]
    basis = []
    for c in range(n):
        if c in pivots:
            continue
        v = 1 << c
        for r, p in zip(rows, pivots):
            if r >> c & 1:
                v |= 1 << p
        basis.append(v)
    return basis


def codim_rank(n: int, forms: Sequence[int]) -> int:
    """Position of the space with RREF annihilator rows `forms` (any row
    order) in the order of iter_rref_forms: the 2**slots of every earlier
    pivot combination, plus its free bits read slot by slot."""
    rows = sorted(forms, key=lambda a: a & -a)
    pivots = tuple((a & -a).bit_length() - 1 for a in rows)
    rank = 0
    for earlier in combinations(range(n), len(rows)):
        if earlier == pivots:
            break
        rank += 1 << len(_slots(n, earlier))
    for j, (i, c) in enumerate(_slots(n, pivots)):
        rank += (rows[i] >> c & 1) << j
    return rank


def codim_forms_and_bases(n: int, k: int) -> list[tuple[tuple[int, ...], list[int]]]:
    """(forms, solution basis) of every codim-k subspace, in canonical order."""
    return [(rows, _kernel_from_rref(n, rows)) for rows in iter_rref_forms(n, k)]


# -- restriction rows by the truth table ----------------------------------------


def _moebius(values: list[int]) -> list[int]:
    """Binary Moebius transform of a list of 2**m bits, butterfly by butterfly."""
    out = list(values)
    step = 1
    while step < len(out):
        for x in range(len(out)):
            if x & step:
                out[x] ^= out[x ^ step]
        step <<= 1
    return out


def restriction_row(tt: Sequence[int], basis: Sequence[int]) -> bytes:
    """ANF coefficients of f on the span of `basis`, as one byte per
    coefficient: bit j of the index is the coefficient of basis[j]."""
    values = []
    for y in range(1 << len(basis)):
        x = 0
        for j, b in enumerate(basis):
            if y >> j & 1:
                x ^= b
        values.append(tt[x])
    return bytes(_moebius(values))


def restriction_rows(n: int, monomials: Iterable[int], k: int) -> list[bytes]:
    """restriction_row of f on every codim-k linear subspace, in canonical
    order, read off f's truth table point by point."""
    tt = truth_table(n, monomials)
    return [restriction_row(tt, basis) for _, basis in codim_forms_and_bases(n, k)]


def gathered_rows(n: int, monomials: Iterable[int], k: int) -> np.ndarray:
    """restriction_rows as one uint8 array, one row per codim-k space, by the
    truth-table gather: f's truth table read at every point of each space
    (index bit j standing for basis vector j), then the Moebius transform
    along the point axis, one numpy butterfly stage per bit. Fast enough for
    full scans at n = 9..12."""
    tt = np.array(truth_table(n, monomials), dtype=np.uint8)
    spaces = codim_forms_and_bases(n, k)
    bases = np.array([basis for _, basis in spaces], dtype=np.int32).reshape(len(spaces), n - k)
    points = np.zeros((len(spaces), 1), dtype=np.int32)
    for j in range(n - k):
        points = np.concatenate([points, points ^ bases[:, j : j + 1]], axis=1)
    rows = tt[points]
    for j in range(n - k):
        stage = rows.reshape(len(rows), -1, 2, 1 << j)
        stage[:, :, 1] ^= stage[:, :, 0]
    return rows


# -- restriction rows by one-pivot substitution --------------------------------


def _gaussian(n: int, k: int) -> int:
    """The number of k-dimensional subspaces of F_2^n, by the product formula."""
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den if 0 <= k <= n else 0


def _times_variable(b: np.ndarray, c: int) -> np.ndarray:
    """ANF rows of x_c * B from B's rows b, c a position in their index:
    coefficient S is b_S + b_(S-c) when c is in S, and 0 otherwise, as
    x_c x^T = x^(T+c) is x^S for T = S and for T = S - c."""
    bv = b.reshape(len(b), -1, 2, 1 << c)
    t = np.zeros_like(bv)
    np.bitwise_xor(bv[:, :, 1], bv[:, :, 0], out=t[:, :, 1])
    return t.reshape(b.shape)


def substituted(rows: np.ndarray, p: int, first: int, size: int) -> np.ndarray:
    """Full ANF rows (2**m coefficients each) of the hyperplanes with pivot p
    of the spaces with ANF rows `rows`, in their m - 1 coordinates: per row,
    those with the free-bit integers g = first .. first + size - 1, size a
    power of two and first a multiple of it. Write g = A + x_p B; the
    hyperplane x_p = sum of x_(p+1+j) over the bits j of g gives
    A + sum of x_(p+j) B once x_p leaves the index, so each bit of `first`
    above size adds its x_(p+j) B, and each bit below doubles the rows."""
    count, half = len(rows), rows.shape[1] // 2
    split = rows.reshape(count, -1, 2, 1 << p)
    b = np.ascontiguousarray(split[:, :, 1]).reshape(count, half)
    out = np.empty((count, size, half), dtype=np.uint8)
    out[:, 0] = split[:, :, 0].reshape(count, half)
    q = size.bit_length() - 1
    for j in range(q, first.bit_length()):
        if first >> j & 1:
            out[:, 0] ^= _times_variable(b, p + j)
    for j in range(q):
        np.bitwise_xor(out[:, : 1 << j], _times_variable(b, p + j)[:, None], out=out[:, 1 << j : 2 << j])
    return out.reshape(count * size, half)


def substituted_rows(n: int, monomials: Iterable[int], k: int) -> np.ndarray:
    """restriction_rows as one uint8 array, level by level from f's ANF: the
    codim-j spaces with lowest pivot p are the hyperplanes with pivot p of
    the codim-(j-1) spaces whose pivots all exceed p, the last
    [n-p-1 j-1]_2 of that level, in canonical order."""
    level = np.zeros((1, 1 << n), dtype=np.uint8)
    for mu in monomials:
        level[0, mu] ^= 1
    for j in range(1, k + 1):
        m = n - j + 1
        level = np.concatenate([
            substituted(level[len(level) - _gaussian(n - p - 1, j - 1) :], p, 0, 1 << (m - 1 - p))
            for p in range(m)
        ])
    return level


# -- symbolic restriction -------------------------------------------------------


def _solve_forms(
    forms: Sequence[int], consts: int, n: int
) -> list[tuple[int, int, int]]:
    """Row-reduce <a_j, x> = c_j; returns (pivot_bit, free_mask, const) rows."""
    rows = [(forms[j], (consts >> j) & 1) for j in range(len(forms))]
    solved: list[tuple[int, int, int]] = []  # (pivot, row_mask, const)
    for mask, c in rows:
        # eliminate previous pivots
        for pivot, smask, sc in solved:
            if mask >> pivot & 1:
                mask ^= smask
                c ^= sc
        if mask == 0:
            if c:
                raise ValueError("inconsistent system, empty affine space")
            raise ValueError("dependent forms, wrong co-dimension")
        pivot = mask.bit_length() - 1
        for i, (p, smask, sc) in enumerate(solved):
            if smask >> pivot & 1:
                solved[i] = (p, smask ^ mask, sc ^ c)
        solved.append((pivot, mask, c))
    return [(p, mask ^ (1 << p), c) for p, mask, c in solved]


def restriction_monomials(
    n: int, monomials: Iterable[int], forms: Sequence[int], consts: int = 0
) -> set[frozenset[int]]:
    """ANF of f restricted to the affine space <a_j, x> = c_j, expanded
    symbolically over the free variables.

    Each pivot variable is replaced by an affine combination of free
    variables; the product is multiplied out with XOR cancellation.
    Returns monomials as frozensets of free-variable bit positions (the
    empty frozenset is the constant 1).
    """
    solved = _solve_forms(forms, consts, n)
    substitution: dict[int, list[frozenset[int]]] = {}
    for pivot, free_mask, c in solved:
        terms = [frozenset({b}) for b in range(n) if free_mask >> b & 1]
        if c:
            terms.append(frozenset())
        substitution[pivot] = terms

    result: set[frozenset[int]] = set()
    for m in monomials:
        expanded = [frozenset()]
        for b in range(n):
            if not m >> b & 1:
                continue
            factors = substitution.get(b, [frozenset({b})])
            expanded = [term | extra for term in expanded for extra in factors]
        # products collapse over F_2: x*x = x, pairs cancel
        for term in expanded:
            if term in result:
                result.discard(term)
            else:
                result.add(term)
    return result


def restriction_degree(
    n: int, monomials: Iterable[int], forms: Sequence[int], consts: int = 0
) -> Optional[int]:
    terms = restriction_monomials(n, monomials, forms, consts)
    if not terms:
        return None
    return max(len(t) for t in terms)


# -- degree-drop scans ----------------------------------------------------------


def is_degree_drop(
    n: int, monomials: Sequence[int], forms: Sequence[int], consts: int = 0
) -> bool:
    r = degree_of_monomials(monomials)
    assert r is not None, "zero function has no degree to drop"
    d = restriction_degree(n, monomials, forms, consts)
    return d is None or d < r


def degree_drop_spans(n: int, monomials: Sequence[int], k: int) -> set[frozenset[int]]:
    """Spans of annihilators of the co-dimension-k degree-drop linear spaces."""
    out = set()
    for span in all_codim_spaces(n, k):
        if is_degree_drop(n, monomials, independent_rows(sorted(span))):
            out.add(span)
    return out


def fast_point_set(n: int, monomials: Sequence[int]) -> set[int]:
    """Directions a where the derivative degree falls below deg - 1."""
    tt = truth_table(n, monomials)
    r = degree_of_tt(n, tt)
    assert r is not None, "zero function has no fast points"
    out = set()
    for a in range(1, 1 << n):
        d = degree_of_tt(n, derivative_tt(tt, a))
        if d is None or d < r - 1:
            out.add(a)
    return out
