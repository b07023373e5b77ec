"""Degree-drop subspaces, degree stability, fast points, and their duality.

An affine subspace A is a degree-drop subspace of f when deg(f|_A) < deg(f).
Whether A is degree-drop depends only on its underlying linear space, so all
enumeration here runs over linear subspaces (canonical annihilator forms).

The scan engine restricts one function f of degree r to many subspaces V at
once and flags V as a drop when f|_V's weight-r ANF coefficients are zero:
substitution never raises a degree, so deg(f|_V) <= r. Likewise k fast
directions have a k-fold derivative of degree <= r - k (each derivative
lowers the degree), flagged when its weight r - k is zero (empty if k > r).
It runs in chunks of the enumeration order. An existence query
(has_degree_drop_space, and through it k_membership and deg_stab) stops at
the first chunk with a drop, so its chunks ramp: the first holds
_POINTS >> _RAMP points and each next one twice as many, up to _POINTS.
Counts, profiles, enumerate_degree_drop and the duality read every row, so
they take full _POINTS chunks, which cost the fewest numpy calls. Chunk
sizes change neither the order of the rows nor any result.

The rows come from one of two routes, chosen per pivot block (see
subspaces._pivot_blocks); both give the same bytes in the same order.

* Substitution, for a block of at least _SUBSTITUTE points. Let V have
  RREF forms l_1..l_k with pivots p_1 < .. < p_k, and a_i the free columns
  of l_i, all above p_i. The point of V with free coordinates y has
  x_c = y_c at each free column c and x_(p_i) = sum over c in a_i of y_c,
  so f|_V is f with each x_(p_i) replaced by that sum. Replace the highest
  pivot p = p_k first: write f = A + x_p B with A and B free of x_p. Then
  f|_(x_p = l) = A + l B = A + sum over c in a_k of x_c B, and the ANF of
  x_c B has coefficient B_S + B_(S-c) at every S that holds c (from
  x_c x^S = x_c x^(S-c) = x^S) and 0 at every other S. Dropping x_p from
  the coefficient index moves only the positions above p, so the lower
  pivots keep theirs and are replaced next, the same way. The 2**s spaces
  that differ only in the s free bits of one form share A and B, and
  their rows are the XOR span of the s rows x_c B over A: one XOR of
  64-bit words per row, built by doubling. Row 0's free bits are the low
  bits of the free-bit integer g, and its pivot is replaced last, so the
  rows come out in the order of g, which is the canonical order.
* Gather, for each run of smaller blocks: the truth table read at every
  point of each space (bits.xor_points of its solution basis), then one
  batched Moebius transform along the point axis (anf.mobius_inplace, on
  64-bit words). Below _SUBSTITUTE points the numpy calls that the
  substitution makes per block cost more than this.

Hyperplane normals and fast points need no scan. Both are GF(2) kernels read
off the top part f_r of a function f of degree r >= 0, with l_a = sum a_i x_i:

* Normals. a != 0 is a degree-drop normal iff the degree-(r+1) part of
  l_a * f_r is zero. Let H = {l_a = 0}, with indicator 1 + l_a. A function
  supported on H whose restriction to H has degree d has degree d + 1 on
  F_2^n: in coordinates with H = {y_1 = 0} it is (1 + y_1) * p(y_2, ..).
  So deg(f|_H) < r iff deg(f + l_a * f) <= r iff deg(l_a * f) <= r. Terms
  of f below degree r, and products x_i * x^mu with i in mu, reach degree
  <= r; the rest is sum a_i x_i x^mu over i not in mu, mu in f_r.
* Fast points. a != 0 is a fast point (deg D_a f < r - 1, or D_a f = 0)
  iff sum a_i df_r/dx_i = 0, with the formal partials. D_a x^mu =
  prod(x_i + a_i) - prod(x_i) has degree-(|mu|-1) part sum_{i in mu} a_i
  x^{mu - i}, so a monomial of degree d < r contributes only degree <= r - 2,
  and D_a f never exceeds degree r - 1.

Each output monomial nu is one linear condition on a: the XOR of the a_i
over the variables i that reach nu must vanish. The condition's mask is the
set {i in nu : nu - i in f_r} for normals and {i not in nu : nu + i in f_r}
for fast points. For a homogeneous f and its complement these are the same
masks under nu -> complement of nu, which is the hyperplane case of the
degree-drop / fast-point duality.

Counts, existence, deg_stab and profiles lift co-dimension k >= 1 from
co-dimension k - 1 and enumerate no codim-k space; only
enumerate_degree_drop and the k >= 2 duality check scan them. Let U be a
codim-(k-1) space of dimension m = n - k + 1, and g the restriction f|_U as
an ANF in U's m coordinates y. Every codim-k space S inside U is a
hyperplane {a . y = 0} of U for exactly one nonzero a in F_2^m, and
f|_S = g|_{a.y=0}.

* Lift. S drops iff U drops or a lies in the normal kernel of g's weight-r
  part. If deg g < r, then deg(g|_S) <= deg g < r. If deg g = r, the
  weight-r part is g's top part and the normals rule above applies to g.
  Both cases are the kernel of the conditions built from g's weight-r
  coefficients: that part is zero when U drops, so the kernel is F_2^m.
  So U contains c(U) = 2**dim(kernel) - 1 dropping codim-k spaces.
* Counts. A codim-k space lies in exactly 2**k - 1 codim-(k-1) spaces, the
  hyperplanes of its k-dimensional annihilator, so count_k = sum over U of
  c(U) / (2**k - 1). Some codim-k space drops iff some c(U) > 0.
* New. A codim-k space is not new iff it lies inside a dropping codim-(k-1)
  space U, and then it drops. The spaces inside U are its children: U's
  annihilator plus one form a on U's free columns, 2**m - 1 of them. So
  new_k = count_k - |union of the children of the codim-(k-1) drops|.
  A child is named by its rank in the canonical order
  (subspaces.codim_rank), so the union is a count of distinct int64s.

The codim-(k-1) scan also yields its own drop flags, so a profile scans
co-dimensions 0..k_max-1 once each.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import f2
from .anf import ANF, NEG_INF, Degree, _check_directions, mobius_inplace
from .bits import check_mask, popcount_table, xor_points
from .errors import (
    ConstantFunctionError,
    EnumerationRangeError,
    InvariantViolationError,
    NotHomogeneousError,
    ZeroFunctionError,
)
from .subspaces import (
    AffineSubspace,
    LinearSubspace,
    _CACHE_LIMIT,
    _PIECE,
    _block_rows,
    _canonical_forms,
    _pivot_blocks,
    _regroup,
    codim_rank,
    count_codim,
    materialized_codim,
    restrict,
)

_CHUNK = 8192
# Points restricted per scan chunk (8192 rows at m = 6). Sized so that the
# lift's wider codim-(k-1) rows take no more memory than the codim-k scan did.
_POINTS = 1 << 19
# Doublings from an existence query's first chunk up to _POINTS.
_RAMP = 4
# Points of a pivot block from which its restrictions are computed by
# substitution in the ANF instead of the truth-table gather. Below it the
# substitution's numpy calls per block cost more than the gather of a run
# of small blocks; 2**13 was slower at (7, 2) and (7, 3), 2**15 no faster.
_SUBSTITUTE = 1 << 14
# The most codim-(j+1) spaces for which _child_count marks the children in
# a boolean array, one byte per space, instead of sorting their ranks.
_SEEN_BYTES = 1 << 24


def _int_degree(f: ANF) -> int:
    d = f.degree()
    if d is NEG_INF:
        raise ZeroFunctionError("the zero function has no degree-drop spaces")
    return int(d)


@lru_cache(maxsize=None)
def _weight(m: int, w: int) -> np.ndarray:
    """The positions of the weight-w coefficients of an ANF row on m
    variables, ascending and read-only; empty for w outside 0..m."""
    at = np.flatnonzero(popcount_table(m) == w)
    at.setflags(write=False)
    return at


def _is_fast(tt: np.ndarray, dirs: np.ndarray, r: int) -> np.ndarray:
    """Per row of k directions: is the derivative of f along their span of
    degree < r - k, i.e. zero in weight r - k? `tt` is f's truth table, of
    degree at most r, and `dirs` has shape (rows, k).
    """
    k, n = dirs.shape[-1], tt.size.bit_length() - 1
    x = np.arange(tt.size, dtype=np.uint32)
    offs = xor_points(dirs)
    flags = np.empty(len(dirs), dtype=bool)
    step = max(1, _CHUNK // max(1, tt.size // 256))
    for s in range(0, len(dirs), step):
        o = offs[s : s + step]
        der = tt[x ^ o[:, 1:2]] ^ tt
        for j in range(2, 1 << k):
            der ^= tt[x ^ o[:, j : j + 1]]
        flags[s : s + len(o)] = ~mobius_inplace(der)[:, _weight(n, r - k)].any(axis=1)
    return flags


def _chunk_rows(m: int, ramp: bool) -> Iterator[int]:
    """Rows per scan chunk of restrictions to dimension m: _POINTS points
    each, or one row if that is more, rounded down to a power of two. With
    ramp the first chunk takes _POINTS >> _RAMP points and each next one
    twice as many, up to _POINTS, so an existence query that meets an early
    drop reduces few rows."""
    points = max(1, _POINTS >> _RAMP) if ramp else _POINTS
    while True:
        yield _floor2(points >> m)
        points = min(points << 1, _POINTS)


def _drop_chunks(f: ANF, k: int, ramp: bool = False):
    """Yield (forms, drop_flags, anf_rows) over all codim-k subspaces, in order.

    `forms` is an int64 array of RREF annihilators, one row of k per
    subspace. `anf_rows` holds the restrictions' ANF coefficients, one row
    of 2**(n-k) per subspace. Chunks are sized by _chunk_rows.
    """
    if not 0 <= k <= f.n:
        raise EnumerationRangeError(f"co-dimension must lie in 0..n={f.n}, got {k}")
    r = _int_degree(f)
    pieces = _restriction_pieces(f, k, ramp)
    for forms, rows in _regroup(pieces, _chunk_rows(f.n - k, ramp)):
        yield forms, ~rows[:, _weight(f.n - k, r)].any(axis=1), rows


def _restriction_pieces(f: ANF, k: int, ramp: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(forms, anf_rows) of f's codim-k restrictions in canonical order.

    Pieces grow like the chunks of _chunk_rows, so an existence query
    restricts few spaces beyond the chunk that ends it. A piece of a
    segment marked for substitution holds 2**q spaces of one block from a
    multiple of 2**q on, as _substituted needs.
    """
    limits = _chunk_rows(f.n - k, ramp)
    for forms, bases, substitute in _segments(f.n, k):
        o = 0
        while o < len(forms):
            size = min(next(limits), len(forms) - o)
            if substitute:
                size = min(size, o & -o or size)
                rows = _substituted(f.coeffs, f.n, forms[o].tolist(), size)
            else:
                rows = _gathered(f.truth_table(), bases[o : o + size])
            yield forms[o : o + size], rows
            o += size


def _segments(n: int, k: int) -> Iterator[tuple[np.ndarray, np.ndarray, bool]]:
    """(forms, bases, substitute) over the codim-k spaces in canonical order.

    When [n k]_2 is cached, one segment per _routes entry, sliced from
    materialized_codim. Otherwise the _pivot_blocks pieces, which hold
    min(_PIECE, block) rows of one block from a multiple of their length on.
    """
    routes = _routes(n, k, _SUBSTITUTE)
    if count_codim(n, k) <= _CACHE_LIMIT:
        forms, bases = materialized_codim(n, k)
        for start, stop, substitute in routes:
            yield forms[start:stop], bases[start:stop], substitute
        return
    at = stop = 0
    route = iter(routes)
    for forms, bases in _pivot_blocks(n, k, _PIECE):
        while at >= stop:
            _, stop, substitute = next(route)
        yield forms, bases, substitute
        at += len(forms)


@lru_cache(maxsize=None)
def _routes(n: int, k: int, least: float) -> tuple[tuple[int, int, bool], ...]:
    """The canonical order of the codim-k spaces cut into (start, stop,
    substitute): one entry with substitute True per pivot block of at least
    `least` points, and one with False per run of smaller blocks."""
    out: list[tuple[int, int, bool]] = []
    start = 0
    for rows in _block_rows(n, k):
        big = rows << (n - k) >= least
        if out and not big and not out[-1][2]:
            out[-1] = (out[-1][0], start + rows, False)
        else:
            out.append((start, start + rows, big))
        start += rows
    return tuple(out)


def _floor2(x: int) -> int:
    """The largest power of two <= max(1, x)."""
    return 1 << (max(1, x).bit_length() - 1)


def _gathered(tt: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """ANF rows of the restrictions to the spaces with these solution bases:
    the truth table read at every point, then a batched Moebius transform."""
    return mobius_inplace(tt[xor_points(bases)])


@lru_cache(maxsize=None)
def _substitution_plan(n: int, pivots: tuple[int, ...]) -> tuple:
    """Per row i of a pivot block, highest pivot first: (i, its free columns
    c above pivots[i], ascending, and the position each c takes in the
    coefficient index once pivots[i:] are removed from it)."""
    plan = []
    for i in reversed(range(len(pivots))):
        cols = [c for c in range(pivots[i] + 1, n) if c not in pivots]
        plan.append((i, cols, [c - sum(pivots[i] <= q < c for q in pivots) for c in cols]))
    return tuple(plan)


def _times_variable(b: np.ndarray, c: int) -> np.ndarray:
    """ANF rows of x_c * B from B's rows b, c a position in their index:
    coefficient S is b_S + b_(S-c) when c is in S, and 0 otherwise, as
    x_c x^T = x^(T+c) is x^S for T = S and for T = S - c."""
    t = np.zeros(b.shape, dtype=np.uint8)
    bv = b.reshape(len(b), -1, 2, 1 << c)
    np.bitwise_xor(bv[:, :, 1], bv[:, :, 0], out=t.reshape(bv.shape)[:, :, 1])
    return t


def _words(rows: np.ndarray) -> np.ndarray:
    """The rows as 64-bit words when their length allows, for wide XORs."""
    return rows.view(np.uint64) if rows.shape[-1] % 8 == 0 else rows


def _substituted(coeffs: np.ndarray, n: int, first: list[int], size: int) -> np.ndarray:
    """ANF rows of f (coefficients `coeffs`) restricted to `size` spaces of
    one pivot block: size is a power of two 2**q, and `first` is the RREF
    annihilator of the first space, whose free-bit integer g is a multiple
    of size. The rows come in the order g, g + 1, .., g + size - 1.

    Pivots are replaced highest first (see the module docstring): form i,
    with pivot p, maps f = A + x_p B to A + sum over c in a of x_c B, a its
    free columns. The low q bits of g (row 0's free slots first) run over
    all their values, each such slot c doubling the rows by an XOR with
    x_c B; `first` fixes the higher bits.
    """
    k = len(first)
    pivots = tuple((a & -a).bit_length() - 1 for a in first)
    spans = []  # free slots of each row that run over all their values
    q = size.bit_length() - 1
    for i, p in enumerate(pivots):
        spans.append(min(q, n - k + i - p))
        q -= spans[-1]
    cur = coeffs.reshape(1, -1)
    for i, cols, pos in _substitution_plan(n, pivots):
        rows, half, s = len(cur), cur.shape[1] // 2, spans[i]
        split = cur.reshape(rows, -1, 2, 1 << pivots[i])
        b = np.ascontiguousarray(split[:, :, 1]).reshape(rows, half)
        out = np.empty((rows, 1 << s, half), dtype=np.uint8)
        out[:, 0].reshape(split[:, :, 0].shape)[...] = split[:, :, 0]
        for c, at in zip(cols[s:], pos[s:]):
            if first[i] >> c & 1:
                _words(out[:, 0])[...] ^= _words(_times_variable(b, at))
        words = _words(out)
        for j in range(s):
            t = _words(_times_variable(b, pos[j]))
            np.bitwise_xor(words[:, : 1 << j], t[:, None], out=words[:, 1 << j : 2 << j])
        cur = out.reshape(rows << s, half)
    return cur


@lru_cache(maxsize=None)
def _normal_conditions(m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The normal-kernel conditions on m variables, as gathers from the
    weight-r coefficients: column j is the degree-(r+1) monomial nu_j, row t
    its t-th variable i. Returns (index of nu_j - i, bit of i), each of shape
    (r + 1, C(m, r + 1)); the bits in the smallest dtype that holds m bits.
    """
    nu = _weight(m, r + 1)
    rest = nu.copy()
    src, bit = [], []
    for _ in range(r + 1):
        low = rest & -rest
        src.append(nu ^ low)
        bit.append(low)
        rest ^= low
    src = np.array(src).reshape(r + 1, -1)
    bit = np.array(bit, dtype=np.min_scalar_type((1 << m) - 1)).reshape(r + 1, -1)
    src.setflags(write=False)
    bit.setflags(write=False)
    return src, bit


def _normal_kernel_dims(rows: np.ndarray, r: int) -> np.ndarray:
    """Per ANF row (last axis 2**m): dimension of the degree-drop normal
    kernel of its weight-r part, i.e. of `hyperplane_normal_basis` with those
    monomials as the top part, by one GF(2) elimination batched over rows.

    A row whose weight-r part is zero (a restriction that already drops)
    has no condition, so its kernel is all of F_2^m.
    """
    m = rows.shape[-1].bit_length() - 1
    src, bit = _normal_conditions(m, r)
    if not src.size:
        return np.full(len(rows), m)
    # one row of conditions per output monomial, one column per ANF row, so
    # every step below runs along the rows
    conds = np.zeros((src.shape[1], len(rows)), dtype=bit.dtype)
    for s, b in zip(src, bit):
        conds |= rows.T[s] * b[:, None]
    dims = np.full(len(rows), m)
    for j in range(m):
        has = (conds >> j) & 1
        # any condition with bit j serves as the pivot; the largest is one
        pivot = (conds * has).max(axis=0)
        conds ^= pivot * has
        dims -= (pivot >> j) & 1
    return dims


def _lifted(f: ANF, k: int, ramp: bool = False):
    """Yield (forms, drop_flags, drops_inside) over the codim-(k-1) spaces U,
    chunked (ramped for existence queries, see _chunk_rows): drops_inside
    counts the degree-drop codim-k spaces inside each U.
    """
    if not 1 <= k <= f.n:
        raise EnumerationRangeError(f"co-dimension must lie in 1..n={f.n}, got {k}")
    r = _int_degree(f)
    for forms, dd, rows in _drop_chunks(f, k - 1, ramp):
        yield forms, dd, (1 << _normal_kernel_dims(rows, r)) - 1


def _lifted_count(total: int, k: int) -> int:
    """Codim-k drop count from the sum of drops_inside over every U."""
    parents = (1 << k) - 1  # codim-(k-1) spaces containing one codim-k space
    if total % parents:
        raise InvariantViolationError(
            f"{total} codim-{k} drops over all codim-{k - 1} spaces is not a"
            f" multiple of {parents}, the number of parents of each"
        )
    return total // parents


def _child_count(forms: np.ndarray, n: int) -> int:
    """Number of distinct codim-(j+1) spaces inside the codim-j spaces with
    RREF annihilators `forms`, an int64 array with one row of j per space.

    A child of U adds one form a on U's free (non-pivot) columns. Reducing
    U's rows that carry a's lowest bit by a puts the child in RREF; its rank
    in the canonical order is its key. The ranks are marked in a boolean
    array of [n j+1]_2 bytes when that is at most _SEEN_BYTES, and sorted
    otherwise.
    """
    if not len(forms):
        return 0
    j = forms.shape[1]
    cols = np.int64(1) << np.arange(n, dtype=np.int64)
    pivots = np.bitwise_or.reduce(forms & -forms, axis=1)
    free = np.broadcast_to(cols, (len(forms), n))[(pivots[:, None] & cols) == 0]
    free = free.reshape(len(forms), n - j)
    size = count_codim(n, j + 1)
    seen = np.zeros(size, dtype=bool) if size <= _SEEN_BYTES else None
    parts = []
    step = max(1, _CHUNK >> (n - j))
    for s in range(0, len(forms), step):
        a = xor_points(free[s : s + step], dtype=np.int64)[:, 1:, None]
        u = forms[s : s + step, None, :]
        rows = np.where(u & (a & -a) != 0, u ^ a, u)
        ranks = codim_rank(n, np.concatenate([rows, a], axis=-1))
        if seen is None:
            parts.append(_distinct(ranks))
        else:
            seen[ranks] = True
    if seen is None:
        return len(_distinct(np.concatenate(parts)))
    return int(np.count_nonzero(seen))


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, sorted: np.unique by a sort, because
    np.unique's hash table (numpy 2.4) takes 20-35x longer on 8K int64s."""
    x = np.sort(x, axis=None)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


# -- single-subspace checks --------------------------------------------------


def is_degree_drop(f: ANF, space: AffineSubspace) -> bool:
    """deg(f|_space) < deg(f). Raises ZeroFunctionError on the zero function."""
    r = _int_degree(f)
    d = restrict(f, space).degree()
    return d is NEG_INF or d < r


def restriction_degree(f: ANF, space: AffineSubspace) -> Degree:
    return restrict(f, space).degree()


# -- enumeration / counting ---------------------------------------------------


def enumerate_degree_drop(f: ANF, k: int) -> Iterator[LinearSubspace]:
    """Degree-drop linear subspaces of co-dimension k, canonical order."""
    for forms, dd, _ in _drop_chunks(f, k):
        for rows in forms[dd].tolist():
            yield LinearSubspace(f.n, tuple(rows))


def degree_drop_count(f: ANF, k: int) -> int:
    """Number of degree-drop linear subspaces of co-dimension k, lifted from
    the codim-(k-1) restrictions."""
    return _lifted_count(sum(int(c.sum()) for _, _, c in _lifted(f, k)), k)


def has_degree_drop_space(f: ANF, k: int) -> bool:
    """True iff some linear subspace of co-dimension k is degree-drop, i.e.
    some codim-(k-1) restriction has a nonzero normal kernel."""
    return any(c.any() for _, _, c in _lifted(f, k, ramp=True))


def k_membership(f: ANF, k: int) -> bool:
    """True iff f has no degree-drop space of co-dimension k (class K_k).

    By inclusion this also rules out every co-dimension below k."""
    return not has_degree_drop_space(f, k)


# -- profiles ------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileRow:
    codim: int
    count: int
    new: int


@dataclass(frozen=True)
class DegreeDropProfile:
    n: int
    degree: int
    rows: tuple[ProfileRow, ...]

    def fingerprint(self) -> tuple[int, ...]:
        """(count_1, count_2, new_2, count_3, new_3, ...) flat tuple."""
        out = []
        for row in self.rows:
            out.append(row.count)
            if row.codim >= 2:
                out.append(row.new)
        return tuple(out)

    def counts(self) -> tuple[int, ...]:
        return tuple(row.count for row in self.rows)

    def to_rows(self) -> list[dict]:
        return [{"codim": r.codim, "count": r.count, "new": r.new} for r in self.rows]


def profile(f: ANF, k_max: Optional[int] = None) -> DegreeDropProfile:
    """Count degree-drop subspaces per co-dimension 1..k_max.

    `new` counts those not contained in any degree-drop space of co-dimension
    one less (for co-dimension 1, new = count). Default k_max is
    min(3, n - deg(f)). Co-dimension k is read off the codim-(k-1) scan, so
    no space of co-dimension k_max is enumerated."""
    r = _int_degree(f)
    if k_max is None:
        k_max = max(0, min(3, f.n - r))
    elif k_max < 1:
        raise EnumerationRangeError(f"k_max must be >= 1, got {k_max}")
    rows: list[ProfileRow] = []
    for k in range(1, k_max + 1):
        parts = []
        total = 0
        for forms, dd, c in _lifted(f, k):
            parts.append(forms[dd])
            total += int(c.sum())
        drops = np.concatenate(parts)
        if rows and len(drops) != rows[-1].count:
            raise InvariantViolationError(
                f"the codim-{k - 1} scan finds {len(drops)} drops, the lift"
                f" {rows[-1].count}"
            )
        count = _lifted_count(total, k)
        rows.append(ProfileRow(k, count, count - _child_count(drops, f.n)))
    return DegreeDropProfile(f.n, r, tuple(rows))


def deg_stab(f: ANF) -> int:
    """Largest k such that f has no degree-drop subspace of co-dimension k.

    0 means some hyperplane already drops the degree. Undefined (error) for
    zero and constant functions."""
    r = _int_degree(f)
    if r == 0:
        raise ConstantFunctionError("degree stability is undefined for constants")
    # a codim-(n - r + 1) space has dimension r - 1, so f must drop there
    for k in range(1, f.n - r + 2):
        if has_degree_drop_space(f, k):
            return k - 1
    raise InvariantViolationError(
        f"no degree-drop space of co-dimension {f.n - r + 1} found for degree {r}"
        f" on n={f.n}, where one must exist"
    )


# -- hyperplane normals and fast points ---------------------------------------


def _kernel(n: int, conditions) -> tuple[int, ...]:
    """Canonical (RREF) basis of {a : parity(a & c) = 0 for every condition c}."""
    return _canonical_forms(f2.kernel_basis_of_rows(conditions, n), n)


def _checked_top(n: int, top: Iterable[int]) -> list[int]:
    """The masks of `top`, checked to be monomials in n variables of one degree."""
    masks = list(top)
    end = 1 << n
    degrees = {mu.bit_count() if 0 <= mu < end else -1 for mu in masks}
    if -1 in degrees:
        for mu in masks:
            check_mask(n, mu)
    if len(degrees) > 1:
        raise NotHomogeneousError("the top-degree monomials must share one degree")
    return masks


def _ints(values, width: int) -> np.ndarray:
    """values as width-bit ints: the smallest unsigned dtype, object above 64 bits."""
    return np.array(values, dtype=np.min_scalar_type((1 << width) - 1))


def _conditions(n: int, top: Sequence[int], k: int = 1, inside: bool = False) -> set[int]:
    """The distinct conditions read off the masks of f_r, one per monomial nu
    that they reach: bit j is set iff nu = mu ^ d_j for some mu in top, with
    d_j the j-th k-subset of the variables in itertools.combinations order
    (variable bit j at k = 1), outside mu, or inside it if `inside`. Outside,
    these are the rows of the transposed R_k map, and the normal conditions
    at k = 1; inside at k = 1, the fast-point conditions.
    """
    subsets = _ints([sum(1 << v for v in c) for c in itertools.combinations(range(n), k)], n)
    masks = _ints(top, n).reshape(-1, 1)
    mu, j = np.nonzero((masks & subsets) == (subsets if inside else 0))
    if not len(j):
        return set()
    nu = masks[mu, 0] ^ subsets[j]
    order = np.argsort(nu, kind="stable")
    nu = nu[order]
    starts = np.flatnonzero(np.r_[True, nu[1:] != nu[:-1]])
    bits = _ints([1 << i for i in range(len(subsets))], len(subsets))[j[order]]
    return set(np.bitwise_or.reduceat(bits, starts).tolist())


def hyperplane_normal_basis(n: int, top: Iterable[int]) -> tuple[int, ...]:
    """Basis of the degree-drop hyperplane normals of any function whose
    top-degree monomials are `top`: the a with no degree-(r+1) term in l_a * f_r.

    Works on masks alone, so n may exceed the truth-table ceiling.
    """
    return _kernel(n, _conditions(n, _checked_top(n, top)))


def fast_point_basis(n: int, top: Iterable[int]) -> tuple[int, ...]:
    """Basis of the fast points of any function whose top-degree monomials
    are `top`: the a with sum a_i df_r/dx_i = 0."""
    return _kernel(n, _conditions(n, _checked_top(n, top), inside=True))


def _top(f: ANF) -> tuple[int, ...]:
    """Masks of the top-degree monomials; ZeroFunctionError for the zero function."""
    _int_degree(f)
    return f.top_part().monomials()


@dataclass(frozen=True)
class Span:
    """The nonzero vectors of a linear subspace of F_2^n (degree-drop normals
    or fast points), named by its canonical RREF basis, so two spans are
    equal iff their bases are. `dim` and `count` are read off the basis;
    `points`, also named `normals`, builds the frozenset of all 2**dim - 1
    vectors on each read, and nothing else builds it."""

    n: int
    basis: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def count(self) -> int:
        return (1 << self.dim) - 1

    @property
    def points(self) -> frozenset[int]:
        return frozenset(xor_points(self.basis)[1:].tolist())

    normals = points


def dd_hyperplane_normals(f: ANF) -> frozenset[int]:
    """Normals of the degree-drop hyperplanes."""
    return dd_hyperplane_normal_space(f).normals


def dd_hyperplane_normal_space(f: ANF, threads: int = 1) -> Span:
    """The span of the degree-drop hyperplane normals. `threads` has no
    effect; it stays while perfbench passes it (ROADMAP item 3)."""
    return Span(f.n, hyperplane_normal_basis(f.n, _top(f)))


def fast_points(f: ANF) -> Span:
    """The span of the fast points."""
    if not f:
        raise ZeroFunctionError("fast points are undefined for the zero function")
    return Span(f.n, fast_point_basis(f.n, _top(f)))


def is_fast_space(f: ANF, directions: Sequence[int]) -> bool:
    """deg of the iterated derivative along the span is < deg(f) - dim."""
    dirs = _check_directions(f.n, directions)
    if not dirs:
        raise ValueError("need at least one direction")
    d = f.degree()
    if d is NEG_INF:
        raise ZeroFunctionError("fast spaces are undefined for the zero function")
    return bool(_is_fast(f.truth_table(), np.array([dirs], dtype=np.uint32), int(d))[0])


# -- duality -------------------------------------------------------------------


@dataclass(frozen=True)
class DualityReport:
    """Degree-drop spaces of f against fast spaces of its complement."""

    n: int
    degree: int
    k_checked: int
    normal_space: Span
    fast_space: Span
    mismatches: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches

    @property
    def hyperplane_normals(self) -> frozenset[int]:
        return self.normal_space.points

    @property
    def complement_fast_points(self) -> frozenset[int]:
        return self.fast_space.points


def check_dd_fast_duality(f: ANF, k_max: int = 1, threads: int = 1) -> DualityReport:
    """Verify: codim-k space with annihilator S is degree-drop for f iff S
    spans a fast space of the complement of f. Requires homogeneous f.

    Hyperplanes (always checked) compare the span of f's normals with that
    of the complement's fast points by their RREF bases, and list points
    only when they differ. k >= 2 scans every codim-k space, so 1 <= k_max
    <= n. `threads` has no effect; it stays while perfbench passes it."""
    if not f or not f.is_homogeneous():
        raise NotHomogeneousError("duality check requires a nonzero homogeneous function")
    if not 1 <= k_max <= f.n:
        raise EnumerationRangeError(f"k_max must lie in 1..n={f.n}, got {k_max}")
    r = int(f.degree())
    comp = f.complement()
    normals = Span(f.n, hyperplane_normal_basis(f.n, f.monomials()))
    cfast = Span(f.n, fast_point_basis(f.n, comp.monomials()))
    mismatches = [] if normals == cfast else [(1, (a,)) for a in sorted(normals.points ^ cfast.points)]
    for k in range(2, k_max + 1):
        for forms, dd, _ in _drop_chunks(f, k):
            fast = _is_fast(comp.truth_table(), forms.astype(np.uint32), f.n - r)
            mismatches.extend((k, tuple(rows)) for rows in forms[fast != dd].tolist())
    return DualityReport(f.n, r, k_max, normals, cfast, tuple(mismatches))
