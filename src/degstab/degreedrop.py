"""Degree-drop subspaces, degree stability, fast points, and their duality.

An affine subspace A is a degree-drop subspace of f when deg(f|_A) < deg(f).
Whether A is degree-drop depends only on its underlying linear space, so all
enumeration here runs over linear subspaces (canonical annihilator forms).

The scan engine restricts one function f of degree r to many subspaces V at
once and carries of each f|_V only its part: the weight-r ANF
coefficients, built from its parent's (One pivot, below). Restriction never
raises a degree, so V drops iff its part is zero, and the lift's normal
kernel reads the same part. Likewise k fast directions have a k-fold
derivative of degree <= r - k (each derivative lowers the degree), flagged when its
weight r - k is zero (empty if k > r). It runs in chunks of the enumeration
order. An existence query (has_degree_drop_space, and through it
k_membership and deg_stab) stops at the first chunk with a drop, so its
chunks ramp, unless the whole level fits one full chunk: the first holds
_POINTS >> _RAMP points and each next one twice as many, up to _POINTS.
Counts, profiles, enumerate_degree_drop and the duality read every row, so
they take full _POINTS chunks, which cost the fewest numpy calls. Chunk
sizes change neither the order of the rows nor any result.

The rows of co-dimension k come from those of co-dimension k - 1, one
substitution per pivot, in canonical order; a chunk carries the rank of its
first space, and forms are decoded (subspaces.codim_unrank) only where read.

* One pivot. Let U be a codim-(k-1) space, g = f|_U its ANF in U's m
  coordinates, and S = U ∩ {x_p = sum over c in a of x_c} a hyperplane of
  U, a a set of coordinates above p. Write g = A + x_p B with A and B free
  of x_p. Then g|_S = A + sum over c in a of x_c B, and the ANF of x_c B
  has coefficient B_T + B_(T-c) at every T that holds c (from
  x_c x^T = x_c x^(T-c) = x^T) and 0 at every other T. As deg g <= r, B's
  weight-r coefficients are g's weight-(r+1) ones, x_p x^T with |T| = r:
  zero. So at weight r, g|_S has A_T + sum over c in a ∩ T of B_(T-c),
  read off g's part alone: a level carries C(m, r) coefficients per space,
  not 2**m. Dropping x_p from the index moves only the positions above p.
  The 2**s such S of U, s = m - 1 - p, share A and B: two gathers by index
  maps cached per (m, r, p) read A_T and E_c(T) = B_(T-c), or 0 where T
  lacks c, and the S whose free bits form g has A_T + parity(w_T & g) at
  T, w_T packing the E_c(T): one row of a cached parity table per T.
* Order. Canonical order is lexicographic in the pivots p_1 < .. < p_k, so
  the codim-k spaces with lowest pivot p_1 are the hyperplanes with pivot
  p_1 of the codim-(k-1) spaces whose pivots all exceed p_1, a suffix of
  that order. Column p_1 is then U's coordinate p_1 and the other forms are
  U's, so a child's free-bit integer is U's above the first form's free
  bits, which vary fastest. One call per p_1 over the suffix gives the
  children in canonical order: n - k + 1 calls per level, more where the
  children of a suffix exceed one chunk.

A parent level of at most _POINTS points, 2**m per space, in a scan that
is not ramped, is built once and held; any other is streamed again for
each p_1 in pieces of at most _POINTS points. No level is kept from one
co-dimension's scan to the next.

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
  So U contains c(U) = 2**dim(kernel) - 1 dropping codim-k spaces. At
  k = 1, U is F_2^n and g is f, so existence reads f's normal span.
* Kernel. One elimination, batched over the spaces U, clears the top bit
  first, j = m - 1 .. 0, with every condition below 2**(j + 1).
  The largest condition is the pivot, zeroed when it lacks bit j, and each
  condition c becomes min(c, c ^ pivot): c ^ pivot < 2**j < c when c holds
  bit j, and c ^ pivot >= 2**j > c when it does not, so the min clears
  bit j by one row operation. That is three passes over the conditions
  per column: a max, an XOR and a min.
* Counts. A codim-k space lies in exactly 2**k - 1 codim-(k-1) spaces, the
  hyperplanes of its k-dimensional annihilator, so count_k = sum over U of
  c(U) / (2**k - 1). Some codim-k space drops iff some c(U) > 0.
* New. A codim-k space S, k >= 2, is not new iff it lies inside a
  dropping codim-(k-1) space U, and then it drops, as every subspace of a
  drop does. Let N be the span of the dropping hyperplanes' normals,
  d = dim N = R_1, and A_S S's annihilator, of dimension k; the U around S
  are the spaces whose annihilator is a (k-1)-dimensional subspace of A_S.
  If A_S meets N, in a, then S lies in the dropping hyperplane
  H_a = {a . x = 0}, and so does every U between S and H_a: some
  (k-1)-subspace of A_S holds a, as k >= 2, and that U drops. If A_S
  misses N, so does every A_U inside it, so S lies in a dropping U iff it
  is a child of a codim-(k-1) drop whose annihilator misses N. Of the
  k-dimensional subspaces of F_2^n, 2**(k*d) [n-d k]_2 miss N: each
  projects one-to-one onto a k-dimensional subspace of F_2^n / N, and is
  the graph of one of the 2**(k*d) linear maps from it to N. So the union
  of the spaces inside the codim-(k-1) drops has
  [n k]_2 - 2**(k*d) [n-d k]_2 + |distinct children that miss N, of the
  drops that miss N| members, and new_k = count_k less that. The children
  of U are U's annihilator plus one form a on U's free (non-pivot)
  columns, 2**m - 1 of them, and A_U + <a> misses N iff A_U does and a
  lies outside A_U + N. A child is named by its rank in the canonical
  order (subspaces._rank), so the last term counts distinct int64s. At
  k = 2 each codim-1 drop's annihilator is its normal, in N, so no child
  is built.

The codim-(k-1) scan also yields its own drop flags, so a profile scans
co-dimensions 1..k_max-1 once each and reads co-dimension 1 off N.
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
    _canonical_forms,
    _rank,
    codim_unrank,
    count_codim,
    restrict,
)

_CHUNK = 8192
# Points per scan chunk, 2**m per restriction to dimension m (8192 rows at
# m = 6), although a restriction's part holds only C(m, r) coefficients.
_POINTS = 1 << 19
# Doublings from an existence query's first chunk up to _POINTS.
_RAMP = 4
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
        yield 1 << (max(1, points >> m).bit_length() - 1)
        points = min(points << 1, _POINTS)


def _drop_chunks(f: ANF, k: int, ramp: bool = False):
    """Yield (start, drop_flags, part) over all codim-k subspaces, in order.

    Row i of a chunk is the subspace of rank start + i (codim_unrank names
    it), and its part holds the restriction's weight-r ANF coefficients,
    r = deg f, monomial-major (part.T is C-contiguous); the space drops iff
    they are all zero. Chunks are sized by _chunk_rows; a ramped scan whose
    whole level fits one full chunk reads it as that one chunk.
    """
    if not 0 <= k <= f.n:
        raise EnumerationRangeError(f"co-dimension must lie in 0..n={f.n}, got {k}")
    r = _int_degree(f)
    ramp = ramp and count_codim(f.n, k) << (f.n - k) > _POINTS
    start = 0
    for part in _regroup(_restricted(f, r, k, 0, ramp), _chunk_rows(f.n - k, ramp)):
        yield start, ~part.any(axis=1), part
        start += len(part)


def _regroup(pieces: Iterable[np.ndarray], sizes: Iterator[int]) -> Iterator[np.ndarray]:
    """Monomial-major arrays, in order, regrouped along their first axis
    into chunks whose lengths are read from sizes in turn, the last one
    shorter. A chunk that lies in one piece is a view of it."""
    parts: list[np.ndarray] = []
    have = 0
    size = next(sizes)
    for piece in pieces:
        while len(piece):
            take = min(len(piece), size - have)
            parts.append(piece[:take])
            piece = piece[take:]
            have += take
            if have == size:
                yield _join(parts)
                parts, have, size = [], 0, next(sizes)
    if parts:
        yield _join(parts)


def _join(parts: list[np.ndarray]) -> np.ndarray:
    """The parts, concatenated along their first axis, monomial-major."""
    return parts[0] if len(parts) == 1 else np.concatenate([p.T for p in parts], axis=1).T


def _restricted(f: ANF, r: int, k: int, lo: int, ramp: bool) -> Iterator[np.ndarray]:
    """Weight-r slices of f's restrictions to the codim-k spaces whose
    pivots are all at least lo, r = deg f, in canonical order, monomial-major
    pieces no longer than _chunk_rows' chunks. Level 0 is f's top part. For
    p = lo .. n - k, the parents are the last [n-p-1 k-1]_2 rows of level
    k - 1, whose pivots all exceed p (module docstring, Order): sliced from
    that level when it is held, streamed again otherwise.
    """
    if k == 0:
        yield f.coeffs[_weight(f.n, r)].reshape(1, -1)
        return
    n, m = f.n, f.n - k + 1  # m: the dimension of a parent
    limits = _chunk_rows(m - 1, ramp)
    held = not ramp and count_codim(n, k - 1) << m <= _POINTS
    if held:
        level = _join(list(_restricted(f, r, k - 1, lo + 1, False)))
    for p in range(lo, m):
        count = count_codim(n - p - 1, k - 1)
        for rows in [level[len(level) - count :]] if held else _restricted(f, r, k - 1, p + 1, ramp):
            yield from _children(rows, m, r, p, limits)


def _children(rows: np.ndarray, m: int, r: int, p: int, limits: Iterator[int]) -> Iterator[np.ndarray]:
    """The _substituted slices of the hyperplanes with pivot p of the spaces
    on m variables with weight-r slices `rows`, in pieces of at most
    next(limits) rows: whole parents when all 2**s of a parent's fit, else
    one parent's in pieces of 2**q from a multiple of 2**q on."""
    s = m - 1 - p
    i = g = 0
    while i < len(rows):
        size = next(limits)
        if not g and size >> s:
            yield _substituted(rows[i : i + (size >> s)], m, r, p, 0, 1 << s)
            i += size >> s
            continue
        size = min(size, g & -g or size)
        yield _substituted(rows[i : i + 1], m, r, p, g, size)
        g = (g + size) % (1 << s)
        i += not g


@lru_cache(maxsize=None)
def _pivot_maps(m: int, r: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Gathers for _substituted from a parent's weight-r slice on m
    variables, a zero sentinel appended at C(m, r): per child position T
    (_weight(m - 1, r) order) that of A_T, and per j < m - 1 - p that of
    B_(T-c), c = p + j, or the sentinel where T lacks c. Read-only."""
    parent, child = _weight(m, r), _weight(m - 1, r)
    low = child & ((1 << p) - 1)
    t = (child ^ low) << 1 | low  # T in the parent's coordinates
    c = 1 << np.arange(p + 1, m)[:, None]
    a = np.searchsorted(parent, t)
    b = np.where(t & c, np.searchsorted(parent, t ^ c | 1 << p), len(parent))
    a.setflags(write=False)
    b.setflags(write=False)
    return a, b


@lru_cache(maxsize=None)
def _parity(q: int) -> np.ndarray:
    """Read-only; row w < 2**(q+1) holds parity(w & (2**q + g)) at g < 2**q."""
    w = np.arange(2 << q, dtype=np.min_scalar_type((2 << q) - 1))
    table = np.bitwise_count(w[:, None] & w[1 << q :]) & 1
    table.setflags(write=False)
    return table


def _substituted(rows: np.ndarray, m: int, r: int, p: int, first: int, size: int) -> np.ndarray:
    """Weight-r slices, monomial-major, of the hyperplanes with pivot p of
    the spaces on m variables with weight-r slices `rows` (module
    docstring, One pivot): per row, those whose free bits g run from
    `first`, a multiple of size = 2**q, to first + size - 1; bit j of g is
    the form's at coordinate p + 1 + j. first's bits add their rows E_j to
    A; A and the q rows below pack into w, whose _parity row holds the
    children's bits."""
    a, b = _pivot_maps(m, r, p)
    q = size.bit_length() - 1
    parent = np.concatenate([rows.T, np.zeros((1, len(rows)), dtype=np.uint8)])
    e = parent[b[[j for j in range(len(b)) if (first | size - 1) >> j & 1]]]
    w = parent[a].astype(np.min_scalar_type((2 << q) - 1))
    for row in e[q:]:
        w ^= row
    w <<= q
    for j in range(q):
        w |= np.left_shift(e[j], j, dtype=w.dtype)
    return _parity(q)[w].reshape(len(a), len(rows) * size).T


@lru_cache(maxsize=None)
def _normal_conditions(m: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The normal-kernel conditions on m variables, as gathers from the
    weight-r coefficients: column j is the degree-(r+1) monomial nu_j, row t
    its t-th variable i. Returns (position of nu_j - i among the weight-r
    positions, bit of i), each of shape (r + 1, C(m, r + 1)); the bits in
    the smallest dtype that holds m bits.
    """
    nu = _weight(m, r + 1)
    rest = nu.copy()
    src, bit = [], []
    for _ in range(r + 1):
        low = rest & -rest
        src.append(np.searchsorted(_weight(m, r), nu ^ low))
        bit.append(low)
        rest ^= low
    src = np.array(src).reshape(r + 1, -1)
    bit = np.array(bit, dtype=np.min_scalar_type((1 << m) - 1)).reshape(r + 1, -1)
    src.setflags(write=False)
    bit.setflags(write=False)
    return src, bit


def _normal_kernel_dims(part: np.ndarray, m: int, r: int) -> np.ndarray:
    """Per row of `part`, the weight-r ANF coefficients of a function on m
    variables in _weight(m, r) order: the dimension of the degree-drop
    normal kernel of those monomials, i.e. of `hyperplane_normal_basis`
    with them as the top part, by one GF(2) elimination batched over rows.

    A row that is zero (a restriction that already drops) has no condition,
    so its kernel is all of F_2^m.

    The elimination is the module docstring's (Kernel.). The pivot row
    itself becomes 0 once it has been counted; without the zeroing, a
    column with no pivot would clear a condition that was never counted.
    """
    src, bit = _normal_conditions(m, r)
    if not src.size:
        return np.full(len(part), m)
    # one row per monomial and one column per space, so that every step below
    # runs along the spaces; _drop_chunks's parts make part.T no copy
    coeffs = part.T
    conds = coeffs[src[0]] * bit[0][:, None]
    for s, b in zip(src[1:], bit[1:]):
        conds |= coeffs[s] * b[:, None]
    scratch = np.empty_like(conds)
    rank = np.zeros(len(part), dtype=np.intp)
    for j in reversed(range(m)):
        pivot = conds.max(axis=0)
        top = pivot >> j
        pivot *= top
        np.minimum(conds, np.bitwise_xor(conds, pivot, out=scratch), out=conds)
        rank += top
    return m - rank


def _lifted(f: ANF, k: int, ramp: bool = False):
    """Yield (start, drop_flags, drops_inside) over the codim-(k-1) spaces U,
    chunked as _drop_chunks (ramped for existence queries): drops_inside
    counts the degree-drop codim-k spaces inside each U.
    """
    if not 1 <= k <= f.n:
        raise EnumerationRangeError(f"co-dimension must lie in 1..n={f.n}, got {k}")
    m, r = f.n - k + 1, _int_degree(f)
    for start, dd, part in _drop_chunks(f, k - 1, ramp):
        yield start, dd, (1 << _normal_kernel_dims(part, m, r)) - 1


def _lifted_count(total: int, k: int) -> int:
    """Codim-k drop count from the sum of drops_inside over every U."""
    parents = (1 << k) - 1  # codim-(k-1) spaces containing one codim-k space
    if total % parents:
        raise InvariantViolationError(
            f"{total} codim-{k} drops over all codim-{k - 1} spaces is not a"
            f" multiple of {parents}, the number of parents of each"
        )
    return total // parents


def _meeting(n: int, k: int, d: int) -> int:
    """Number of codim-k subspaces of F_2^n whose annihilator meets a fixed
    d-dimensional span N: all [n k]_2 of them less the 2**(k*d) [n-d k]_2
    whose annihilator misses N (module docstring, New.)."""
    return count_codim(n, k) - (count_codim(n - d, k) << (k * d))


def _child_count(forms: np.ndarray, n: int, normals: Sequence[int]) -> int:
    """Number of distinct codim-(j+1) spaces S inside the codim-j spaces U
    with RREF annihilators `forms` (an int64 array, one row of j per U, in
    pivot order) whose annihilator A_S misses the span N of `normals`.

    A child of U adds one form a on U's free (non-pivot) columns, and A_S
    misses N iff A_U does and a lies outside A_U + N (module docstring,
    New.). Reduction modulo A_U, whose rows are RREF, fixes a, so a lies
    in A_U + N iff it lies in the span E_U of N's basis reduced modulo
    A_U, and A_U meets N iff those d vectors are dependent: such a U is
    dropped. For the others, reduction modulo E_U is linear, so applied to
    every a at once it leaves 0 exactly at the a's in E_U, which are
    dropped too.

    Reducing U's rows that carry a's lowest bit l by a puts the child in
    RREF. Such a row's pivot lies below l, and so below all of a, so no
    pivot moves, and a takes its place in the pivot order after U's pivots
    below l. The child's rank in the canonical order (subspaces._rank) is
    its key. The ranks are marked in a boolean array of [n j+1]_2 bytes
    when that is at most _SEEN_BYTES, and sorted otherwise.
    """
    if not len(forms):
        return 0
    j, d = forms.shape[1], len(normals)
    # N's basis modulo each A_U, eliminated on its lowest bits in place: a
    # vector that reaches 0 shows that A_U meets N (no U meets N = 0)
    basis = np.array(normals, dtype=np.int64).reshape(1, d).repeat(len(forms), axis=0)
    if d:
        basis = _reduced(basis, forms.T[:, :, None])
        live = np.ones(len(forms), dtype=bool)
        for i in range(d):
            row = basis[:, i : i + 1].copy()
            low = row & -row
            live &= low[:, 0] != 0
            basis ^= np.where(basis & low != 0, row, 0)
            basis[:, i : i + 1] = row
        forms, basis = forms[live], basis[live]
        if not len(forms):
            return 0
    by_row = np.ascontiguousarray(forms.T)  # by_row[i]: every U's row i
    cols = np.int64(1) << np.arange(n, dtype=np.int64)
    pivots = np.bitwise_or.reduce(by_row & -by_row, axis=0)
    isfree = (pivots[:, None] & cols) == 0
    free = np.broadcast_to(cols, isfree.shape)[isfree].reshape(len(forms), n - j)
    size = count_codim(n, j + 1)
    seen = np.zeros(size, dtype=bool) if size <= _SEEN_BYTES else None
    parts = []
    step = max(1, _CHUNK >> (n - j))
    for s in range(0, len(forms), step):
        a = xor_points(free[s : s + step], dtype=np.int64)
        parent, at = np.nonzero(_reduced(a, basis[s : s + step].T[:, :, None]))
        a = a[parent, at]
        parent += s
        low = a & -a
        u = by_row[:, parent]
        u ^= np.where(u & low != 0, a, 0)
        pos = np.bitwise_count(pivots[parent] & (low - 1))
        # the child's row i is u's row i below pos, a at pos, u's i - 1 above
        rows = np.empty((j + 1, len(a)), dtype=np.int64)
        for i in range(j + 1):
            rows[i] = np.where(pos > i, u[min(i, j - 1)], np.where(pos == i, a, u[max(i - 1, 0)]))
        piv = np.bitwise_count((rows & -rows) - 1).astype(np.int64)
        ranks = _rank(n, rows.T, piv.T)
        if seen is None:
            parts.append(_distinct(ranks))
        else:
            seen[ranks] = True
    if seen is None:
        return len(_distinct(np.concatenate(parts)))
    return int(np.count_nonzero(seen))


def _reduced(x: np.ndarray, basis: Iterable) -> np.ndarray:
    """x reduced modulo the span of `basis`, whose vectors each have a pivot,
    their lowest set bit, that no other of them holds (as in an RREF basis):
    each added where x holds its pivot. The vectors may be ints or arrays
    that broadcast against x."""
    for b in basis:
        x = x ^ np.where(x & (b & -b) != 0, b, 0)
    return x


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, sorted: np.unique by a sort, because
    np.unique's hash table (numpy 2.4) takes 20-35x longer on 8K int64s."""
    x = np.sort(x, axis=None)
    return x[np.concatenate(([True], x[1:] != x[:-1]))[: len(x)]]


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
    for start, dd, _ in _drop_chunks(f, k):
        for rows in codim_unrank(f.n, k, start + np.flatnonzero(dd)).tolist():
            yield LinearSubspace(f.n, tuple(rows))


def degree_drop_count(f: ANF, k: int) -> int:
    """Number of degree-drop linear subspaces of co-dimension k, lifted from
    the codim-(k-1) restrictions."""
    return _lifted_count(sum(int(c.sum()) for _, _, c in _lifted(f, k)), k)


def has_degree_drop_space(f: ANF, k: int) -> bool:
    """True iff some linear subspace of co-dimension k is degree-drop, i.e.
    some codim-(k-1) restriction has a nonzero normal kernel. At k = 1 that
    restriction is f itself, so the normal span of its top part answers."""
    if k == 1 <= f.n:
        return bool(hyperplane_normal_basis(f.n, _top(f)))
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
    min(3, n - deg(f)). Co-dimension 1 is read off the span N of the
    hyperplane normals, 2**dim N - 1 drops; each co-dimension k >= 2 off
    the codim-(k-1) scan, whose drop count must equal the row above; so no
    space of co-dimension 0 or k_max is enumerated. The spaces inside a
    codim-(k-1) drop are those whose annihilator meets N, counted in
    closed form, and the children, outside those, of the drops whose
    annihilator misses N (module docstring, New.)."""
    r = _int_degree(f)
    if k_max is None:
        k_max = max(0, min(3, f.n - r))
    elif k_max < 1:
        raise EnumerationRangeError(f"k_max must be >= 1, got {k_max}")
    normals = hyperplane_normal_basis(f.n, _top(f))
    d = len(normals)
    rows = [ProfileRow(1, (1 << d) - 1, (1 << d) - 1)] if k_max else []
    for k in range(2, k_max + 1):
        parts = []
        total = 0
        for start, dd, c in _lifted(f, k):
            parts.append(start + np.flatnonzero(dd))
            total += int(c.sum())
        drops = codim_unrank(f.n, k - 1, np.concatenate(parts))
        if len(drops) != rows[-1].count:
            raise InvariantViolationError(
                f"the codim-{k - 1} scan finds {len(drops)} drops, the row above"
                f" {rows[-1].count}"
            )
        count = _lifted_count(total, k)
        inside = _meeting(f.n, k, d) + _child_count(drops, f.n, normals)
        rows.append(ProfileRow(k, count, count - inside))
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
    effect; it stays while perfbench passes it (ROADMAP item 12)."""
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
        for start, dd, _ in _drop_chunks(f, k):
            forms = codim_unrank(f.n, k, start + np.arange(len(dd)))
            fast = _is_fast(comp.truth_table(), forms.astype(np.uint32), f.n - r)
            mismatches.extend((k, tuple(rows)) for rows in forms[fast != dd].tolist())
    return DualityReport(f.n, r, k_max, normals, cfast, tuple(mismatches))
