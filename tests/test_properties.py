"""Property tests: hyperplane normals, fast points and profiles under affine
maps, the lifted codim-k engine against a direct scan, its batched normal
kernel against the oracle, and subspace ranks.

For g(x) = f(Mx + a) with M invertible, a hyperplane b.y = c of f pulls
back to (M^T b).x = c', and D_a' g(x) = (D_{Ma'} f)(Mx + a). So the normals
of g are M^T times those of f and its fast points are M^-1 times those of f,
and M maps the degree-drop spaces of g onto those of f, so the profiles agree.
"""

import random

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

import oracles
from degstab import (
    ANF,
    check_dd_fast_duality,
    dd_hyperplane_normal_space,
    degreedrop,
    fast_points,
    profile,
    r_k,
)
from degstab.counting import gaussian_binomial
from degstab.f2 import kernel_basis_of_rows, random_invertible, rank_of_rows, rref_rows
from degstab.subspaces import _CACHE_LIMIT, codim_rank, codim_unrank, count_codim

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def affine_images(draw, max_n=8):
    """(f, M, g) with g = f(Mx + a): a top part drawn from one degree layer
    plus random lower terms, under a random invertible M and shift a."""
    n = draw(st.integers(1, max_n))
    r = draw(st.integers(0, n))
    layer = [m for m in range(1 << n) if m.bit_count() == r]
    top = draw(st.lists(st.sampled_from(layer), min_size=1, max_size=8, unique=True))
    lower = draw(st.integers(0, (1 << (1 << n)) - 1))
    f = ANF.from_monomials(
        n, top + [m for m in range(1 << n) if m.bit_count() < r and lower >> m & 1]
    )
    m = random_invertible(n, draw(st.integers(0, 2**32 - 1)))
    return f, m, f.compose_affine(m, draw(st.integers(0, (1 << n) - 1)))


@PROPERTY
@given(affine_images())
def test_normals_transform_by_the_transpose(case):
    f, m, g = case
    mt = m.transpose()
    normals = dd_hyperplane_normal_space(g).normals
    assert normals == {mt.apply(b) for b in dd_hyperplane_normal_space(f).normals}
    assert all(a ^ b in normals for a in normals for b in normals if a != b)


@PROPERTY
@given(affine_images())
def test_fast_points_transform_by_the_inverse(case):
    f, m, g = case
    inv = m.inverse()
    assert fast_points(g).points == {inv.apply(b) for b in fast_points(f).points}


@PROPERTY
@given(affine_images())
def test_normal_count_is_two_to_r1_minus_one(case):
    _, _, g = case
    assert dd_hyperplane_normal_space(g).count == 2 ** r_k(g.top_part(), 1).dim - 1


@PROPERTY
@given(affine_images())
def test_hyperplane_duality(case):
    _, _, g = case
    top = g.top_part()
    report = check_dd_fast_duality(top, k_max=1)
    assert report.ok
    assert report.hyperplane_normals == dd_hyperplane_normal_space(g).normals
    assert report.complement_fast_points == fast_points(top.complement()).points
    assert report.hyperplane_normals == report.complement_fast_points


def _rows(prof):
    return [(row.codim, row.count, row.new) for row in prof.rows]


def _scanned_profile(g, k_max):
    """(codim, count, new) from the drop flags of every codim-k space."""
    rows, prev = [], set()
    for k in range(1, k_max + 1):
        drops = {
            oracles.span_set(forms)
            for start, dd, _ in degreedrop._drop_chunks(g, k)
            for forms in codim_unrank(g.n, k, start + np.flatnonzero(dd)).tolist()
        }
        rows.append((k, len(drops), oracles.new_count(drops, prev)))
        prev = drops
    return rows


@settings(PROPERTY, max_examples=40)
@given(affine_images(max_n=9), st.integers(1, 3))
def test_lift_equals_scan_on_affine_images(case, k_max):
    _, _, g = case
    # the scan side streams [9 3]_2 = 788,035 spaces at n = 9, k = 3; the
    # lift never enumerates them, so keep the reference to cached sizes
    k_max = min(k_max, g.n)
    while count_codim(g.n, k_max) > _CACHE_LIMIT:
        k_max -= 1
    assert _rows(profile(g, k_max)) == _scanned_profile(g, k_max)


@settings(PROPERTY, max_examples=40)
@given(affine_images(max_n=7))
def test_profile_is_affine_invariant(case):
    f, _, g = case
    k_max = min(3, f.n)
    assert profile(g, k_max) == profile(f, k_max)


@PROPERTY
@given(affine_images())
def test_codim1_row_equals_the_lift(case):
    # profile reads row 1 off the normal basis; degree_drop_count lifts it
    # from the codim-0 restriction through the batched normal kernel
    _, _, g = case
    (row,) = profile(g, 1).rows
    assert row.count == row.new == degreedrop.degree_drop_count(g, 1)


@PROPERTY
@given(affine_images())
def test_new_codim2_closed_form(case):
    # a codim-2 space is not new iff its annihilator meets the normal space N,
    # and 4**R_1 [n-R_1 2]_2 of the [n 2]_2 annihilators meet it only in 0
    _, _, g = case
    if g.n < 2:
        return
    n, r1 = g.n, dd_hyperplane_normal_space(g).dim
    row = profile(g, 2).rows[1]
    assert row.new == row.count - gaussian_binomial(n, 2) + 4**r1 * gaussian_binomial(n - r1, 2)


@st.composite
def weight_r_parts(draw, m, r, max_rows=8):
    """ANF rows on m variables, as a uint8 array, whose weight-r parts mix
    kinds: zero, random, and monomials that all hold a drawn set of
    variables, whose conditions then miss those bits. The other weights
    are random and must not matter."""
    layer = [mu for mu in range(1 << m) if mu.bit_count() == r]
    rows = []
    for _ in range(draw(st.integers(1, max_rows))):
        bits = draw(st.integers(0, (1 << (1 << m)) - 1))
        row = [bits >> x & 1 for x in range(1 << m)]
        for mu in layer:
            row[mu] = 0
        kind = draw(st.sampled_from(["zero", "random", "held"]))
        held = draw(st.integers(0, (1 << m) - 1)) if kind == "held" else 0
        if kind != "zero":
            pool = [mu for mu in layer if mu & held == held] or layer
            for mu in draw(st.lists(st.sampled_from(pool), max_size=len(pool))):
                row[mu] = 1
        rows.append(row)
    return np.array(rows, dtype=np.uint8).reshape(len(rows), 1 << m)


@pytest.mark.parametrize("m, r", [(m, r) for m in range(10) for r in range(m + 1)])
@settings(PROPERTY, max_examples=6)
@given(data=st.data())
def test_normal_kernel_dims_match_the_oracle(m, r, data):
    rows = data.draw(weight_r_parts(m, r))
    want = [
        len(oracles.canonical_kernel(m, oracles.normal_conditions(
            m, [mu for mu in range(1 << m) if mu.bit_count() == r and row[mu]])))
        for row in rows
    ]
    part = rows[:, degreedrop._weight(m, r)]
    assert degreedrop._normal_kernel_dims(part, m, r).tolist() == want


@st.composite
def bit_matrices(draw, max_cols=70):
    """(rows, ncols): rows drawn from the span of a few generators, so
    repeats, zero rows and more rows than columns all come up."""
    ncols = draw(st.integers(0, max_cols))
    gens = draw(st.lists(st.integers(0, (1 << ncols) - 1), max_size=ncols + 2))
    picks = draw(st.lists(st.integers(0, (1 << len(gens)) - 1), max_size=2 * ncols + 4))
    rows = []
    for pick in picks:
        row = 0
        for j, g in enumerate(gens):
            if pick >> j & 1:
                row ^= g
        rows.append(row)
    return rows, ncols


@PROPERTY
@given(bit_matrices())
def test_elimination_matches_gauss_jordan(case):
    rows, ncols = case
    want = oracles.gauss_jordan(rows, ncols)
    assert rref_rows(rows, ncols) == want
    assert rank_of_rows(rows, ncols) == want[1] == oracles.f2_rank(rows)
    assert kernel_basis_of_rows(rows, ncols) == oracles.kernel_basis(rows, ncols)


@st.composite
def rankable_spaces(draw, batch=1, max_n=24):
    """(n, list of RREF annihilators, seed): `batch` codim-k spaces of
    F_2^n, n <= max_n, at a k whose [n k]_2 fits int64 ranks."""
    n = draw(st.integers(1, max_n))
    k = draw(st.sampled_from([k for k in range(n + 1) if count_codim(n, k) < 2**63]))
    spaces = []
    for _ in range(batch):
        rows = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=k, max_size=k))
        hypothesis.assume(oracles.f2_rank(rows) == k)
        spaces.append(tuple(rref_rows(rows, n)[0]))
    return n, spaces, draw(st.integers(0, 2**32))


@PROPERTY
@given(rankable_spaces())
def test_codim_rank_ignores_row_order_and_basis(case):
    n, [forms], seed = case
    k = len(forms)
    rank = codim_rank(n, forms)
    assert 0 <= rank < count_codim(n, k)
    rng = random.Random(seed)
    assert codim_rank(n, rng.sample(forms, k)) == rank
    if k:
        # another basis of the same annihilator, reduced again
        mix = random_invertible(k, rng=rng).rows
        other = [0] * k
        for i, m in enumerate(mix):
            for j in range(k):
                if m >> j & 1:
                    other[i] ^= forms[j]
        assert codim_rank(n, rref_rows(other, n)[0]) == rank


@PROPERTY
@given(rankable_spaces(max_n=32))
def test_codim_rank_matches_the_oracle(case):
    n, [forms], seed = case
    rows = random.Random(seed).sample(forms, len(forms))
    assert codim_rank(n, rows) == oracles.codim_rank(n, rows)


@PROPERTY
@given(rankable_spaces(batch=6))
def test_codim_rank_batches_and_separates_spaces(case):
    n, spaces, _ = case
    ranks = codim_rank(n, np.array(spaces, dtype=np.int64).reshape(len(spaces), -1))
    assert ranks.tolist() == [int(codim_rank(n, forms)) for forms in spaces]
    for a, ra in zip(spaces, ranks.tolist()):
        for b, rb in zip(spaces, ranks.tolist()):
            assert (ra == rb) == (a == b)


@PROPERTY
@given(st.data())
def test_codim_unrank_round_trips(data):
    n = data.draw(st.integers(0, 32))
    k = data.draw(st.sampled_from([k for k in range(n + 1) if count_codim(n, k) < 2**63]))
    ranks = data.draw(st.lists(st.integers(0, count_codim(n, k) - 1), min_size=1, max_size=8))
    forms = codim_unrank(n, k, ranks)
    assert forms.shape == (len(ranks), k)
    assert codim_rank(n, forms).tolist() == ranks
    # the forms come back reduced: the RREF of their own rows
    for rows in forms.tolist():
        assert tuple(rows) == tuple(rref_rows(rows, n)[0][:k])
