"""Property tests: hyperplane normals and fast points under affine maps.

For g(x) = f(Mx + a) with M invertible, a hyperplane b.y = c of f pulls
back to (M^T b).x = c', and D_a' g(x) = (D_{Ma'} f)(Mx + a). So the normals
of g are M^T times those of f and its fast points are M^-1 times those of f.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from degstab import ANF, check_dd_fast_duality, dd_hyperplane_normal_space, fast_points, r_k
from degstab.f2 import random_invertible

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def affine_images(draw):
    """(f, M, g) with g = f(Mx + a): a top part drawn from one degree layer
    plus random lower terms, under a random invertible M and shift a."""
    n = draw(st.integers(1, 8))
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
