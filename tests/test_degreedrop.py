"""Degree-drop scans: enumeration, profiles, stability, duality."""

import random
import tracemalloc

import numpy as np
import pytest

import oracles
from degstab import (
    ANF,
    check_dd_fast_duality,
    deg_stab,
    dd_hyperplane_normal_space,
    enumerate_degree_drop,
    fast_points,
    has_degree_drop_space,
    k_membership,
    profile,
)
from degstab import construct, degreedrop
from degstab.degreedrop import (
    dd_hyperplane_normals,
    degree_drop_count,
    is_degree_drop,
    is_fast_space,
    restriction_degree,
)
from degstab.errors import (
    ConstantFunctionError,
    DependentDirectionsError,
    EnumerationRangeError,
    InvariantViolationError,
    NotHomogeneousError,
    VariableIndexError,
    ZeroDirectionError,
    ZeroFunctionError,
)
from degstab.report import build_report
from degstab.subspaces import LinearSubspace, codim_unrank, count_codim
from degstab.f2 import random_invertible, rref_rows
from helpers import random_degree, random_homogeneous, random_nonconstant, sparse_homogeneous


def test_single_space_predicates():
    f = ANF.parse("123", 5)
    h = LinearSubspace.hyperplane(5, 0b00001)  # x1 = 0 kills the monomial
    assert is_degree_drop(f, h)
    assert restriction_degree(f, h) == float("-inf")
    keep = LinearSubspace.hyperplane(5, 0b10000)
    assert not is_degree_drop(f, keep)
    assert restriction_degree(f, keep) == 3


def test_enumeration_matches_oracle_spans():
    rng = random.Random(1)
    for _ in range(60):
        n = rng.randint(3, 5)
        f = random_nonconstant(rng, n)
        for k in range(1, min(3, n - 1) + 1):
            engine = {oracles.span_set(v.forms) for v in enumerate_degree_drop(f, k)}
            assert engine == oracles.degree_drop_spans(n, f.monomials(), k)


def test_drop_depends_only_on_top_part():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(3, 6)
        r = rng.randint(2, n - 1)
        f = random_degree(rng, n, r)
        top = f.top_part()
        for k in (1, 2):
            if k >= n:
                continue
            a = list(enumerate_degree_drop(f, k))
            b = list(enumerate_degree_drop(top, k))
            assert a == b


def test_count_and_membership_agree_with_enumeration():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(3, 6)
        f = random_nonconstant(rng, n)
        k = rng.randint(1, n - 1)
        spaces = list(enumerate_degree_drop(f, k))
        assert degree_drop_count(f, k) == len(spaces)
        assert has_degree_drop_space(f, k) == bool(spaces)
        assert k_membership(f, k) == (not spaces)


def test_profile_counts_and_new_counts():
    # new spaces are those with no degree-drop parent of one less codim
    rng = random.Random(4)
    for _ in range(25):
        n = rng.randint(3, 5)
        f = random_nonconstant(rng, n)
        k_max = min(3, n - 1)
        prof = profile(f, k_max=k_max)
        drops = {
            k: oracles.degree_drop_spans(n, f.monomials(), k)
            for k in range(1, k_max + 1)
        }
        for row in prof.rows:
            assert row.count == len(drops[row.codim])
            if row.codim == 1:
                assert row.new == row.count
            else:
                fresh = 0
                for span in drops[row.codim]:
                    parents = {
                        frozenset(sub)
                        for sub in (
                            oracles.span_set(list(combo))
                            for combo in _sub_spans(span, row.codim - 1)
                        )
                    }
                    if not (parents & {frozenset(s) for s in drops[row.codim - 1]}):
                        fresh += 1
                assert row.new == fresh


def _sub_spans(span: frozenset, k: int):
    # all k-dimensional subspaces of the given annihilator span
    from itertools import combinations

    vectors = sorted(span)
    seen = set()
    for combo in combinations(vectors, k):
        if oracles.f2_rank(combo) == k:
            sub = oracles.span_set(combo)
            if sub not in seen:
                seen.add(sub)
                yield sub


def test_profile_fingerprint_shape():
    f = ANF.parse("123+456", 8)
    fp = profile(f, k_max=3).fingerprint()
    assert fp == (0, 49, 49, 3059, 168)
    assert profile(f, k_max=3).counts() == (0, 49, 3059)


def test_deg_stab_definition():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 6)
        f = random_nonconstant(rng, n)
        s = deg_stab(f)
        for k in range(1, s + 1):
            assert not has_degree_drop_space(f, k)
        assert has_degree_drop_space(f, s + 1)


def test_deg_stab_known_values():
    assert deg_stab(ANF.parse("123", 6)) == 0  # x1=0 already drops
    assert deg_stab(ANF.parse("12+34+56", 6)) == 2
    assert deg_stab(ANF.parse("123+456", 6)) == 1
    assert deg_stab(ANF.parse("12345", 5)) == 0


def test_deg_stab_reports_a_broken_scan(monkeypatch):
    # the guaranteed drop at codim n - r + 1 is checked, not asserted away;
    # deg_stab asks the lifted existence test once per co-dimension
    asked = []
    monkeypatch.setattr(degreedrop, "has_degree_drop_space", lambda f, k: asked.append(k))
    with pytest.raises(InvariantViolationError):
        deg_stab(ANF.parse("123", 5))
    assert asked == [1, 2, 3]


def test_deg_stab_rejects_constants():
    with pytest.raises(ConstantFunctionError):
        deg_stab(ANF.one(4))
    with pytest.raises(ZeroFunctionError):
        deg_stab(ANF.zero(4))


def test_hyperplane_normals_match_oracle():
    rng = random.Random(6)
    for _ in range(60):
        n = rng.randint(2, 6)
        f = random_nonconstant(rng, n)
        r = int(f.degree())
        direct = {
            a
            for a in range(1, 1 << n)
            if oracles.is_degree_drop(n, f.monomials(), [a])
        }
        assert dd_hyperplane_normals(f) == direct


def test_normal_space_closure():
    rng = random.Random(7)
    for _ in range(80):
        n = rng.randint(2, 7)
        f = random_nonconstant(rng, n)
        space = dd_hyperplane_normal_space(f)
        members = set(space.normals) | {0}
        assert len(members) == 1 << space.dim
        for a in members:
            for b in members:
                assert a ^ b in members


def test_fast_points_match_oracle_and_closure():
    rng = random.Random(8)
    for _ in range(50):
        n = rng.randint(2, 6)
        f = random_nonconstant(rng, n)
        fp = fast_points(f)
        assert set(fp.points) == oracles.fast_point_set(n, f.monomials())
        members = set(fp.points) | {0}
        assert len(members) == 1 << fp.dim
    # every derivative of a constant is zero, and a zero derivative is fast
    for n in range(1, 7):
        assert fast_points(ANF.one(n)).points == frozenset(range(1, 1 << n))


def _small_functions():
    """Every nonzero function with n <= 3, and every nonzero homogeneous
    function with n = 4."""
    for n in range(1, 4):
        for bits in range(1, 1 << (1 << n)):
            yield ANF.from_monomials(n, [m for m in range(1 << n) if bits >> m & 1])
    for r in range(5):
        layer = [m for m in range(16) if m.bit_count() == r]
        for bits in range(1, 1 << len(layer)):
            yield ANF.from_monomials(4, [m for j, m in enumerate(layer) if bits >> j & 1])


def test_kernels_match_oracles_exhaustively():
    for f in _small_functions():
        n, monomials = f.n, f.monomials()
        normals = {
            a for a in range(1, 1 << n) if oracles.is_degree_drop(n, monomials, [a])
        }
        assert dd_hyperplane_normal_space(f).normals == normals, f
        assert fast_points(f).points == oracles.fast_point_set(n, monomials), f


def test_lift_matches_oracle_spans_exhaustively():
    # counts, existence, new and deg_stab are lifted from co-dimension k - 1;
    # the oracle restricts to every codim-k space symbolically
    rng = random.Random(14)
    fives = [random_nonconstant(rng, 5) for _ in range(4)]
    fives += [sparse_homogeneous(rng, 5, r, 4) for r in (2, 3, 4)]
    # normal spans of dimension d = 1 and 2 with new_2 > 0, so the codim-3
    # union takes children, outside the closed term, of drops that miss N
    spanned = [
        (ANF.from_monomials(5, [0b00111, 0b01101, 0b11010]), 1),
        (ANF.from_monomials(6, [0b001111, 0b011110, 0b111001, 0b111100]), 2),
    ]
    for f in [*_small_functions(), *fives, *(f for f, _ in spanned)]:
        n = f.n
        expected = oracles.drop_profile(n, f.monomials(), n)
        got = profile(f, k_max=n)
        assert [(row.codim, row.count, row.new) for row in got.rows] == expected, f
        for k, count, _ in expected:
            assert degree_drop_count(f, k) == count, (f, k)
            assert has_degree_drop_space(f, k) == (count > 0), (f, k)
        if f.degree() != 0:
            assert deg_stab(f) == next(k for k, count, _ in expected if count) - 1, f
    for f, d in spanned:
        rows = profile(f, 2).rows
        assert rows[0].count == 2**d - 1 and rows[1].new > 0, f


def test_meeting_counts_the_annihilators_that_meet_a_span():
    # the closed term of `new`, against a brute count over every annihilator
    rng = random.Random(24)
    for n in range(1, 7):
        for d in range(n + 1):
            basis: list[int] = []
            while len(basis) < d:
                basis = oracles.independent_rows(basis + [rng.randrange(1, 1 << n)])
            span = oracles.span_set(basis)
            for k in range(1, n + 1):
                brute = sum(1 for s in oracles.all_codim_spaces(n, k) if s & span)
                assert degreedrop._meeting(n, k, d) == brute, (n, k, d)


def test_profile_new_matches_the_containment_oracle():
    # `new` dedups the children of the codim-(k-1) drops by their rank; the
    # oracle tests every drop's hyperplane spans against the parent drops
    rng = random.Random(15)
    for i in range(16):
        n = rng.randint(3, 6)
        r = rng.randint(2, n - 1)
        f = random_degree(rng, n, r) if i % 2 else sparse_homogeneous(rng, n, r, 3)
        k_max = min(3, n)
        got = [(row.codim, row.count, row.new) for row in profile(f, k_max).rows]
        assert got == oracles.drop_profile(n, f.monomials(), k_max), f


def test_existence_agrees_with_the_count(monkeypatch):
    # has_degree_drop_space ramps its chunks and stops at the first drop;
    # degree_drop_count reads every chunk. _POINTS is set per scan so that
    # the codim-(k-1) rows take about 12 chunks, 4 of them ramping.
    fives = []  # every nonzero homogeneous function of degree 1 or 4 on 5 variables
    for r in (1, 4):
        layer = [m for m in range(32) if m.bit_count() == r]
        for bits in range(1, 1 << len(layer)):
            fives.append(ANF.from_monomials(5, [m for j, m in enumerate(layer) if bits >> j & 1]))
    rng = random.Random(16)
    randoms = [random_nonconstant(rng, n) for n in (6, 7, 8)]
    randoms += [random_degree(rng, n, r) for n in (6, 7, 8) for r in (2, 3, n - 3)]
    for f in [*_small_functions(), *fives, *randoms]:
        for k in range(1, f.n + 1):
            points = max(1, count_codim(f.n, k - 1) // 8) << (f.n - k + 1)
            monkeypatch.setattr(degreedrop, "_POINTS", points)
            assert has_degree_drop_space(f, k) == (degree_drop_count(f, k) > 0), (f, k)


def _chunk_forms(f, k, ramp=False):
    """The forms of each _drop_chunks chunk, decoded from its start rank."""
    return [
        codim_unrank(f.n, k, start + np.arange(len(dd)))
        for start, dd, _ in degreedrop._drop_chunks(f, k, ramp)
    ]


def test_ramped_chunks_concatenate_to_the_enumeration(monkeypatch):
    f = ANF.parse("123+456+147", 7)
    for points in (1 << 8, 1 << 11):
        monkeypatch.setattr(degreedrop, "_POINTS", points)
        for k in (1, 2, 3):
            full = [len(forms) for forms in _chunk_forms(f, k)]
            assert full[:-1] == [full[0]] * (len(full) - 1)
            # doubling from _POINTS >> _RAMP points, one row at least
            steps = degreedrop._RAMP
            ramp = [max(1, (points >> (steps - i)) >> (f.n - k)) for i in range(steps + 1)]
            chunks = _chunk_forms(f, k, True)
            sizes = [len(forms) for forms in chunks]
            assert np.concatenate(chunks).tolist() == list(map(list, oracles.iter_rref_forms(f.n, k)))
            assert sizes[: steps + 1] == ramp[: len(sizes)], (points, k, sizes)
            assert all(size == full[0] for size in sizes[steps + 1 : -1]), (points, k, sizes)
    # at 2**8 points and codim 2 the ramp crosses all four of its boundaries
    monkeypatch.setattr(degreedrop, "_POINTS", 1 << 8)
    sizes = [len(dd) for _, dd, _ in degreedrop._drop_chunks(f, 2, True)]
    assert sizes[:6] == [1, 1, 2, 4, 8, 8]
    # a level that fits one full chunk is read as that chunk, unramped: the
    # 511 hyperplanes at n = 9 take 130,816 of the 2**19 points
    monkeypatch.undo()
    f = ANF.parse("123+456+789+147+258", 9)
    assert [len(dd) for _, dd, _ in degreedrop._drop_chunks(f, 1, True)] == [511]


def test_existence_reaches_a_drop_in_the_last_rows(monkeypatch):
    # S = {x7 = x8 = 0} is the only codim-2 drop of this cubic and no
    # hyperplane drops, so the only codim-1 rows with a drop inside are S's
    # three parents, the last three hyperplanes in canonical order
    f = ANF.parse("127+347+157+257+357+457+367+567+128+148+158+458+268+368+468", 8)
    monkeypatch.setattr(degreedrop, "_POINTS", 1 << 10)
    inside = np.concatenate([c for _, _, c in degreedrop._lifted(f, 2, ramp=True)])
    assert np.flatnonzero(inside).tolist() == [252, 253, 254] and len(inside) == 255
    # ramped chunks of 1, 1, 2, 4 rows, then 8 each: the last holds rows 248..254
    assert [len(dd) for _, dd, _ in degreedrop._drop_chunks(f, 1, True)][-1] == 7
    assert not has_degree_drop_space(f, 1) and k_membership(f, 1)
    assert has_degree_drop_space(f, 2) and not k_membership(f, 2)
    assert deg_stab(f) == 1 and degree_drop_count(f, 2) == 1
    assert [str(v) for v in enumerate_degree_drop(f, 2)] == ["x7=0; x8=0"]


def test_existence_scans_past_the_int64_rank_limit():
    # [20 4]_2 exceeds 2**63, so codim_rank refuses that co-dimension, but
    # the scan counts positions from 0 and codim_unrank decodes the first
    # ones; x1 = x2 = x3 = x4 = 0, the first codim-4 space, already drops
    f = ANF.from_monomials(20, [0b11])
    assert count_codim(20, 4) > 2**63
    assert has_degree_drop_space(f, 5)
    assert str(next(enumerate_degree_drop(f, 4))) == "x1=0; x2=0; x3=0; x4=0"


def _scan(f, k, ramp=False):
    """forms and drop flags of _drop_chunks and ANF rows of _restricted,
    chunks concatenated; the forms decoded from each chunk's start rank.
    Each chunk's part must be its rows' weight-r columns."""
    rows = np.concatenate(list(degreedrop._restricted(f, k, 0, ramp)))
    at = degreedrop._weight(f.n - k, int(f.degree()))
    forms, flags = [], []
    for start, dd, part in degreedrop._drop_chunks(f, k, ramp):
        want = rows[start : start + len(dd), at]
        assert part.shape == want.shape and part.tobytes() == want.tobytes(), (f.n, k, ramp, start)
        forms.append(codim_unrank(f.n, k, start + np.arange(len(dd))))
        flags.append(dd)
    return np.concatenate(forms), np.concatenate(flags), rows


def _oracle_scan(f, k):
    """forms, drop flags and ANF rows from the oracle's truth-table route."""
    spaces = oracles.codim_forms_and_bases(f.n, k)
    forms = np.array([rows for rows, _ in spaces], dtype=np.int64).reshape(len(spaces), k)
    rows = b"".join(oracles.restriction_rows(f.n, f.monomials(), k))
    rows = np.frombuffer(rows, dtype=np.uint8).reshape(len(spaces), 1 << (f.n - k))
    degrees = [max((int(s).bit_count() for s in np.flatnonzero(row)), default=-1) for row in rows]
    return forms, np.array(degrees) < int(f.degree()), rows


def _assert_scans_equal(got, want, where):
    for name, a, b in zip(("forms", "flags", "rows"), got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), (name, *where)


def test_restriction_routes_match_the_truth_table_oracle(monkeypatch):
    # every n <= 7 and k, read whole and ramped. At 2**9 points some parent
    # levels fit and are held, the others are streamed again per pivot, and
    # the one-pivot step cuts some parents' hyperplanes into pieces that fix
    # their high free bits (ramped pieces start at 2**5 points)
    rng = random.Random(21)
    points = 1 << 9
    monkeypatch.setattr(degreedrop, "_POINTS", points)
    held = set()
    for n in range(1, 8):
        f = random_nonconstant(rng, n)
        for k in range(n + 1):
            want = _oracle_scan(f, k)
            if k:
                held.add(count_codim(n, k - 1) << (n - k + 1) <= points)
            for ramp in (False, True):
                _assert_scans_equal(_scan(f, k, ramp), want, (n, k, ramp))
    assert held == {True, False}


def test_restriction_routes_agree_on_wider_scans():
    # whole scans against the oracle's truth-table gather, where the
    # point-by-point oracle would take too long
    for n, k, text in (
        (9, 2, "123+456+789+147+258"),
        (10, 1, "x1*x2*x3+x4*x5*x6+x7*x8*x9+x1*x10"),
        (12, 1, "x1*x2*x3*x4+x5*x6*x7*x8+x9*x10*x11*x12+x1*x5*x9*x12"),
    ):
        f = ANF.parse(text, n)
        forms, _, rows = _scan(f, k)
        spaces = oracles.codim_forms_and_bases(n, k)
        assert forms.tolist() == [list(rows) for rows, _ in spaces], (n, k)
        want = oracles.gathered_rows(n, f.monomials(), k)
        assert rows.shape == want.shape and rows.tobytes() == want.tobytes(), (n, k)


def test_benchmarked_scans_build_their_parent_level_once(monkeypatch):
    # catalog-n8's profile steps scan (8, 2), stream-n9's count (9, 2). Each
    # holds its codim-1 level, built from f by one call per pivot 1..n-1; a
    # parent level streamed again per pivot would take n(n-1)/2 such calls
    step = degreedrop._substituted
    for n, k, text in ((8, 2, "123+456+178+238"), (9, 2, "123+456+789+147+258")):
        widths = []

        def counted(rows, *args):
            widths.append(rows.shape[1])
            return step(rows, *args)

        monkeypatch.setattr(degreedrop, "_substituted", counted)
        list(degreedrop._drop_chunks(ANF.parse(text, n), k))
        monkeypatch.undo()
        assert widths.count(1 << n) == n - 1, (n, k, widths)
        assert len(widths) < 3 * n, (n, k, widths)


def test_streamed_parents_follow_the_points_budget():
    # a streamed parent level comes in pieces of at most _POINTS points, so
    # rows of 2**17 and 2**19 coefficients stay a few at a time; pieces of a
    # fixed row count would take hundreds of MB here
    for n, call, expected in (
        (20, lambda f: has_degree_drop_space(f, 3), True),
        (18, lambda f: str(next(enumerate_degree_drop(f, 2))), "x1=0; x2=0"),
    ):
        f = ANF.from_monomials(n, [0b111])
        tracemalloc.start()
        try:
            value = call(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == expected
        assert peak < 16 << 20, (n, peak)


def test_child_count_marks_and_sorts_alike(monkeypatch):
    rng = random.Random(23)
    funcs = [random_degree(rng, n, r) for n, r in ((6, 2), (7, 3), (8, 3))]
    funcs.append(ANF.from_monomials(8, [0x3F]))
    # a normal span of dimension 1 whose codim-2 drops keep children
    spanned = ANF.from_monomials(7, [0b00111, 0b01101, 0b11010])
    normals = degreedrop.hyperplane_normal_basis(7, spanned.monomials())
    drops = np.array([s.forms for s in enumerate_degree_drop(spanned, 2)])
    assert len(normals) == 1 and degreedrop._child_count(drops, 7, normals) > 0
    funcs.append(spanned)
    marked = [profile(f, 3) for f in funcs]
    monkeypatch.setattr(degreedrop, "_SEEN_BYTES", 0)
    assert [profile(f, 3) for f in funcs] == marked


def test_lift_rejects_out_of_range_codims():
    f = ANF.parse("123", 5)
    for k in (0, 6):
        for check in (degree_drop_count, has_degree_drop_space, k_membership,
                      check_dd_fast_duality):
            with pytest.raises(EnumerationRangeError, match=f"1..n=5, got {k}"):
                check(f, k)


def test_enumeration_rejects_out_of_range_codims():
    f = ANF.parse("12", 3)
    for k in (-1, 4):
        with pytest.raises(EnumerationRangeError, match=f"0..n=3, got {k}"):
            list(enumerate_degree_drop(f, k))
    assert list(enumerate_degree_drop(f, 0)) == []


def test_kernels_match_scans_on_affine_images():
    # the scan engine and the derivative kernel stay as independent routes
    rng = random.Random(13)
    for n in range(1, 11):
        for _ in range(4):
            r = rng.randint(1, n)
            f = random_degree(rng, n, r) if rng.random() < 0.5 else sparse_homogeneous(rng, n, r, 6)
            g = f.compose_affine(random_invertible(n, rng=rng), rng.getrandbits(n))
            space = dd_hyperplane_normal_space(g)
            scanned = {v.forms[0] for v in enumerate_degree_drop(g, 1)}
            assert space.normals == scanned, g
            fp = fast_points(g)
            assert fp.points == {a for a in range(1, 1 << n) if is_fast_space(g, [a])}, g
            for pts, basis, dim in ((space.normals, space.basis, space.dim),
                                    (fp.points, fp.basis, fp.dim)):
                assert len(pts) == (1 << dim) - 1 and len(basis) == dim
                assert oracles.span_set(basis) == pts
                assert basis == tuple(rref_rows(sorted(pts), n)[0][:dim])


def test_normal_basis_above_the_truth_table_ceiling():
    # 13 disjoint cubic blocks have degree stability 12, so no hyperplane
    # drops; a variable shared by every monomial is the one normal; the
    # unused x40 is the one fast point
    n = 40
    blocks = [0b111 << (3 * j) for j in range(13)]
    assert degreedrop.hyperplane_normal_basis(n, blocks) == ()
    shared = [m | 1 << 39 for m in blocks]
    assert degreedrop.hyperplane_normal_basis(n, shared) == (1 << 39,)
    assert degreedrop.fast_point_basis(n, blocks) == (1 << 39,)


def test_mask_kernels_at_70_variables_match_python_ints():
    # above 64 variables the masks are Python ints on object arrays; the
    # oracle builds the conditions in a dict and eliminates column by column
    rng = random.Random(70)
    n = 70
    layer = lambda r, pool: [sum(1 << v for v in rng.sample(pool, r)) for _ in range(40)]
    tops = [
        construct.randomized_construction(n, 4, 1).masks,
        layer(4, range(n)),
        [m | 1 << 69 for m in layer(3, range(69))],  # x70 in every monomial
        [m | 1 << 5 | 1 << 66 for m in layer(2, range(60))],
        layer(3, range(50, 70)),  # x1..x50 unused
    ]
    for top in tops:
        top = sorted(set(top))
        normals = degreedrop.hyperplane_normal_basis(n, top)
        fast = degreedrop.fast_point_basis(n, top)
        assert normals == oracles.canonical_kernel(n, oracles.normal_conditions(n, top))
        assert fast == oracles.canonical_kernel(n, oracles.fast_point_conditions(n, top))
    assert len(normals) == 0 and len(fast) == 50


def test_profile_rejects_an_empty_range():
    f = ANF.parse("123", 5)
    for k_max in (0, -3):
        with pytest.raises(EnumerationRangeError, match=f"got {k_max}"):
            profile(f, k_max)
    # the default range may be empty: degree n leaves no co-dimension
    assert profile(ANF.parse("12345", 5)).rows == ()


@pytest.mark.parametrize(
    "top, error",
    [
        ([0b1000], VariableIndexError),
        ([-1], VariableIndexError),
        ([0b1011], VariableIndexError),
        ([0b001, 0b110], NotHomogeneousError),
    ],
)
def test_mask_kernels_reject_bad_masks(top, error):
    # without the checks these gave wrong kernels, e.g. () for [0b001, 0b110]
    # where x2x3 alone has the normals (2, 4)
    for basis in (degreedrop.hyperplane_normal_basis, degreedrop.fast_point_basis):
        with pytest.raises(error):
            basis(3, top)


def test_fast_points_of_zero_function_rejected():
    with pytest.raises(ZeroFunctionError):
        fast_points(ANF.zero(4))


def test_is_fast_space_validates_directions():
    f = ANF.parse("1234", 6)
    with pytest.raises(DependentDirectionsError):
        is_fast_space(f, [0b1, 0b1])
    with pytest.raises(ValueError):
        is_fast_space(f, [])


@pytest.mark.parametrize(
    "directions, error",
    [
        ([0], ZeroDirectionError),
        ([0b1, 0], ZeroDirectionError),
        ([1 << 6], VariableIndexError),
        ([-1], VariableIndexError),
        ([0b11, 0b101, 0b110], DependentDirectionsError),
    ],
)
def test_direction_checks_agree(directions, error):
    # derivative, iterated_derivative and is_fast_space share one validator
    f = ANF.parse("1234", 6)
    with pytest.raises(error):
        f.iterated_derivative(directions)
    with pytest.raises(error):
        is_fast_space(f, directions)
    if len(directions) == 1:
        with pytest.raises(error):
            f.derivative(directions[0])


def test_iterated_fast_space_definition():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(3, 6)
        f = random_nonconstant(rng, n)
        r = int(f.degree())
        a = rng.randint(1, (1 << n) - 1)
        b = rng.randint(1, (1 << n) - 1)
        if oracles.f2_rank([a, b]) != 2:
            continue
        g = f.derivative(a).derivative(b)
        d = g.degree()
        expected = d == float("-inf") or d < r - 2
        assert is_fast_space(f, [a, b]) == expected
    for n in range(1, 7):
        assert all(is_fast_space(ANF.one(n), [a]) for a in range(1, 1 << n))


def test_duality_on_random_homogeneous():
    rng = random.Random(10)
    for _ in range(60):
        n = rng.randint(3, 6)
        r = rng.randint(1, n - 1)
        f = random_homogeneous(rng, n, r)
        rep = check_dd_fast_duality(f, k_max=1)
        assert rep.ok
        # the two sides are literally the same set of masks
        assert rep.hyperplane_normals == rep.complement_fast_points


def test_duality_lists_the_points_of_unequal_spans(monkeypatch):
    # equal spans have equal RREF bases, so the points are compared only
    # when the bases differ: drop the complement's last fast-point basis
    # vector and the mismatches are the points of f's normals that use it
    real = degreedrop.fast_point_basis
    monkeypatch.setattr(degreedrop, "fast_point_basis", lambda n, top: real(n, top)[:-1])
    for text, n in (("123", 5), ("1234", 6), ("123+145", 6)):
        f = ANF.parse(text, n)
        cfast = fast_points(f.complement()).points
        expected = [(1, (a,)) for a in sorted(dd_hyperplane_normals(f) ^ cfast)]
        rep = check_dd_fast_duality(f, k_max=1)
        assert expected and list(rep.mismatches) == expected, text
        assert not rep.ok
        assert rep.complement_fast_points == cfast
        assert not build_report(f, text)["consistency"]["hyperplane_duality"]


def test_spans_build_no_point_set_until_read():
    # 2**19 - 1 fast points of x1 and 2**20 - 1 normals of x1...x20: a span
    # holds only its basis (at most 6 MB traced peak, the first call filling
    # the popcount table), against 42-153 MB when the points were stored
    x1 = ANF.from_monomials(20, [1])
    full = ANF.from_monomials(20, [(1 << 20) - 1])
    calls = (
        (lambda: fast_points(x1).count, (1 << 19) - 1),
        (lambda: dd_hyperplane_normal_space(full).count, (1 << 20) - 1),
        (lambda: check_dd_fast_duality(full).ok, True),
    )
    for call, expected in calls:
        tracemalloc.start()
        try:
            value = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == expected
        assert peak < 8 << 20, peak


def test_duality_codim_two(monkeypatch):
    rng = random.Random(11)
    for _ in range(10):
        f = random_homogeneous(rng, 6, rng.randint(2, 4))
        assert check_dd_fast_duality(f, k_max=2).ok
        # chunks of 16 codim-2 and 8 codim-3 rows, each decoded from its
        # own start rank
        monkeypatch.setattr(degreedrop, "_POINTS", 1 << 8)
        assert check_dd_fast_duality(f, k_max=3).ok
        monkeypatch.undo()


def test_duality_requires_homogeneous():
    with pytest.raises(NotHomogeneousError):
        check_dd_fast_duality(ANF.parse("12+3", 4))
