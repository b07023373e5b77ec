"""Bundled classification data: integrity, reproduction, certificates."""

import math

import pytest

import oracles
from degstab import catalog
from degstab.anf import ANF
from degstab.catalog import (
    CODIM2_STABLE_DEG3_N8,
    DEG4_N8_HYPERPLANE_WITNESSES,
    DEG4_N8_SINGLE_HYPERPLANE_FACTORS,
    DEG4_N8_WITH_DROP_TOTAL,
    DEG5_N8_CODIM2_COUNTS,
    DEGSTAB_TABLE,
    FAST_POINT_CONDITION_FIX,
    HYPERPLANE_STABLE_DEG3_N7,
    HYPERPLANE_STABLE_DEG5_N8,
    KNOWN_ERRATA,
    MONOMIAL_CONDITION_FIX,
    PAIRWISE_CONDITION_DEG3_N8,
    RANK_WITHOUT_DROP_WITNESS,
    RECORDED_F22_FIXES,
    apply_variable_substitution,
    load_catalog,
    representative,
    reproduce_degstab_table,
    reproduce_table_deg3,
    reproduce_table_deg5,
    verify_k_sets,
)
from degstab.construct import (
    check_fastpoint_sufficient,
    check_low_overlap,
    check_hyperplane_sufficient,
)
from degstab.counting import dd_hyperplane_histogram, k1_count
from degstab.degreedrop import (
    dd_hyperplane_normal_space,
    deg_stab,
    enumerate_degree_drop,
    fast_points,
    has_degree_drop_space,
    is_fast_space,
)
from degstab.errors import CatalogMismatchError, SingularMatrixError
from degstab.invariants import r_k


def test_load_catalog_shape():
    reps = load_catalog()
    assert [rep.id for rep in reps] == [f"f{i}" for i in range(2, 33)]
    small = [rep for rep in reps if rep.n_native <= 7]
    assert len(small) == 11 and len(reps) == 31
    for rep in reps:
        assert (rep.class_size is not None) == (rep.n_native <= 7)
        assert len(rep.expected_profile) == 5
        f = rep.anf()
        assert f.n == 8 and f.degree() == 3 and f.is_homogeneous()
        assert rep.complement_anf().degree() == 5


def test_class_sizes_weight_the_hyperplane_histogram_at_n7():
    # the 11 classes cover every nonzero cubic top part at n = 7, so their
    # sizes, weighted by the dimension of each class's normal span, give
    # the counting formula's histogram over all 2**35 - 1 of them
    classes = [rep for rep in load_catalog() if rep.n_native <= 7]
    assert sum(rep.class_size for rep in classes) == 2**35 - 1
    hist = [0] * 4
    for rep in classes:
        hist[dd_hyperplane_normal_space(rep.anf(7)).dim] += rep.class_size
    assert hist == [34_355_647_824, 4_078_732, 0, 11_811]
    assert hist == dd_hyperplane_histogram(3, 7)


def test_representative_lookup():
    assert representative("f13").id == "f13"
    with pytest.raises(KeyError):
        representative("f1")


def test_anf_respects_native_variable_count():
    rep = representative("f4")
    assert rep.n_native == 6
    assert rep.anf(6).monomials() == rep.anf(8).monomials()
    with pytest.raises(ValueError):
        representative("f13").anf(7)


def test_checksum_guard(monkeypatch):
    load_catalog.cache_clear()
    monkeypatch.setattr(catalog, "CATALOG_SHA256", "0" * 64)
    try:
        with pytest.raises(CatalogMismatchError):
            load_catalog()
    finally:
        monkeypatch.undo()
        load_catalog.cache_clear()
    assert len(load_catalog()) == 31


def test_reproduce_table_deg3():
    rows = reproduce_table_deg3()
    assert len(rows) == 31
    assert all(row.computed == row.expected for row in rows)
    by_id = {row.id: row.computed for row in rows}
    # the profile quadruple does not separate these class pairs
    for left, right in catalog.COINCIDING_PROFILE_PAIRS:
        assert by_id[left] == by_id[right]
    assert by_id["f2"] == (7, 875, 0, 17795, 0)
    assert by_id["f27"] == (0, 0, 0, 15, 15)
    assert by_id["f32"] == (0, 0, 0, 91, 91)


def test_reproduce_table_deg5():
    rows = reproduce_table_deg5()
    assert len(rows) == 20
    for row in rows:
        assert row.expected == (0, DEG5_N8_CODIM2_COUNTS[row.id])
        pinned = KNOWN_ERRATA.get(("deg5_n8", row.id), row.expected[1])
        assert row.computed == (0, pinned)
    assert {row.id for row in rows} == set(HYPERPLANE_STABLE_DEG5_N8)


def test_errata_values_against_independent_oracle():
    # both corrected cells recomputed by the shared-nothing span scan
    f27c = representative("f27").complement_anf(8)
    count8 = sum(1 for _ in oracles.degree_drop_spans(8, f27c.monomials(), 2))
    assert count8 == KNOWN_ERRATA[("deg5_n8", "f27")] == 99

    f12c = representative("f12").complement_anf(7)
    count7 = sum(1 for _ in oracles.degree_drop_spans(7, f12c.monomials(), 2))
    assert count7 == KNOWN_ERRATA[("deg4_n7", "f12")] == 63

    # the recorded cells differ, which is the point of the errata table
    assert DEG5_N8_CODIM2_COUNTS["f27"] == 155
    assert catalog.DEG4_N7_CODIM2_COUNTS["f12"] == 91


def _planes(n):
    # every 2-dimensional linear subspace of F_2^n once, as a basis (a, b)
    # with a < b < a ^ b
    for a in range(1, 1 << n):
        for b in range(a + 1, 1 << n):
            if a ^ b > b:
                yield a, b


@pytest.mark.parametrize("table, rep_id, n", [
    ("deg5_n8", "f27", 8),
    ("deg4_n7", "f12", 7),
])
def test_errata_values_against_fast_space_count(table, rep_id, n):
    # degree-drop / fast-space duality: the co-dimension 2 drop spaces of the
    # complement correspond to the 2-dimensional fast spaces of the cubic
    f = representative(rep_id).anf(n)
    planes = list(_planes(n))
    assert len(planes) == (2**n - 1) * (2**n - 2) // 6
    count = sum(1 for plane in planes if is_fast_space(f, plane))
    assert count == KNOWN_ERRATA[(table, rep_id)]


def test_errata_classes_identified_by_recorded_profile():
    # The recorded cubic profile of each erratum class belongs to no other
    # class, and test_reproduce_table_deg3 shows the stored polynomial
    # computes it, so the stored polynomial is in the named class: the
    # recorded complement cells contradict the class itself.
    profiles = [rep.expected_profile for rep in load_catalog()]
    for rep_id in ("f27", "f12"):
        assert profiles.count(representative(rep_id).expected_profile) == 1
    assert representative("f27").expected_profile == (0, 0, 0, 15, 15)


def test_verify_k_sets():
    checks = verify_k_sets()
    assert all(check.ok for check in checks.values())
    assert checks["hyperplane_stable_deg3_n7"].computed == HYPERPLANE_STABLE_DEG3_N7
    assert checks["hyperplane_stable_deg3_n7_size"].expected == k1_count(3, 7)
    assert checks["codim2_drop_probability_deg3_n7"].computed == "0.605765343"


def test_reproduce_degstab_table():
    cells = reproduce_degstab_table()
    values = {(cell.n, cell.r): cell.value for cell in cells}
    for n, row in DEGSTAB_TABLE.items():
        for r, expected in enumerate(row, start=1):
            assert values[(n, r)] == expected
    methods = {(cell.n, cell.r): cell.method for cell in cells}
    assert "witness" in methods[(8, 4)]
    assert "embedding" in methods[(6, 3)]


def test_f12_attains_codim2_stability():
    f = representative("f12").anf(7)
    assert deg_stab(f) == 2
    assert fast_points(f).count == 0


def test_condition_certificates():
    # direct checks: the monomial condition fails only for f22 among the
    # hyperplane-stable cubics, the fast point condition for exactly four
    # of the native 8-variable ones, all of which still have no fast points
    t5_failures = {
        rep_id for rep_id in catalog.HYPERPLANE_STABLE_DEG3_N8
        if not check_hyperplane_sufficient(representative(rep_id).anf(8)).ok
    }
    assert t5_failures == set(MONOMIAL_CONDITION_FIX)
    fp_failures = set()
    for i in range(13, 33):
        f = representative(f"f{i}").anf()
        assert fast_points(f).count == 0
        if not check_fastpoint_sufficient(f).ok:
            fp_failures.add(f"f{i}")
    assert fp_failures == set(FAST_POINT_CONDITION_FIX)


def test_condition_fixes_certify():
    for rep_id, mapping in MONOMIAL_CONDITION_FIX.items():
        f = representative(rep_id).anf(8)
        g = apply_variable_substitution(f, mapping).top_part()
        assert check_hyperplane_sufficient(g).ok
    for rep_id, mapping in FAST_POINT_CONDITION_FIX.items():
        f = representative(rep_id).anf(8)
        assert not check_fastpoint_sufficient(f).ok
        g = apply_variable_substitution(f, mapping).top_part()
        assert check_fastpoint_sufficient(g).ok


def test_recorded_f22_maps_do_not_certify():
    f22 = representative("f22").anf(8)
    g = apply_variable_substitution(f22, RECORDED_F22_FIXES["monomial_condition"])
    assert not check_hyperplane_sufficient(g.top_part()).ok
    g = apply_variable_substitution(f22, RECORDED_F22_FIXES["fast_point_condition"])
    assert not check_fastpoint_sufficient(g.top_part()).ok


def test_pairwise_ids_satisfy_condition():
    for rep_id in PAIRWISE_CONDITION_DEG3_N8:
        assert check_low_overlap(representative(rep_id).anf(8), 1)
    assert PAIRWISE_CONDITION_DEG3_N8 < catalog.HYPERPLANE_STABLE_DEG3_N8


def test_single_hyperplane_quartics():
    # multiplying a hyperplane-stable cubic in 7 variables by x8 yields a
    # quartic whose only degree-drop hyperplane is x8 = const
    assert set(DEG4_N8_SINGLE_HYPERPLANE_FACTORS) == HYPERPLANE_STABLE_DEG3_N7
    x8 = ANF.parse("x8", 8)
    for rep_id in DEG4_N8_SINGLE_HYPERPLANE_FACTORS:
        g = representative(rep_id).anf(8) * x8
        assert g.degree() == 4
        drops = [space.forms for space in enumerate_degree_drop(g, 1)]
        assert drops == [(0b10000000,)]


def test_quartic_hyperplane_witnesses():
    for text, count, kernel_dim in DEG4_N8_HYPERPLANE_WITNESSES:
        f = ANF.parse(text, 8)
        assert f.degree() == 4
        assert r_k(f, 1).dim == kernel_dim
        assert count == (1 << kernel_dim) - 1
        assert sum(1 for _ in enumerate_degree_drop(f, 1)) == count


def test_rank_without_drop_witness():
    f = ANF.parse(RANK_WITHOUT_DROP_WITNESS, 8)
    assert f.degree() == 4
    assert r_k(f, 2).dim > 0
    assert not has_degree_drop_space(f, 1)
    assert not has_degree_drop_space(f, 2)


def test_with_drop_total():
    total = 2 ** math.comb(8, 4) - 1
    assert total - k1_count(4, 8) == DEG4_N8_WITH_DROP_TOTAL


def test_apply_variable_substitution():
    f = ANF.parse("13", 4)
    g = apply_variable_substitution(f, {1: (1, 2)})
    assert g == ANF.parse("13+23", 4)
    assert apply_variable_substitution(f, {}) == f
    with pytest.raises(SingularMatrixError):
        apply_variable_substitution(f, {1: (2,), 2: (2,)})


def test_stability_sets_are_nested():
    assert CODIM2_STABLE_DEG3_N8 < catalog.HYPERPLANE_STABLE_DEG3_N8
    assert catalog.CODIM2_STABLE_DEG3_N7 < HYPERPLANE_STABLE_DEG3_N7
