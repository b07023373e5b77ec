"""Report assembly: field contents, consistency checks, rendering."""

import dataclasses
import tracemalloc

import pytest

from degstab import ANF, degreedrop
from degstab.errors import ConstantFunctionError, ZeroFunctionError
from degstab.report import build_report, format_report, report_is_consistent


def test_build_report_fields():
    rep = build_report(ANF.parse("123+456", 8), "123+456")
    assert rep["input"] == "123+456"
    assert (rep["n"], rep["degree"], rep["deg_stab"]) == (8, 3, 1)
    assert rep["profile"] == [
        {"codim": 1, "count": 0, "new": 0},
        {"codim": 2, "count": 49, "new": 49},
        {"codim": 3, "count": 3059, "new": 168},
    ]
    assert rep["R"] == [0, 9, 37]
    assert rep["dd_hyperplane_space_dim"] == 0
    assert rep["checkers"] == {
        "no_common_variable": True, "low_overlap_k1": True,
        "hyperplane_sufficient": True,
        "fastpoint_sufficient": False,
    }
    assert rep["complement_fast_points"] == {"count": 0, "dim": 0}
    assert report_is_consistent(rep)


def test_report_hyperplane_rank_relation():
    rep = build_report(ANF.parse("1234", 8), "1234")
    assert rep["R"][0] == 4
    assert rep["dd_hyperplane_space_dim"] == 4
    assert rep["consistency"]["hyperplane_count_is_rank_power"]
    assert rep["consistency"]["hyperplane_duality"]


def test_report_max_codim_default():
    # n - r caps the scan depth: degree 3 in 4 variables leaves one codim
    rep = build_report(ANF.parse("123", 4), "123")
    assert [row["codim"] for row in rep["profile"]] == [1]
    rep = build_report(ANF.parse("123", 8), "123", max_codim=2)
    assert [row["codim"] for row in rep["profile"]] == [1, 2]


def test_report_ignores_lower_terms():
    f = ANF.parse("123+456+12+7+1", 8)
    lower = build_report(f, "x")
    top = build_report(f.top_part(), "x")
    assert lower == top


def test_report_rejects_constants():
    with pytest.raises(ZeroFunctionError):
        build_report(ANF.parse("1", 4) + ANF.parse("1", 4), "0")
    with pytest.raises(ConstantFunctionError):
        build_report(ANF.from_monomials(4, [0]), "1")


def test_format_report_rendering():
    rep = build_report(ANF.parse("123+456", 8), "123+456")
    text = format_report(rep)
    lines = text.splitlines()
    assert lines[0] == "input:      123+456"
    assert "codim 2:    49 degree-drop linear spaces (49 new)" in lines
    assert "deg_stab:   1" in lines
    assert "R:          0, 9, 37" in lines
    assert any(line.startswith("checkers:") and "hyperplane_sufficient=PASS" in line
               for line in lines)
    assert lines[-1] == "consistency: PASS"


def test_report_checks_the_profile_count_against_r1(monkeypatch):
    # the codim-1 count comes from the lift, R_1 from the monomial masks: a
    # wrong count must make the report inconsistent
    real = degreedrop.profile

    def off_by_one(f, k_max=None):
        prof = real(f, k_max)
        first = dataclasses.replace(prof.rows[0], count=prof.rows[0].count + 1)
        return dataclasses.replace(prof, rows=(first, *prof.rows[1:]))

    monkeypatch.setattr(degreedrop, "profile", off_by_one)
    rep = build_report(ANF.parse("1234", 8), "1234")
    assert rep["profile"][0]["count"] == 16
    assert rep["consistency"] == {
        "hyperplane_count_is_rank_power": False, "hyperplane_duality": True,
    }
    assert not report_is_consistent(rep)
    assert format_report(rep).splitlines()[-1] == "consistency: FAIL"


def test_report_reads_bases_not_point_sets():
    # x1...x18 has 2**18 - 1 normals and as many complement fast points; the
    # report shows only their dimensions and counts, so it builds no set of
    # them (about 1.5 MB traced peak, against 69 MB when each space was
    # expanded into a frozenset of its points)
    f = ANF.from_monomials(18, [(1 << 18) - 1])
    tracemalloc.start()
    try:
        rep = build_report(f, "x1*...*x18")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["dd_hyperplane_space_dim"] == 18
    assert rep["complement_fast_points"] == {"count": (1 << 18) - 1, "dim": 18}
    assert report_is_consistent(rep)
    assert peak < 8 << 20, peak
