"""Report assembly: field contents, consistency checks, rendering."""

import pytest

from degstab import ANF
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
