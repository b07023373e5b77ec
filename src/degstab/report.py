"""Assembly of the full analysis report for one function.

The report gathers everything the package can say about a single function:
its degree-drop profile, stability order, hyperplane normal space, product
rank invariants, the monomial-condition checker verdicts, and the fast point
space of the complement.  Two internal consistency checks tie the pieces
together; a report is only considered verified when both hold.

* hyperplane_count_is_rank_power: the profile's codim-1 count, from the
  lift's batched elimination on f's ANF row, is 2**R_1 - 1, with R_1 the
  rank defect of the map built from the monomial masks.
* hyperplane_duality: the degree-drop normals of f_r and the fast points of
  its complement, kernels of different conditions, have one RREF basis
  (equal spans have equal RREF bases).

Both spaces are read once, as RREF bases, so no set of up to 2**n - 1
points is built: a dimension and 2**dim - 1 are all the report shows.
"""

from __future__ import annotations

from typing import Any

from . import construct, degreedrop, invariants
from .anf import ANF
from .errors import ZeroFunctionError


def build_report(f: ANF, source: str, max_codim: int | None = None) -> dict[str, Any]:
    """Full analysis of a function of degree >= 1.

    `source` is echoed back as the "input" field.  Checkers and the
    complement analysis are evaluated on the top part, which is what the
    degree-drop behaviour depends on."""
    if not f:
        raise ZeroFunctionError("no report for the zero function")
    r = int(f.degree())
    if max_codim is None:
        max_codim = min(3, max(1, f.n - r))
    top = f.top_part()

    prof = degreedrop.profile(f, k_max=max_codim)
    stab = degreedrop.deg_stab(f)
    normals = degreedrop.hyperplane_normal_basis(f.n, top.monomials())
    rvals = invariants.r_values(top, max_codim)
    comp_fast = degreedrop.fast_point_basis(f.n, top.complement().monomials())
    return {
        "input": source,
        "n": f.n,
        "degree": r,
        "profile": prof.to_rows(),
        "deg_stab": stab,
        "dd_hyperplane_space_dim": len(normals),
        "R": rvals,
        "checkers": {
            "no_common_variable": construct.check_no_common_variable(top),
            "low_overlap_k1": construct.check_low_overlap(top, 1),
            "hyperplane_sufficient": construct.check_hyperplane_sufficient(top).ok,
            "fastpoint_sufficient": construct.check_fastpoint_sufficient(top).ok,
        },
        "complement_fast_points": {"count": (1 << len(comp_fast)) - 1, "dim": len(comp_fast)},
        "consistency": {
            "hyperplane_count_is_rank_power": prof.rows[0].count == (1 << rvals[0]) - 1,
            "hyperplane_duality": normals == comp_fast,
        },
    }


def report_is_consistent(report: dict[str, Any]) -> bool:
    return all(report["consistency"].values())


def format_report(report: dict[str, Any]) -> str:
    """Human-readable rendering, one fact per line."""
    lines = [
        f"input:      {report['input']}",
        f"n:          {report['n']}",
        f"degree:     {report['degree']}",
    ]
    for row in report["profile"]:
        lines.append("codim {codim}:    {count} degree-drop linear spaces ({new} new)".format(**row))
    lines.append(f"deg_stab:   {report['deg_stab']}")
    lines.append(f"hyperplane normal space dimension: {report['dd_hyperplane_space_dim']}")
    lines.append("R:          " + ", ".join(str(v) for v in report["R"]))
    checks = report["checkers"].items()
    lines.append("checkers:   " + ", ".join(f"{name}={'PASS' if ok else 'no'}" for name, ok in checks))
    comp = report["complement_fast_points"]
    lines.append(f"complement fast points: {comp['count']} (dimension {comp['dim']})")
    lines.append(f"consistency: {'PASS' if report_is_consistent(report) else 'FAIL'}")
    return "\n".join(lines)
