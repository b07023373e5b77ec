"""Assembly of the full analysis report for one function.

The report gathers everything the package can say about a single function:
its degree-drop profile, stability order, hyperplane normal space, product
rank invariants, the monomial-condition checker verdicts, and the fast point
space of the complement.  Two internal consistency checks tie the pieces
together; a report is only considered verified when both hold.
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
    normals = degreedrop.dd_hyperplane_normal_space(f)
    rvals = invariants.r_values(top, max_codim)

    hyper = construct.check_hyperplane_sufficient(top)
    fastpoint = construct.check_fastpoint_sufficient(top)
    comp_fast = degreedrop.fast_points(top.complement())
    duality = degreedrop.check_dd_fast_duality(top, k_max=1)

    consistency = {
        "hyperplane_count_is_rank_power": normals.count == (1 << rvals[0]) - 1,
        "hyperplane_duality": duality.ok,
    }
    return {
        "input": source,
        "n": f.n,
        "degree": r,
        "profile": prof.to_rows(),
        "deg_stab": stab,
        "dd_hyperplane_space_dim": normals.dim,
        "R": rvals,
        "checkers": {
            "no_common_variable": construct.check_no_common_variable(top),
            "low_overlap_k1": construct.check_low_overlap(top, 1),
            "hyperplane_sufficient": hyper.ok,
            "fastpoint_sufficient": fastpoint.ok,
        },
        "complement_fast_points": {
            "count": comp_fast.count,
            "dim": comp_fast.dim,
        },
        "consistency": consistency,
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
        lines.append(
            "codim {codim}:    {count} degree-drop linear spaces"
            " ({new} new)".format(**row)
        )
    lines.append(f"deg_stab:   {report['deg_stab']}")
    lines.append(
        f"hyperplane normal space dimension: "
        f"{report['dd_hyperplane_space_dim']}"
    )
    lines.append(
        "R:          " + ", ".join(str(v) for v in report["R"])
    )
    checkers = report["checkers"]
    lines.append(
        "checkers:   "
        + ", ".join(f"{name}={'PASS' if ok else 'no'}"
                    for name, ok in checkers.items())
    )
    comp = report["complement_fast_points"]
    lines.append(
        f"complement fast points: {comp['count']} (dimension {comp['dim']})"
    )
    verdict = "PASS" if report_is_consistent(report) else "FAIL"
    lines.append(f"consistency: {verdict}")
    return "\n".join(lines)
