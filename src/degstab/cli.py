"""Command-line front end.

Subcommands: analyze, enumerate-dd, count, construct, catalog, symmetric.
Exit codes: 0 on success, 1 when a verification or consistency check fails,
2 on usage errors.  All output is deterministic for a fixed invocation.
--threads is accepted (a negative value is a usage error) but passed to
nothing: every scan runs in one thread, so it never changes the output. Of
the library functions only degreedrop.dd_hyperplane_normal_space and
check_dd_fast_duality still take a thread count, which they ignore.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import catalog, construct, counting, degreedrop, report, special
from .anf import ANF
from .errors import CatalogMismatchError, DegstabError
from .subspaces import count_codim, format_subspace


def _check_codim(flag: str, value: int | None, n: int) -> None:
    if value is not None and not 1 <= value <= n:
        raise DegstabError(f"{flag} must be between 1 and n={n}, got {value}")


def _load_anf(args: argparse.Namespace) -> ANF:
    if args.anf is not None:
        text = args.anf
    else:
        with open(args.anf_file, encoding="ascii") as fh:
            text = fh.read()
    return ANF.parse(text, args.n)


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


# -- analyze ---------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    f = _load_anf(args)
    _check_codim("--max-codim", args.max_codim, f.n)
    if not f or f.degree() == 0:
        raise DegstabError("analyze needs a function of degree at least 1")
    rep = report.build_report(
        f, args.anf if args.anf is not None else args.anf_file,
        max_codim=args.max_codim,
    )
    if args.json:
        _emit(json.dumps(rep, indent=2))
    else:
        _emit(report.format_report(rep))
    return 0 if report.report_is_consistent(rep) else 1


# -- enumerate-dd ----------------------------------------------------------


def _cmd_enumerate_dd(args: argparse.Namespace) -> int:
    f = _load_anf(args)
    _check_codim("--k", args.k, f.n)
    _check_codim("--max-codim", args.max_codim, f.n)
    if not f or f.degree() == 0:
        raise DegstabError("enumeration needs a function of degree at least 1")
    if args.k is not None:
        codims = [args.k]
    else:
        limit = args.max_codim
        if limit is None:
            limit = min(3, max(1, f.n - int(f.degree())))
        codims = list(range(1, limit + 1))

    collected = []
    for k in codims:
        spaces = [
            format_subspace(v)
            for v in degreedrop.enumerate_degree_drop(f, k)
        ]
        collected.append((k, spaces))

    if args.json:
        _emit(json.dumps(
            {
                "n": f.n,
                "degree": int(f.degree()),
                "drops": [
                    {"codim": k, "count": len(spaces),
                     "total": count_codim(f.n, k), "subspaces": spaces}
                    for k, spaces in collected
                ],
            },
            indent=2,
        ))
    elif args.csv:
        _emit("codim,subspace")
        for k, spaces in collected:
            for text in spaces:
                _emit(f"{k},\"{text}\"")
    else:
        for k, spaces in collected:
            _emit(f"codim {k}: {len(spaces)} of {count_codim(f.n, k)} "
                  "linear spaces are degree-drop")
            for text in spaces:
                _emit(f"  {text}")
    return 0


# -- count -----------------------------------------------------------------


def _cmd_count(args: argparse.Namespace) -> int:
    r, n = args.r, args.n
    hist = counting.dd_hyperplane_histogram(r, n)
    if args.json:
        prob = counting.dd_probability(r, n)
        _emit(json.dumps(
            {
                "r": r,
                "n": n,
                "k1_count": hist[0],
                "histogram": hist,
                "drop_probability": counting.format_probability(prob.exact),
            },
            indent=2,
        ))
    elif args.csv:
        _emit("r,n,j,count")
        for j, value in enumerate(hist):
            _emit(f"{r},{n},{j},{value}")
    else:
        _emit(str(hist[0]))
    return 0


# -- construct ---------------------------------------------------------------


def _scan_budget(n: int) -> bool:
    # Exhaustive verification scans are kept to sizes where the full truth
    # table engine answers in seconds.
    return n <= 16


def _cmd_construct(args: argparse.Namespace) -> int:
    checks: list[tuple[str, str]] = []
    if args.method == "random":
        result = construct.randomized_construction(
            args.n, args.r, seed=args.seed, extend_prob=args.extend_prob
        )
        anf_text = result.to_text()
        witness = construct.check_hyperplane_sufficient(result)
        checks.append(("witness-condition", "PASS" if witness.ok else "FAIL"))
        if _scan_budget(args.n):
            clean = not degreedrop.has_degree_drop_space(result.to_anf(), 1)
            checks.append(
                ("exhaustive-hyperplane-scan", "PASS" if clean else "FAIL")
            )
        else:
            # no truth table: solve for the normals on the monomial masks
            clean = not degreedrop.hyperplane_normal_basis(result.n, result.masks)
            checks.append(
                ("hyperplane-normal-space", "PASS" if clean else "FAIL")
            )
        extra = {"monomials": len(result.masks),
                 "extension_monomials": len(result.extension)}
    elif args.method == "circular":
        if args.k is None:
            raise DegstabError("--k (stability order) is required for"
                               " --method circular")
        f = construct.circular_construction(args.n, args.r, args.k)
        anf_text = f.to_text()
        if _scan_budget(args.n):
            for k in range(1, args.k + 1):
                clean = not degreedrop.has_degree_drop_space(f, k)
                checks.append(
                    (f"codim-{k}-scan", "PASS" if clean else "FAIL")
                )
        else:
            checks.append(("codim-scan", "SKIPPED"))
        extra = {"monomials": len(f.monomials())}
    elif args.method == "direct-sum":
        if args.k is None:
            raise DegstabError("--k (number of summands) is required for"
                               " --method direct-sum")
        f = construct.direct_sum(args.r, args.k, args.n)
        anf_text = f.to_text()
        if _scan_budget(args.n):
            stab = degreedrop.deg_stab(f)
            checks.append(
                ("deg-stab", "PASS" if stab == args.k - 1 else "FAIL")
            )
        else:
            checks.append(("deg-stab", "SKIPPED"))
        extra = {"monomials": len(f.monomials())}
    else:  # pragma: no cover - argparse restricts choices
        raise DegstabError(f"unknown method {args.method!r}")

    ok = all(status != "FAIL" for _, status in checks)
    if args.json:
        _emit(json.dumps(
            {
                "method": args.method,
                "n": args.n,
                "r": args.r,
                "seed": args.seed,
                "anf": anf_text,
                "checks": dict(checks),
                **extra,
            },
            indent=2,
        ))
    else:
        _emit(anf_text)
        _emit(", ".join(f"{name}: {status}" for name, status in checks))
    return 0 if ok else 1


# -- catalog -----------------------------------------------------------------


def _catalog_rows(table: str) -> tuple[list[str], list[list]]:
    if table == "deg3":
        rows = catalog.reproduce_table_deg3()
        header = ["id", "codim1", "codim2", "new2", "codim3", "new3"]
        return header, [[row.id, *row.computed] for row in rows]
    if table == "deg5":
        rows = catalog.reproduce_table_deg5()
        header = ["id", "hyperplanes", "codim2", "recorded_codim2"]
        return header, [
            [row.id, row.computed[0], row.computed[1], row.expected[1]]
            for row in rows
        ]
    if table == "degstab":
        cells = catalog.reproduce_degstab_table()
        header = ["n", "r", "deg_stab", "method"]
        return header, [[c.n, c.r, c.value, c.method] for c in cells]
    if table == "ksets":
        checks = catalog.verify_k_sets()
        header = ["check", "ok"]
        return header, [[name, c.ok] for name, c in checks.items()]
    raise DegstabError(f"unknown table {table!r}")


def _cmd_catalog(args: argparse.Namespace) -> int:
    header, rows = _catalog_rows(args.table)
    if args.json:
        _emit(json.dumps(
            [dict(zip(header, row)) for row in rows], indent=2
        ))
    elif args.csv:
        _emit(",".join(header))
        for row in rows:
            _emit(",".join(
                f"\"{cell}\"" if isinstance(cell, str) and "," in cell
                else str(cell)
                for cell in row
            ))
    else:
        widths = [
            max(len(str(header[i])), *(len(str(row[i])) for row in rows))
            for i in range(len(header))
        ]
        _emit("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            _emit("  ".join(
                str(cell).ljust(w) for cell, w in zip(row, widths)
            ))
    return 0


# -- symmetric ---------------------------------------------------------------


def _cmd_symmetric(args: argparse.Namespace) -> int:
    verdict = special.symmetric_dd(args.n, args.r)
    f = special.elementary_symmetric(args.n, args.r)
    if args.full_anf:
        with open(args.full_anf, "w", encoding="ascii") as fh:
            fh.write(f.to_text() + "\n")
    normal_text = (
        "+".join(f"x{i}" for i in range(1, args.n + 1)) + "=0"
        if verdict.normal is not None else None
    )
    if args.json:
        _emit(json.dumps(
            {
                "n": args.n,
                "r": args.r,
                "dd_hyperplanes": verdict.count,
                "normal": normal_text,
            },
            indent=2,
        ))
    else:
        _emit(
            f"symmetric functions of degree {args.r} in {args.n} variables "
            f"have {verdict.count} degree-drop hyperplane(s)"
        )
        if normal_text is not None:
            _emit(f"normal: {normal_text}")
    return 0


# -- parser ------------------------------------------------------------------


def _add_anf_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True,
                     help="number of variables")
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--anf", help="polynomial text, e.g. '123+456'")
    group.add_argument("--anf-file", help="file containing polynomial text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degstab",
        description="Degree stability of Boolean functions restricted"
                    " to affine subspaces.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="full report for one function")
    _add_anf_arguments(analyze)
    analyze.add_argument("--max-codim", type=int, default=None)
    analyze.add_argument("--json", action="store_true")
    analyze.add_argument("--threads", type=int, default=1)
    analyze.set_defaults(func=_cmd_analyze)

    enum = commands.add_parser(
        "enumerate-dd", help="list the degree-drop linear subspaces")
    _add_anf_arguments(enum)
    enum.add_argument("--k", type=int, default=None,
                      help="exact co-dimension to enumerate")
    enum.add_argument("--max-codim", type=int, default=None)
    enum.add_argument("--json", action="store_true")
    enum.add_argument("--csv", action="store_true")
    enum.add_argument("--threads", type=int, default=1)
    enum.set_defaults(func=_cmd_enumerate_dd)

    count = commands.add_parser(
        "count", help="closed-form counts of hyperplane-stable functions")
    count.add_argument("--r", type=int, required=True)
    count.add_argument("--n", type=int, required=True)
    count.add_argument("--json", action="store_true")
    count.add_argument("--csv", action="store_true")
    count.set_defaults(func=_cmd_count)

    cons = commands.add_parser(
        "construct", help="build functions with stable degree")
    cons.add_argument("--n", type=int, required=True)
    cons.add_argument("--r", type=int, required=True)
    cons.add_argument("--seed", type=int, default=0)
    cons.add_argument("--method", choices=("random", "circular", "direct-sum"),
                      default="random")
    cons.add_argument("--k", type=int, default=None,
                      help="stability order (circular) or number of"
                           " summands (direct-sum)")
    cons.add_argument("--extend-prob", type=float, default=0.0)
    cons.add_argument("--json", action="store_true")
    cons.add_argument("--threads", type=int, default=1)
    cons.set_defaults(func=_cmd_construct)

    cat = commands.add_parser(
        "catalog", help="recompute the bundled classification tables")
    cat.add_argument("--table", choices=("deg3", "deg5", "degstab", "ksets"),
                     required=True)
    cat.add_argument("--json", action="store_true")
    cat.add_argument("--csv", action="store_true")
    cat.add_argument("--threads", type=int, default=1)
    cat.set_defaults(func=_cmd_catalog)

    sym = commands.add_parser(
        "symmetric", help="hyperplane verdict for symmetric functions")
    sym.add_argument("--n", type=int, required=True)
    sym.add_argument("--r", type=int, required=True)
    sym.add_argument("--full-anf", default=None,
                     help="write the elementary symmetric ANF to this file")
    sym.add_argument("--json", action="store_true")
    sym.set_defaults(func=_cmd_symmetric)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "threads", 0) < 0:
            raise ValueError(f"--threads must be >= 0, got {args.threads}")
        return args.func(args)
    except CatalogMismatchError as exc:
        print(f"verification mismatch: {exc}", file=sys.stderr)
        return 1
    except (DegstabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
