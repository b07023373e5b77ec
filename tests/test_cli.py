"""Command-line interface: outputs, formats, exit codes."""

import importlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import pytest

import degstab
from degstab import catalog, cli, degreedrop
from degstab.catalog import load_catalog
from degstab.cli import MAX_COUNT_DEGREE, MAX_COUNT_MONOMIALS, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enumerate_dd_human(capsys):
    code, out, _ = run(capsys, ["enumerate-dd", "--n", "4", "--anf", "123",
                                "--k", "1"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "codim 1: 7 of 15 linear spaces are degree-drop"
    assert lines[1:] == [
        "  x1=0", "  x1+x2=0", "  x1+x3=0", "  x1+x2+x3=0",
        "  x2=0", "  x2+x3=0", "  x3=0",
    ]


def test_enumerate_dd_csv_and_json(capsys):
    code, out, _ = run(capsys, ["enumerate-dd", "--n", "4", "--anf", "123",
                                "--k", "1", "--csv"])
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "codim,subspace"
    assert rows[1] == '1,"x1=0"'
    assert len(rows) == 8

    code, out, _ = run(capsys, ["enumerate-dd", "--n", "4", "--anf", "123",
                                "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 4 and data["degree"] == 3
    assert [d["codim"] for d in data["drops"]] == [1]
    assert data["drops"][0]["count"] == 7
    assert data["drops"][0]["total"] == 15


def test_enumerate_dd_max_codim_default(capsys):
    # degree 3 in 5 variables leaves room for co-dimensions 1 and 2
    code, out, _ = run(capsys, ["enumerate-dd", "--n", "5", "--anf",
                                "123+145", "--json"])
    assert code == 0
    assert [d["codim"] for d in json.loads(out)["drops"]] == [1, 2]


def test_count_plain(capsys):
    code, out, _ = run(capsys, ["count", "--r", "3", "--n", "7"])
    assert (code, out) == (0, "34355647824\n")
    code, out, _ = run(capsys, ["count", "--r", "4", "--n", "7"])
    assert (code, out) == (0, "34231364608\n")


def test_count_csv(capsys):
    code, out, _ = run(capsys, ["count", "--r", "3", "--n", "5", "--csv"])
    assert code == 0
    assert out.splitlines() == [
        "r,n,j,count",
        "3,5,0,0",
        "3,5,1,868",
        "3,5,2,0",
        "3,5,3,155",
    ]


def test_count_json(capsys):
    code, out, _ = run(capsys, ["count", "--r", "3", "--n", "7", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["k1_count"] == 34355647824
    assert data["histogram"][0] == 34355647824
    assert sum(data["histogram"]) == 2 ** 35 - 1
    float(data["drop_probability"])  # printable decimal


@pytest.mark.parametrize("n, r, monomials", [(200, 100, comb(200, 100)), (60, 3, 34220)])
def test_count_beyond_the_printable_limit_is_a_usage_error(capsys, n, r, monomials):
    # both once failed mid-computation: an OverflowError traceback from
    # 1 << C(200, 100), and CPython's 4,300-digit message for 2**C(60, 3)
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["count", "--n", str(n), "--r", str(r)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == (
        f"error: count needs C(n, r) <= {MAX_COUNT_MONOMIALS}, the monomials"
        f" whose counts print in full; got C({n}, {r}) = {monomials}\n"
    )
    assert peak < 1 << 20


def test_count_limit_keeps_every_accepted_count_printable(capsys):
    # every count is below 2**C(n, r); the largest below the limit prints
    assert len(str((1 << MAX_COUNT_MONOMIALS) - 1)) == 4300
    with pytest.raises(ValueError, match="4300 digits"):
        str((1 << (MAX_COUNT_MONOMIALS + 1)) - 1)
    # C(45, 3) = 14,190 is under the limit and C(46, 3) = 15,180 above it
    code, out, _ = run(capsys, ["count", "--n", "45", "--r", "3"])
    assert code == 0 and 4000 < len(out) <= 4301
    code, _, err = run(capsys, ["count", "--n", "46", "--r", "3"])
    assert code == 2 and "C(46, 3) = 15180" in err


@pytest.mark.parametrize("n, r", [(400, 399), (200, 199), (101, 101), (103, 101)])
def test_count_above_the_degree_limit_is_a_usage_error(capsys, n, r):
    # C(n, r) is small for each, but the histogram's work grows with r:
    # 400, 399 once ran past 20 s
    code, out, err = run(capsys, ["count", "--n", str(n), "--r", str(r)])
    assert (code, out) == (2, "")
    assert err == (
        f"error: count needs r <= {MAX_COUNT_DEGREE}, the degrees whose counts"
        f" end within a second; got r={r}\n"
    )


def test_count_degree_limit_accepts_its_edge(capsys):
    # the heaviest accepted degree; the histogram checks its own sum
    r = MAX_COUNT_DEGREE
    code, out, _ = run(capsys, ["count", "--n", str(r + 2), "--r", str(r), "--json"])
    assert code == 0
    assert sum(json.loads(out)["histogram"]) == 2 ** comb(r + 2, r) - 1


def test_analyze_human(capsys):
    code, out, _ = run(capsys, ["analyze", "--n", "8", "--anf", "123+456"])
    assert code == 0
    assert "deg_stab:   1" in out
    assert out.rstrip().endswith("consistency: PASS")


def test_analyze_json(capsys):
    code, out, _ = run(capsys, ["analyze", "--n", "8", "--anf", "123+456",
                                "--max-codim", "2", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["deg_stab"] == 1
    assert data["R"] == [0, 9]
    assert all(data["consistency"].values())


def test_analyze_reads_file(tmp_path, capsys):
    path = tmp_path / "f.anf"
    path.write_text("123+456\n")
    code, out, _ = run(capsys, ["analyze", "--n", "8", "--anf-file",
                                str(path)])
    assert code == 0
    assert f"input:      {path}" in out


def test_construct_circular(capsys):
    code, out, _ = run(capsys, ["construct", "--method", "circular",
                                "--n", "9", "--r", "3", "--k", "2"])
    assert code == 0
    assert out.splitlines() == [
        "123+456+789",
        "codim-1-scan: PASS, codim-2-scan: PASS",
    ]


def test_construct_random(capsys, monkeypatch):
    # the exhaustive check must not rest on the mask kernel that
    # hyperplane-normal-space runs above 16 variables
    def refuse(*args):
        raise AssertionError("hyperplane_normal_basis called")

    monkeypatch.setattr(degreedrop, "hyperplane_normal_basis", refuse)
    code, out, _ = run(capsys, ["construct", "--n", "10", "--r", "4",
                                "--seed", "1", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["checks"] == {"witness-condition": "PASS",
                              "exhaustive-hyperplane-scan": "PASS"}
    assert data["seed"] == 1 and data["monomials"] >= 1


def test_construct_random_above_truth_table_ceiling(capsys):
    # no ANF is built: the normals are solved for on the monomial masks
    code, out, _ = run(capsys, ["construct", "--n", "40", "--r", "4",
                                "--seed", "1", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["checks"] == {"witness-condition": "PASS",
                              "hyperplane-normal-space": "PASS"}
    assert data["monomials"] >= 40


def test_construct_random_deterministic(capsys):
    argv = ["construct", "--n", "12", "--r", "4", "--seed", "7"]
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second


def test_construct_direct_sum(capsys):
    code, out, _ = run(capsys, ["construct", "--method", "direct-sum",
                                "--n", "9", "--r", "3", "--k", "3"])
    assert code == 0
    assert "deg-stab: PASS" in out


def test_construct_requires_k(capsys):
    code, _, err = run(capsys, ["construct", "--method", "circular",
                                "--n", "9", "--r", "3"])
    assert code == 2
    assert "error:" in err


def test_catalog_deg5_csv(capsys):
    code, out, _ = run(capsys, ["catalog", "--table", "deg5", "--csv",
                                "--threads", "4"])
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "id,hyperplanes,codim2,recorded_codim2"
    assert len(rows) == 21
    cells = {row.split(",")[0]: row.split(",") for row in rows[1:]}
    assert cells["f27"] == ["f27", "0", "99", "155"]
    assert cells["f13"] == ["f13", "0", "547", "547"]


def test_catalog_ksets_human(capsys):
    code, out, _ = run(capsys, ["catalog", "--table", "ksets",
                                "--threads", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["check", "ok"]
    assert len(lines) == 14
    assert all(line.rstrip().endswith("True") for line in lines[1:])


def test_catalog_mismatch_exit_code(monkeypatch, capsys):
    load_catalog.cache_clear()
    monkeypatch.setattr(catalog, "CATALOG_SHA256", "0" * 64)
    try:
        code, _, err = run(capsys, ["catalog", "--table", "deg3"])
    finally:
        monkeypatch.undo()
        load_catalog.cache_clear()
    assert code == 1
    assert "verification mismatch" in err


def test_symmetric_human(capsys):
    code, out, _ = run(capsys, ["symmetric", "--n", "8", "--r", "5"])
    assert code == 0
    assert out.splitlines() == [
        "symmetric functions of degree 5 in 8 variables have 1"
        " degree-drop hyperplane(s)",
        "normal: x1+x2+x3+x4+x5+x6+x7+x8=0",
    ]


def test_symmetric_json_and_anf_file(tmp_path, capsys):
    path = tmp_path / "sym.anf"
    code, out, _ = run(capsys, ["symmetric", "--n", "8", "--r", "4",
                                "--json", "--full-anf", str(path)])
    assert code == 0
    assert json.loads(out) == {"n": 8, "r": 4, "dd_hyperplanes": 0,
                               "normal": None}
    text = path.read_text().strip()
    assert text.count("+") == 69  # all 70 degree-4 monomials


def test_symmetric_builds_no_anf_for_the_verdict(capsys):
    # the closed form holds past the 24-variable truth-table limit; only
    # --full-anf needs the ANF
    code, out, _ = run(capsys, ["symmetric", "--n", "30", "--r", "3"])
    assert code == 0
    assert out.splitlines() == [
        "symmetric functions of degree 3 in 30 variables have 1 degree-drop hyperplane(s)",
        "normal: " + "+".join(f"x{i}" for i in range(1, 31)) + "=0",
    ]
    n = cli.MAX_SYMMETRIC_VARS + 1
    code, out, err = run(capsys, ["symmetric", "--n", str(n), "--r", "3"])
    assert code == 2 and out == ""
    assert f"n <= {cli.MAX_SYMMETRIC_VARS}" in err


def test_symmetric_out_of_range(capsys):
    code, _, err = run(capsys, ["symmetric", "--n", "7", "--r", "6"])
    assert code == 2
    assert "error:" in err


def test_bad_anf_is_usage_error(capsys):
    code, _, err = run(capsys, ["analyze", "--n", "4", "--anf", "12+"])
    assert code == 2
    assert "error:" in err


def test_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(capsys, ["analyze", "--n", "4", "--anf-file",
                                str(tmp_path / "absent.anf")])
    assert code == 2
    assert "error:" in err


def test_out_of_range_arguments_are_usage_errors(capsys):
    cases = [
        (["analyze", "--n", "25", "--anf", "x1*x2*x3"], "24 variables"),
        (["analyze", "--n", "4", "--anf", "123", "--max-codim", "9"],
         "--max-codim must be between 1 and n=4, got 9"),
        (["analyze", "--n", "4", "--anf", "123", "--max-codim", "0"],
         "--max-codim must be between 1 and n=4, got 0"),
        (["enumerate-dd", "--n", "4", "--anf", "123", "--k", "5"],
         "--k must be between 1 and n=4, got 5"),
        (["enumerate-dd", "--n", "4", "--anf", "123", "--max-codim", "-1"],
         "--max-codim must be between 1 and n=4, got -1"),
        (["enumerate-dd", "--n", "4", "--anf", "123", "--threads", "-1"],
         "--threads must be >= 0, got -1"),
    ]
    for argv, message in cases:
        code, out, err = run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and message in err, (argv, err)


_CIRCULAR = ["construct", "--method", "circular", "--n", "12", "--r", "4", "--k"]
_RANDOM = ["construct", "--method", "random", "--n", "12", "--r", "4", "--extend-prob"]


@pytest.mark.parametrize("argv, message", [
    (_CIRCULAR + ["-1"], "got k=-1"),
    (_CIRCULAR + ["-2"], "got k=-2"),
    (_CIRCULAR + ["0"], "got k=0"),
    (_RANDOM + ["-1"], "extend_prob must lie in [0, 1], got -1.0"),
    (_RANDOM + ["nan"], "extend_prob must lie in [0, 1], got nan"),
    (["count", "--r", "-1", "--n", "5"], "got r=-1, n=5"),
])
def test_bad_construct_and_count_values_are_usage_errors(capsys, argv, message):
    # each value is rejected where it is checked, before any arithmetic on it
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err, err


def test_usage_errors_survive_optimized_mode():
    # python -O strips assert statements; validation must not rely on them
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "degstab.cli",
         "analyze", "--n", "25", "--anf", "x1*x2*x3"],
        capture_output=True, text=True, env=_env_for_package_under_test(),
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and "24 variables" in proc.stderr


def test_unknown_table_rejected_by_parser(capsys):
    with pytest.raises(SystemExit) as info:
        main(["catalog", "--table", "bogus"])
    assert info.value.code == 2


def test_thread_count_does_not_change_output(capsys):
    argv = ["enumerate-dd", "--n", "8", "--anf", "123+456", "--k", "2"]
    single = run(capsys, argv + ["--threads", "1"])
    multi = run(capsys, argv + ["--threads", "4"])
    assert single == multi


def _entry_point():
    # the [project.scripts] target, as "module:function"
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["degstab"]
    return target.split(":")


def _env_for_package_under_test():
    # a fresh interpreter started with this env imports the degstab under test
    env = dict(os.environ)
    src = str(Path(degstab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def _run_entry_point(argv):
    # Run the entry point the way the generated console script does.
    module, func = _entry_point()
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=_env_for_package_under_test(),
    )


def test_console_script(capsys):
    proc = _run_entry_point(["count", "--r", "3", "--n", "7"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "34355647824\n"

    # the exit code of a failed command reaches the shell
    proc = _run_entry_point(["count", "--r", "9", "--n", "3"])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")

    # the console script hands the callable's return value to sys.exit, so
    # a successful command must return the int 0, not None
    module, func = _entry_point()
    entry = getattr(importlib.import_module(module), func)
    assert entry(["count", "--r", "3", "--n", "7"]) == 0
    assert capsys.readouterr().out == "34355647824\n"


def test_python_dash_m_degstab_runs_the_cli():
    outs = [
        subprocess.run(
            [sys.executable, "-m", module, "analyze", "--n", "4", "--anf", anf],
            capture_output=True, text=True, env=_env_for_package_under_test(),
        )
        for anf in ("12", "0")
        for module in ("degstab", "degstab.cli")
    ]
    assert [p.returncode for p in outs] == [0, 0, 2, 2]
    assert outs[0].stdout == outs[1].stdout and "deg_stab" in outs[0].stdout
    assert outs[2].stdout == outs[3].stdout == ""
    assert outs[2].stderr == outs[3].stderr


@pytest.mark.skipif(
    shutil.which("degstab") is None,
    reason="no degstab executable on PATH;"
           " run pip install -e . --no-build-isolation",
)
def test_console_script_installed():
    proc = subprocess.run(
        ["degstab", "count", "--r", "3", "--n", "7"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "34355647824\n"
