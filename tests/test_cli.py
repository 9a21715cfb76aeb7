"""Command-line front end: exit codes, report formats, determinism."""

import importlib
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from cssol.cli import ReportRow, _fmt, build_parser, main
from cssol.functionals import susy_rhs
from cssol.grid import load_field
from cssol.sampling import random_pair


def run(argv):
    return main(argv)


def test_report_row_pass_rule():
    assert ReportRow("x", 10.0, 10.05, 0.01).passed
    assert not ReportRow("x", 10.0, 10.2, 0.01).passed
    # small expected values: tolerance is absolute via max(1, |expected|)
    assert ReportRow("x", 0.0, 5e-7, 1e-6).passed


def test_fmt_is_17_sig_digits():
    assert _fmt(1.0 / 3.0) == "0.33333333333333331"


def test_usage_errors_exit_2(capsys):
    assert run(["solve-wronskian", "--f", "[[0,0]]"]) == 2
    assert run(["solve-wronskian", "--f", "not json"]) == 2
    assert run(["energy"]) == 2  # no field source given
    assert run(["no-such-command"]) == 2
    assert run(["estimate-gamma"]) == 2  # missing required --beta
    capsys.readouterr()


def test_solve_wronskian_families(capsys):
    assert run(["solve-wronskian", "--f", "[[1,0],[0,0],[1,0]]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["families"]) == 2
    assert all(f["residual"] <= 1e-10 for f in payload["families"])
    assert [f["parameters"]["k"] for f in payload["families"]] == ["0", "1"]
    assert all("R" in f["parameters"] for f in payload["families"])


def test_solve_wronskian_affine(capsys):
    assert run(["solve-wronskian", "--f", "[[1,0]]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["families"]) == 1


def test_corrupted_pair_exit_2(capsys):
    code = run(["verify-soliton", "--P", "[[0,0],[1,0]]",
                "--Q", "[[0,0],[2,0]]"])
    assert code == 2
    assert "dependent" in capsys.readouterr().err


def test_verify_soliton_row_names(capsys):
    assert run(["verify-soliton", "--vortex", "n=1", "--grid", "16,256"]) == 0
    names = [row["name"] for row in json.loads(capsys.readouterr().out)]
    assert names == ["mass", "liouville_residual", "bogomolnyi_gap_rel",
                     "susy_residual_rel", "symmetry_orbit", "total_vorticity"]


def test_verify_soliton_passes_on_a_mixed_degree_3_pair(capsys):
    # deg P = deg Q = 3: the vorticity window is [2, 4], and deg W = 2
    pair = random_pair(np.random.default_rng(2), max_degree=3)
    P, Q = (json.dumps([[c.real, c.imag] for c in p.coeffs]) for p in (pair.P, pair.Q))
    assert run(["verify-soliton", "--P", P, "--Q", Q]) == 0
    rows = {row["name"]: row for row in json.loads(capsys.readouterr().out)}
    assert rows["total_vorticity"]["computed"] == 2


def test_energy_json_deterministic(capsys, tmp_path):
    args = ["energy", "--vortex", "n=1", "--grid", "16,256"]
    assert run(args) == 0
    out1 = capsys.readouterr().out
    assert run(args) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    rep = json.loads(out1)
    assert rep["beta"] == 2.0
    assert abs(rep["quotient"] - 4 * 3.141592653589793) < 0.1


def test_energy_csv_header(capsys):
    assert run(["energy", "--vortex", "n=1", "--grid", "16,256",
                "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("beta,kinetic,cross,curvature,quartic")
    assert len(lines) == 2


def test_townes_report(capsys):
    assert run(["townes", "--csv"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "name,expected,computed,tolerance,pass"
    assert ",true" in out


def test_report_written_to_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert run(["townes", "--out", str(path)]) == 0
    capsys.readouterr()
    rows = json.loads(path.read_text())
    assert all(r["pass"] for r in rows)


def test_build_soliton_field_roundtrip(tmp_path, capsys):
    field = tmp_path / "u.npz"
    assert run(["build-soliton", "--vortex", "n=1", "--grid", "16,256",
                "--field-out", str(field)]) == 0
    capsys.readouterr()
    assert run(["energy", "--field", str(field), "--beta", "2"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert abs(rep["mass"] - 1.0) < 2e-2


def test_energy_field_requires_beta(tmp_path, capsys):
    field = tmp_path / "u.f8"
    assert run(["build-soliton", "--vortex", "n=1", "--grid", "16,64",
                "--field-out", str(field)]) == 0
    capsys.readouterr()
    assert run(["energy", "--field", str(field)]) == 2
    captured = capsys.readouterr()
    assert "--beta" in captured.err
    assert captured.out == ""


def test_energy_missing_field_file(capsys):
    assert run(["energy", "--field", "/nonexistent.npz"]) == 2
    assert capsys.readouterr().err == "error: /nonexistent.npz: no such field data file\n"


def test_bad_grid_flag(capsys):
    assert run(["energy", "--vortex", "n=1", "--grid", "banana"]) == 2
    capsys.readouterr()


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert run(["solve-wronskian", "--f", "[[1,0]]", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_energy_field_is_a_directory(tmp_path, capsys):
    assert run(["energy", "--field", str(tmp_path), "--beta", "1"]) == 2
    assert capsys.readouterr().err == f"error: {tmp_path}: no such field data file\n"


@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_identities_needs_a_field(count, capsys):
    assert run(["verify-identities", "--grid", "16,64", "--count", count, "--csv"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --count") and captured.out == ""


def test_energy_susy_rhs_is_the_weighted_square(tmp_path, capsys):
    """The report's susy_rhs key is susy_rhs(u, beta, -1) itself."""
    field = tmp_path / "u.f8"
    assert run(["build-soliton", "--vortex", "n=1", "--grid", "16,64",
                "--field-out", str(field)]) == 0
    capsys.readouterr()
    assert run(["energy", "--field", str(field), "--beta", "2"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["susy_rhs"] == susy_rhs(load_field(str(field)), 2.0, -1)


@pytest.mark.parametrize("betas", ["0:1:0", "1:0:-1"])
def test_scan_nonpositive_step_exits_2(betas, capsys):
    assert run(["scan", "--betas", betas]) == 2
    assert "step" in capsys.readouterr().err


@pytest.mark.parametrize("betas", ["1,1", "2,1"])
def test_scan_not_strictly_increasing_exits_2(betas, capsys):
    assert run(["scan", "--betas", betas, "--grid", "12,16"]) == 2
    assert "strictly increasing" in capsys.readouterr().err


ROW_KEYS = ["name", "expected", "computed", "tolerance", "pass"]
ROWS = {"": ROW_KEYS, "--json": ROW_KEYS, "--csv": ",".join(ROW_KEYS)}
ENERGY_KEYS = ["beta", "kinetic", "cross", "curvature", "quartic", "mass",
               "total_E_beta", "susy_rhs", "bogomolnyi_gap", "quotient"]
SCAN_HEADER = "beta,lower,upper,gamma_hat,stop_reason"

# Each subcommand on a small grid: its arguments, its exit code, and for the
# default format ("") and each format flag it takes, the report's shape: the
# JSON top-level keys (a row table's record keys) or the CSV header.
MATRIX = {
    "solve-wronskian": (["--f", "[[1,0],[0,0],[1,0]]"], 0,
                        {"": ["f", "families"]}),
    "build-soliton": (["--vortex", "n=1", "--grid", "16,64"], 0,
                      {"": ["beta", "max_degree", "mass", "quartic",
                            "total_vorticity", "grid"]}),
    "verify-soliton": (["--vortex", "n=1", "--grid", "16,256"], 0, ROWS),
    "verify-identities": (["--grid", "16,128", "--count", "1"], 0, ROWS),
    "energy": (["--vortex", "n=1", "--grid", "16,64"], 0,
               {"": ENERGY_KEYS, "--json": ENERGY_KEYS,
                "--csv": ",".join(ENERGY_KEYS)}),
    "estimate-gamma": (["--beta", "0", "--grid", "12,128"], 0,
                       {"": ["beta", "gamma_hat", "lower_bound",
                             "upper_bound", "iterations",
                             "final_gradient_norm", "stop_reason"]}),
    "scan": (["--betas", "1", "--grid", "12,128"], 0,
             {"": SCAN_HEADER, "--json": ["rows", "lipschitz", "monotone"],
              "--csv": SCAN_HEADER}),
    "townes": ([], 0, ROWS),
}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, (_, _, shapes) in MATRIX.items()
    for flag in shapes])
def test_report_formats(command, flag, tmp_path, capsys):
    extra, code, shapes = MATRIX[command]
    argv = [command, *extra] + ([flag] if flag else [])
    assert run(argv) == code
    out = capsys.readouterr().out
    assert out.endswith("\n") and not out.endswith("\n\n")
    if isinstance(shapes[flag], str):
        lines = out.splitlines()
        assert lines[0] == shapes[flag]
        assert {line.count(",") for line in lines} == {lines[0].count(",")}
    else:
        report = json.loads(out)
        keys = list(report[0] if isinstance(report, list) else report)
        assert keys == shapes[flag]
    path = tmp_path / "report"
    assert run(argv + ["--out", str(path)]) == code
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("argv", [
    ["solve-wronskian", "--f", "[[1,0]]", "--grid", "8,32"],
    ["solve-wronskian", "--f", "[[1,0]]", "--json"],
    ["solve-wronskian", "--f", "[[1,0]]", "--csv"],
    ["solve-wronskian", "--f", "[[1,0]]", "--seed", "1"],
    ["build-soliton", "--vortex", "n=1", "--mass-tol", "0.1"],
    ["build-soliton", "--vortex", "n=1", "--identity-tol", "0.1"],
    ["build-soliton", "--vortex", "n=1", "--seed", "1"],
    ["build-soliton", "--vortex", "n=1", "--json"],
    ["build-soliton", "--vortex", "n=1", "--csv"],
    ["verify-soliton", "--vortex", "n=1", "--field-out", "u.f8"],
    ["energy", "--vortex", "n=1", "--seed", "1"],
    ["estimate-gamma", "--beta", "0", "--json"],
    ["estimate-gamma", "--beta", "0", "--csv"],
    ["townes", "--grid", "8,32"],
    ["townes", "--seed", "1"],
], ids=lambda argv: f"{argv[0]} {[a for a in argv if a[:2] == '--'][-1]}")
def test_unread_flags_are_rejected(argv, capsys):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments" in captured.err
    assert captured.out == ""


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("cssol ")]
    assert len(lines) >= 8
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")


def test_readme_code_references_resolve():
    """Every backticked `cssol.<module>` in README.md is a module of the
    package, and every backticked `<module>.<name>` with <module> one of them
    is an attribute that module has."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    package = Path(importlib.import_module("cssol").__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    named = re.findall(r"`cssol\.(\w+)`", readme)
    assert len(named) >= 6 and set(named) <= modules
    refs = [(m, a) for m, a in re.findall(r"`(\w+)\.(\w+)`", readme) if m in modules]
    assert len(refs) >= 3
    for module, attr in refs:
        assert hasattr(importlib.import_module(f"cssol.{module}"), attr), f"{module}.{attr}"
