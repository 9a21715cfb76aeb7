"""Command-line front end: exit codes, report formats, determinism."""

import json

from cssol.cli import ReportRow, _fmt, main


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


def test_solve_wronskian_affine(capsys):
    assert run(["solve-wronskian", "--f", "[[1,0]]"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["families"]) == 1


def test_corrupted_pair_exit_2(capsys):
    code = run(["verify-soliton", "--P", "[[0,0],[1,0]]",
                "--Q", "[[0,0],[2,0]]"])
    assert code == 2
    assert "dependent" in capsys.readouterr().err


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
    capsys.readouterr()


def test_bad_grid_flag(capsys):
    assert run(["energy", "--vortex", "n=1", "--grid", "banana"]) == 2
    capsys.readouterr()
