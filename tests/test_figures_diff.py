"""tests/figures_diff.py labels each figure of two --figures files."""

import json
import math

from figures_diff import classify, main, relative_change


def test_each_figure_gets_its_label():
    a = {"01 gate": {"same": 0.1, "moved": 1.0, "zero": 0.0, "gone": 3.0, "stop": "ascent"},
         "old criterion": {"x": 1.0}}
    b = {"01 gate": {"same": 0.1, "moved": 1.0 + 2.0**-52, "zero": 2.0**-52, "new": 4.0,
                     "stop": "grad_tol"},
         "new criterion": {"y": 2.0}}
    labels = {(crit, name): label for label, crit, name, _, _ in classify(a, b)}
    assert labels == {
        ("01 gate", "same"): "bit-identical",
        ("01 gate", "moved"): "moved",
        ("01 gate", "zero"): "moved",
        ("01 gate", "gone"): "removed",
        ("01 gate", "new"): "added",
        ("01 gate", "stop"): "moved",
        ("old criterion", "x"): "removed",
        ("new criterion", "y"): "added",
    }
    assert relative_change(1.0, 1.0 + 2.0**-52) == 2.0**-52
    assert relative_change(0.0, 2.0**-52) == math.inf
    assert relative_change(0.0, 0.0) == 0.0


def test_bits_decide_and_types_count():
    """-0.0 and 0.0, and 1 and 1.0, compare equal but differ, so they move."""
    a = {"c": {"z": 0.0, "n": 1, "k": None}}
    b = {"c": {"z": -0.0, "n": 1.0, "k": None}}
    assert [r[0] for r in classify(a, b)] == ["bit-identical", "moved", "moved"]


def test_cli_prints_the_changes_and_the_counts(tmp_path, capsys):
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps({"c": {"same": 2.5, "moved": 4.0}}))
    pb.write_text(json.dumps({"c": {"same": 2.5, "moved": 5.0, "new": 1.0}}))
    assert main([str(pa), str(pb)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "moved: c / moved: 4.0 -> 5.0 (0.25 relative, 1 absolute)",
        "added: c / new: None -> 1.0",
        "1 bit-identical, 1 moved, 1 added, 0 removed",
    ]
    assert main([str(pa)]) == 2
