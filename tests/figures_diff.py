"""Compare two `pytest --figures=PATH` files figure by figure.

    python tests/figures_diff.py A.json B.json

Each file maps a criterion to {name: value} (see conftest.py). Every figure
of either file is labelled bit-identical (the same JSON value, so the same
float bits), moved (with its relative change when both values are numbers),
added (only in B) or removed (only in A). The moved, added and removed
figures are printed one a line, then a count of each label. The exit status
is 0 whether or not figures moved, and 2 on a wrong number of arguments."""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

LABELS = ("bit-identical", "moved", "added", "removed")


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def relative_change(a, b) -> float:
    """|b - a| / |a|, inf when a is 0 and b is not"""
    if a == b:
        return 0.0
    return abs(b - a) / abs(a) if a != 0 else math.inf


def classify(a: dict, b: dict) -> list[tuple[str, str, str, object, object]]:
    """(label, criterion, name, value in a, value in b) for every figure of
    a or b, in criterion then name order; a missing value is None."""
    rows = []
    for crit in sorted(a.keys() | b.keys()):
        fa, fb = a.get(crit, {}), b.get(crit, {})
        for name in sorted(fa.keys() | fb.keys()):
            if name not in fb:
                label = "removed"
            elif name not in fa:
                label = "added"
            else:
                # json reads a float back with its bits, so == is bitwise here
                # (a NaN, which json writes as NaN, is compared by its repr)
                same = repr(fa[name]) == repr(fb[name]) and type(fa[name]) is type(fb[name])
                label = "bit-identical" if same else "moved"
            rows.append((label, crit, name, fa.get(name), fb.get(name)))
    return rows


def describe(row) -> str:
    label, crit, name, va, vb = row
    text = f"{label}: {crit} / {name}: {va!r} -> {vb!r}"
    if label == "moved" and _number(va) and _number(vb):
        text += f" ({relative_change(va, vb):.2g} relative, {abs(vb - va):.2g} absolute)"
    return text


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: figures_diff.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in args)
    rows = classify(a, b)
    for row in rows:
        if row[0] != "bit-identical":
            print(describe(row))
    counts = {label: sum(r[0] == label for r in rows) for label in LABELS}
    print(", ".join(f"{n} {label}" for label, n in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
