"""Batch command-line front end: builds solitons, runs the verification
suites, evaluates energies, and drives the variational estimator.  Emits
JSON or CSV reports; exit code 0 = all checks pass, 1 = a check failed,
2 = usage or input error."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import poly
from .grid import Grid, integrate, load_field, quadrature, save_field
from .poly import ComplexPolynomial
from .soliton import (
    LiouvilleSolution,
    Soliton,
    VortexSpec,
    same_orbit,
    total_vorticity,
    vortex_ring,
)
from .wronskian_pairs import WronskianPair, solve_generic


# -- report plumbing -------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    name: str
    expected: float
    computed: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return (abs(self.computed - self.expected)
                <= self.tolerance * max(1.0, abs(self.expected)))


def _fmt(x) -> str:
    """17-significant-digit, locale-free numeric format."""
    return f"{float(x):.17g}"


def _rows_csv(rows: list[ReportRow]) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["name", "expected", "computed", "tolerance", "pass"])
    for r in rows:
        w.writerow([r.name, _fmt(r.expected), _fmt(r.computed),
                    _fmt(r.tolerance), str(r.passed).lower()])
    return buf.getvalue()


def _rows_json(rows: list[ReportRow]) -> str:
    return json.dumps(
        [
            {
                "name": r.name,
                "expected": r.expected,
                "computed": r.computed,
                "tolerance": r.tolerance,
                "pass": r.passed,
            }
            for r in rows
        ],
        indent=2,
    )


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _finish(rows: list[ReportRow], args) -> int:
    text = _rows_csv(rows) if getattr(args, "csv", False) else _rows_json(rows)
    _emit(text, getattr(args, "out", None))
    return 0 if all(r.passed for r in rows) else 1


def _parse_grid(text: str) -> Grid:
    try:
        L, M = text.split(",")
        return Grid(float(L), int(M))
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad --grid {text!r}: expected L,M") from exc


class UsageError(Exception):
    pass


def _parse_poly(text: str) -> ComplexPolynomial:
    """Polynomial JSON: ascending [re, im] coefficient pairs."""
    try:
        data = json.loads(text)
        coeffs = [complex(float(c[0]), float(c[1])) for c in data]
    except (json.JSONDecodeError, TypeError, IndexError, ValueError) as exc:
        raise UsageError(f"bad polynomial {text!r}: expected [[re,im],...]") from exc
    p = ComplexPolynomial(coeffs)
    if p.is_zero:
        raise UsageError("zero polynomial")
    return p


def _pair_from_args(args) -> WronskianPair:
    if getattr(args, "vortex", None):
        spec = _parse_vortex(args.vortex)
        return vortex_ring(spec).pair
    if getattr(args, "P", None) and getattr(args, "Q", None):
        try:
            return WronskianPair(_parse_poly(args.P), _parse_poly(args.Q))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError("need --vortex n=... or both --P and --Q")


def _parse_vortex(text: str) -> VortexSpec:
    """Vortex spec 'n=2' or 'n=2,b=1.5,c=0.3+0.1j,z0=1j,a=2'."""
    kw: dict = {}
    try:
        for part in text.split(","):
            k, v = part.split("=")
            k = k.strip()
            if k == "n":
                kw[k] = int(v)
            elif k == "b":
                kw[k] = float(v)
            elif k in ("a", "c", "z0"):
                kw[k] = complex(v)
            else:
                raise ValueError(f"unknown vortex parameter {k!r}")
        return VortexSpec(**kw)
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad --vortex {text!r}: {exc}") from exc


def _poly_json(p: ComplexPolynomial):
    return [[c.real, c.imag] for c in p.coeffs]


# -- subcommands -----------------------------------------------------------


def cmd_solve_wronskian(args) -> int:
    f = _parse_poly(args.f)
    families = solve_generic(f, seed=args.seed)
    payload = []
    ok = True
    for fam in families:
        ok = ok and fam.residual <= 1e-10
        payload.append(
            {
                "kind": fam.kind,
                "parameters": {k: str(v) for k, v in fam.parameters.items()},
                "P": _poly_json(fam.representative.P),
                "Q": _poly_json(fam.representative.Q),
                "residual": fam.residual,
            }
        )
    _emit(json.dumps({"f": _poly_json(f), "families": payload}, indent=2),
          args.out)
    return 0 if ok else 1


def cmd_build_soliton(args) -> int:
    pair = _pair_from_args(args)
    sol = Soliton(pair)
    g = _parse_grid(args.grid)
    u = sol.sample(g)
    if args.field_out:
        save_field(u, args.field_out)
    report = {
        "beta": sol.beta,
        "max_degree": pair.max_degree,
        "mass": quadrature(u, 2),
        "quartic": quadrature(u, 4),
        "total_vorticity": total_vorticity(sol),
        "grid": {"L": g.L, "M": g.M},
    }
    _emit(json.dumps(report, indent=2), args.out)
    return 0


def cmd_verify_soliton(args) -> int:
    from .functionals import liouville_residual, magnetic_energy

    pair = _pair_from_args(args)
    sol = Soliton(pair)
    g = _parse_grid(args.grid)
    u = sol.sample(g)
    beta = sol.beta
    n = pair.max_degree

    rows = [ReportRow("mass", 1.0, quadrature(u, 2), args.mass_tol)]
    lsol = LiouvilleSolution(pair)
    flux = integrate(g.sample(lsol.rhs).map(np.real)) / (8.0 * np.pi)
    rows.append(ReportRow("flux_over_8pi", float(n), float(flux), 1e-2))
    small = Grid(min(g.L, 8.0), min(g.M, 256))
    rows.append(ReportRow("liouville_residual", 0.0,
                          liouville_residual(pair, small), 1e-6))
    rep = magnetic_energy(u, beta)
    rows.append(ReportRow("bogomolnyi_gap_rel", 0.0,
                          rep.bogomolnyi_gap / rep.total_E_beta, 1e-3))
    rows.append(ReportRow("susy_residual_rel", 0.0,
                          abs(rep.bogomolnyi_gap - rep.susy_rhs)
                          / max(rep.total_E_beta, 1e-300), args.identity_tol))
    rng = np.random.default_rng(args.seed)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    lam = float(np.exp(rng.uniform(-0.5, 0.5)))
    t = poly.PairTransform(lam * np.array(
        [[q[0] + 1j * q[1], q[2] + 1j * q[3]],
         [-(q[2] - 1j * q[3]), q[0] - 1j * q[1]]]))
    ok, _ = same_orbit(pair, pair.transformed(t))
    rows.append(ReportRow("symmetry_orbit", 1.0, 1.0 if ok else 0.0, 1e-12))
    # vorticity range [n-1, 2n-2]: pass iff the count lies in the window
    v = total_vorticity(sol)
    rows.append(ReportRow(
        "total_vorticity",
        float(min(max(v, n - 1), max(2 * n - 2, n - 1))), float(v), 1e-12))
    return _finish(rows, args)


def cmd_verify_identities(args) -> int:
    from .functionals import inequality_battery, susy_rhs, magnetic_energy
    from .sampling import normalized, random_smooth_field

    g = _parse_grid(args.grid)
    rng = np.random.default_rng(args.seed)
    rows = []
    for i in range(args.count):
        u = normalized(random_smooth_field(g, rng, min_width=1.2))
        rep = inequality_battery(u, args.beta)
        worst = min(e.margin_rel for e in rep.entries)
        rows.append(ReportRow(f"field{i}_worst_margin", max(worst, 0.0),
                              worst, 1e-6))
        erep = magnetic_energy(u, args.beta, order=6)
        plus = susy_rhs(u, args.beta, +1, order=6)
        scale = max(abs(erep.total_E_beta), 1.0)
        rows.append(ReportRow(
            f"field{i}_factorization_minus", 0.0,
            (erep.bogomolnyi_gap - erep.susy_rhs) / scale, args.identity_tol))
        rows.append(ReportRow(
            f"field{i}_factorization_plus", 0.0,
            (erep.total_E_beta + 2 * np.pi * args.beta * erep.quartic - plus)
            / scale, args.identity_tol))
    return _finish(rows, args)


def cmd_energy(args) -> int:
    from .functionals import magnetic_energy

    if args.field:
        if not os.path.exists(args.field):
            raise UsageError(f"missing field file {args.field!r}")
        if args.beta is None:
            raise UsageError("--field needs --beta: a saved field carries no flux")
        u = load_field(args.field)
        beta = args.beta
    else:
        pair = _pair_from_args(args)
        sol = Soliton(pair)
        u = sol.sample(_parse_grid(args.grid))
        beta = args.beta if args.beta is not None else sol.beta
    rep = magnetic_energy(u, beta)
    payload = {k: getattr(rep, k) for k in (
        "beta", "kinetic", "cross", "curvature", "quartic", "mass",
        "total_E_beta", "susy_rhs", "bogomolnyi_gap", "quotient")}
    if args.csv:
        keys = list(payload)
        text = (",".join(keys) + "\n"
                + ",".join(_fmt(payload[k]) for k in keys))
    else:
        text = json.dumps(payload, indent=2)
    _emit(text, args.out)
    return 0


def cmd_estimate_gamma(args) -> int:
    from .variational import DescentConfig, estimate_gamma

    cfg = DescentConfig(grid=_parse_grid(args.grid), seed=args.seed)
    try:
        est = estimate_gamma(args.beta, cfg)
    except RuntimeError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.field_out:
        save_field(est.minimizer, args.field_out)
    payload = {
        "beta": est.beta,
        "gamma_hat": est.gamma_hat,
        "lower_bound": est.lower_bound,
        "upper_bound": est.upper_bound,
        "iterations": est.iterations,
        "final_gradient_norm": est.final_gradient_norm,
        "stop_reason": est.stop_reason,
    }
    _emit(json.dumps(payload, indent=2), args.out)
    sandwiched = (est.lower_bound * 0.97 <= est.gamma_hat
                  <= est.upper_bound * 1.03)
    return 0 if sandwiched else 1


def _parse_betas(text: str) -> list[float]:
    try:
        if ":" in text:
            parts = [float(x) for x in text.split(":")]
            start, stop, step = parts
            n = int(math.floor((stop - start) / step + 1e-9)) + 1
            return [start + i * step for i in range(n)]
        return [float(x) for x in text.split(",")]
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad --betas {text!r}: expected list or start:stop:step") from exc


def cmd_scan(args) -> int:
    from .variational import DescentConfig, structure_scan

    betas = [b for b in _parse_betas(args.betas) if b > 0]
    if not betas:
        raise UsageError("no positive beta values in --betas")
    cfg = DescentConfig(grid=_parse_grid(args.grid), seed=args.seed)
    res = structure_scan(betas, cfg)
    if args.json:
        text = json.dumps(
            {
                "rows": [
                    {"beta": r.beta, "lower": r.lower, "upper": r.upper,
                     "gamma_hat": r.gamma_hat,
                     "gamma_over_beta": r.gamma_over_beta}
                    for r in res.rows
                ],
                "lipschitz": list(res.lipschitz),
                "monotone": res.gamma_over_beta_monotone,
            },
            indent=2,
        )
    else:
        lines = ["beta,lower,upper,gamma_hat"]
        for r in res.rows:
            lines.append(",".join(
                _fmt(x) for x in (r.beta, r.lower, r.upper, r.gamma_hat)))
        text = "\n".join(lines)
    _emit(text, args.out)
    sandwiched = all(r.lower * 0.97 <= r.gamma_hat <= r.upper * 1.03
                     for r in res.rows)
    return 0 if (sandwiched and res.gamma_over_beta_monotone) else 1


def cmd_townes(args) -> int:
    from .variational import townes_profile

    prof = townes_profile()
    rows = [ReportRow("c_lgn", 0.931 * 2.0 * np.pi, prof.c_lgn, 5e-3),
            ReportRow("peak_amplitude", 2.2062, float(prof.tau[0]), 1e-3)]
    return _finish(rows, args)


# -- entry point -----------------------------------------------------------


def _add_common(sp, grid_default="40,1024"):
    sp.add_argument("--grid", default=grid_default, help="L,M")
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--out", default=None, help="write the report here")
    fmt = sp.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", default=False)
    fmt.add_argument("--csv", action="store_true", default=False)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cssol",
        description="Wronskian-pair solitons, identity suites, and the "
                    "interpolation-constant estimator.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve-wronskian", help="families with W(P,Q) = f")
    sp.add_argument("--f", required=True, help="[[re,im],...] ascending")
    _add_common(sp)
    sp.set_defaults(fn=cmd_solve_wronskian)

    for name, fn in (("build-soliton", cmd_build_soliton),
                     ("verify-soliton", cmd_verify_soliton)):
        sp = sub.add_parser(name)
        sp.add_argument("--vortex", help="n=2[,a=..,b=..,c=..,z0=..]")
        sp.add_argument("--P", help="[[re,im],...]")
        sp.add_argument("--Q", help="[[re,im],...]")
        sp.add_argument("--field-out", default=None,
                        help="save the sampled field: raw <f8 (re, im) "
                             "pairs, plus a PATH.json sidecar")
        sp.add_argument("--mass-tol", type=float, default=1e-2)
        sp.add_argument("--identity-tol", type=float, default=1e-4)
        _add_common(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("verify-identities",
                        help="factorization + inequality battery on random fields")
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--count", type=int, default=5)
    sp.add_argument("--identity-tol", type=float, default=1e-4)
    _add_common(sp, grid_default="16,256")
    sp.set_defaults(fn=cmd_verify_identities)

    sp = sub.add_parser("energy", help="energy decomposition of a field")
    sp.add_argument("--vortex")
    sp.add_argument("--P")
    sp.add_argument("--Q")
    sp.add_argument("--field", help="load a saved field: raw <f8 (re, im) "
                    "pairs, plus a PATH.json sidecar")
    sp.add_argument("--beta", type=float, default=None,
                    help="flux; required with --field, else the soliton's")
    _add_common(sp)
    sp.set_defaults(fn=cmd_energy)

    sp = sub.add_parser("estimate-gamma")
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--field-out", default=None)
    _add_common(sp, grid_default="12,128")
    sp.set_defaults(fn=cmd_estimate_gamma)

    sp = sub.add_parser("scan")
    sp.add_argument("--betas", required=True,
                    help="comma list or start:stop:step")
    _add_common(sp, grid_default="12,128")
    sp.set_defaults(fn=cmd_scan)

    sp = sub.add_parser("townes", help="ground-state shooting constant")
    _add_common(sp)
    sp.set_defaults(fn=cmd_townes)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
