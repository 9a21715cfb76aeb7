"""Batch command-line front end: builds solitons, runs the verification
suites, evaluates energies, and drives the variational estimator.  Emits
JSON or CSV reports; exit code 0 = all checks pass, 1 = a check failed,
2 = usage or input error."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .grid import Grid, integrate, load_field, quadrature, save_field
from .poly import ComplexPolynomial, PairTransform
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


def _cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return str(x).lower()
    return _fmt(x)


def _report(args, payload, ok: bool = True) -> int:
    """Write payload to --out, else stdout, and return the exit code (0 if
    ok, else 1).  In the CSV format the payload is a list of flat records
    with the same keys (a single dict is one record), written one line each
    under a header; otherwise it is written as indented JSON."""
    if getattr(args, "format", "json") == "csv":
        records = [payload] if isinstance(payload, dict) else payload
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(list(records[0]))
        w.writerows([_cell(v) for v in r.values()] for r in records)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


def _check_report(args, rows: list[ReportRow]) -> int:
    records = [asdict(r) | {"pass": r.passed} for r in rows]
    return _report(args, records, all(r.passed for r in rows))


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
    if args.vortex:
        return vortex_ring(_parse_vortex(args.vortex)).pair
    if args.P and args.Q:
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
    families = solve_generic(f)
    payload = [
        {
            "kind": fam.kind,
            "parameters": {k: str(v) for k, v in fam.parameters.items()},
            "P": _poly_json(fam.representative.P),
            "Q": _poly_json(fam.representative.Q),
            "residual": fam.residual,
        }
        for fam in families
    ]
    ok = all(fam.residual <= 1e-10 for fam in families)
    return _report(args, {"f": _poly_json(f), "families": payload}, ok)


def cmd_build_soliton(args) -> int:
    pair = _pair_from_args(args)
    sol = Soliton(pair)
    g = _parse_grid(args.grid)
    u = sol.sample(g)
    if args.field_out:
        save_field(u, args.field_out)
    return _report(args, {
        "beta": sol.beta,
        "max_degree": pair.max_degree,
        "mass": quadrature(u, 2),
        "quartic": quadrature(u, 4),
        "total_vorticity": total_vorticity(sol),
        "grid": {"L": g.L, "M": g.M},
    })


def cmd_verify_soliton(args) -> int:
    from .functionals import liouville_residual, magnetic_energy, susy_rhs
    from .sampling import haar_su2

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
                          abs(rep.bogomolnyi_gap - susy_rhs(u, beta, -1))
                          / max(rep.total_E_beta, 1e-300), args.identity_tol))
    rng = np.random.default_rng(args.seed)
    su2 = haar_su2(rng).entries
    lam = float(np.exp(rng.uniform(-0.5, 0.5)))  # drawn after the matrix
    ok, _ = same_orbit(pair, pair.transformed(PairTransform(lam * su2)))
    rows.append(ReportRow("symmetry_orbit", 1.0, 1.0 if ok else 0.0, 1e-12))
    # vorticity range [n-1, 2n-2]: pass iff the count lies in the window
    v = total_vorticity(sol)
    rows.append(ReportRow(
        "total_vorticity",
        float(min(max(v, n - 1), max(2 * n - 2, n - 1))), float(v), 1e-12))
    return _check_report(args, rows)


def cmd_verify_identities(args) -> int:
    from .functionals import inequality_battery, magnetic_energy, susy_rhs
    from .sampling import normalized, random_smooth_field

    if args.count < 1:
        raise UsageError(f"--count {args.count}: need at least one field")
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
        minus = susy_rhs(u, args.beta, -1, order=6)
        plus = susy_rhs(u, args.beta, +1, order=6)
        scale = max(abs(erep.total_E_beta), 1.0)
        rows.append(ReportRow(
            f"field{i}_factorization_minus", 0.0,
            (erep.bogomolnyi_gap - minus) / scale, args.identity_tol))
        rows.append(ReportRow(
            f"field{i}_factorization_plus", 0.0,
            (erep.total_E_beta + 2 * np.pi * args.beta * erep.quartic - plus)
            / scale, args.identity_tol))
    return _check_report(args, rows)


def cmd_energy(args) -> int:
    from .functionals import magnetic_energy, susy_rhs

    if args.field:
        u = load_field(args.field)
        if args.beta is None:
            raise UsageError("--field needs --beta: a saved field carries no flux")
        beta = args.beta
    else:
        sol = Soliton(_pair_from_args(args))
        u = sol.sample(_parse_grid(args.grid))
        beta = args.beta if args.beta is not None else sol.beta
    rep = asdict(magnetic_energy(u, beta)) | {"susy_rhs": susy_rhs(u, beta, -1)}
    payload = {k: rep[k] for k in (
        "beta", "kinetic", "cross", "curvature", "quartic", "mass",
        "total_E_beta", "susy_rhs", "bogomolnyi_gap", "quotient")}
    return _report(args, payload)


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
    payload = {k: getattr(est, k) for k in (
        "beta", "gamma_hat", "lower_bound", "upper_bound", "iterations",
        "final_gradient_norm", "stop_reason")}
    sandwiched = (est.lower_bound * 0.97 <= est.gamma_hat
                  <= est.upper_bound * 1.03)
    return _report(args, payload, sandwiched)


def _parse_betas(text: str) -> list[float]:
    try:
        if ":" in text:
            start, stop, step = (float(x) for x in text.split(":"))
            if not step > 0:
                raise UsageError(f"bad --betas {text!r}: step must be positive")
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
    rows = [asdict(r) for r in res.rows]
    if args.format == "csv":  # the bounds table; JSON adds gamma/beta and checks
        payload = [{k: row[k] for k in ("beta", "lower", "upper", "gamma_hat")}
                   for row in rows]
    else:
        payload = {"rows": rows, "lipschitz": list(res.lipschitz),
                   "monotone": res.gamma_over_beta_monotone}
    sandwiched = all(r.lower * 0.97 <= r.gamma_hat <= r.upper * 1.03
                     for r in res.rows)
    return _report(args, payload, sandwiched and res.gamma_over_beta_monotone)


def cmd_townes(args) -> int:
    from .variational import townes_profile

    prof = townes_profile()
    rows = [ReportRow("c_lgn", 5.8504482623, prof.c_lgn, 1e-9),
            ReportRow("peak_amplitude", 2.2062008647, float(prof.tau[0]), 1e-9)]
    return _check_report(args, rows)


# -- entry point -----------------------------------------------------------


def _subcommand(sub, name, fn, grid=None, seed=False, pair=False,
                formats=False, help=None):
    """Register a subcommand with --out and, where it reads them, --grid
    (default `grid`), --seed, --vortex/--P/--Q and --json/--csv (JSON)."""
    sp = sub.add_parser(name, help=help)
    sp.set_defaults(fn=fn)
    if pair:
        sp.add_argument("--vortex", help="n=2[,a=..,b=..,c=..,z0=..]")
        sp.add_argument("--P", help="[[re,im],...]")
        sp.add_argument("--Q", help="[[re,im],...]")
    if grid:
        sp.add_argument("--grid", default=grid, help="L,M")
    if seed:
        sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--out", default=None, help="write the report here")
    if formats:
        fmt = sp.add_mutually_exclusive_group()
        for choice in ("json", "csv"):
            fmt.add_argument(f"--{choice}", dest="format", action="store_const",
                             const=choice, default="json")
    return sp


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cssol",
        description="Wronskian-pair solitons, identity suites, and the "
                    "interpolation-constant estimator.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = _subcommand(sub, "solve-wronskian", cmd_solve_wronskian,
                     help="families with W(P,Q) = f")
    sp.add_argument("--f", required=True, help="[[re,im],...] ascending")

    sp = _subcommand(sub, "build-soliton", cmd_build_soliton, grid="40,1024",
                     pair=True)
    sp.add_argument("--field-out", default=None,
                    help="save the sampled field: raw <f8 (re, im) pairs, "
                         "plus a PATH.json sidecar")

    sp = _subcommand(sub, "verify-soliton", cmd_verify_soliton,
                     grid="40,1024", seed=True, pair=True, formats=True)
    sp.add_argument("--mass-tol", type=float, default=1e-2)
    sp.add_argument("--identity-tol", type=float, default=1e-4)

    sp = _subcommand(sub, "verify-identities", cmd_verify_identities,
                     grid="16,256", seed=True, formats=True,
                     help="factorization + inequality battery on random fields")
    sp.add_argument("--beta", type=float, default=1.0)
    sp.add_argument("--count", type=int, default=5)
    sp.add_argument("--identity-tol", type=float, default=1e-4)

    sp = _subcommand(sub, "energy", cmd_energy, grid="40,1024", pair=True,
                     formats=True, help="energy decomposition of a field")
    sp.add_argument("--field", help="load a saved field: raw <f8 (re, im) "
                    "pairs, plus a PATH.json sidecar")
    sp.add_argument("--beta", type=float, default=None,
                    help="flux; required with --field, else the soliton's")

    sp = _subcommand(sub, "estimate-gamma", cmd_estimate_gamma,
                     grid="12,128", seed=True)
    sp.add_argument("--beta", type=float, required=True)
    sp.add_argument("--field-out", default=None)

    sp = _subcommand(sub, "scan", cmd_scan, grid="12,128", seed=True,
                     formats=True)
    sp.add_argument("--betas", required=True,
                    help="comma list or start:stop:step")
    sp.set_defaults(format="csv")

    _subcommand(sub, "townes", cmd_townes, formats=True,
                help="ground-state constant c_lgn")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (UsageError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
