"""The three benchmark workloads.

Each workload's set-up builds its inputs from the seed and returns a Round:
the same list of operations, run in the same order in every round of the
timed phase. An operation calls the program, then its outputs are checked
against references made apart from the program (see checks.py). The program
modules are reached through their module objects (``kernels.a_star``), never
bound by name here, so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks
from cssol import (
    functionals,
    grid as cgrid,
    kernels,
    poly,
    sampling,
    soliton,
    variational,
    wronskian_pairs,
)

# fixed seed of the deg-3 inverse problems: they fail on every input today
# (see KNOWN_FAULT), and the share of failed operations must not depend on
# the run's seed
DEG3_SEED = 240409332


class KnownFault(Exception):
    """An operation's output misses what a named program fault drops."""


@dataclass
class Op:
    """One timed operation. ``run`` calls the program and returns its output
    plus the latencies of the single operations inside it (None: the call
    itself is one operation); ``check`` returns the problems with that output
    and raises KnownFault for the failure a named fault causes."""

    name: str
    run: Callable[[], tuple[object, list[float] | None]]
    check: Callable[[object], list[str]]
    count: int = 1

    @property
    def kind(self) -> str:
        return self.name.split("[")[0].split(" ")[0]


@dataclass
class Round:
    ops: list[Op]
    # workload figures for the per-layer metrics, from one round's outputs
    stats: Callable[[list], dict] = lambda outputs: {}


def _single(fn):
    """Wrap a call that is one operation."""
    def run():
        return fn(), None
    return run


def _timed_calls(module, attr: str, call):
    """Run call() while recording the latency and result of every call of
    module.attr made inside it; returns (output, [(latency, result)])."""
    inner = getattr(module, attr)
    seen = []

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        out = inner(*args, **kwargs)
        seen.append((time.perf_counter() - t0, out))
        return out

    setattr(module, attr, timed)
    try:
        out = call()
    finally:
        setattr(module, attr, inner)
    return out, seen


# -- gamma_descent ------------------------------------------------------------

SCAN_BETAS = (0.5, 1.0, 1.5, 2.0)


def gamma_descent(seed: int, out_dir: str) -> Round:
    """estimate_gamma(0), then structure_scan over SCAN_BETAS, on 12,128."""
    g = cgrid.Grid(12.0, 128)
    cfg = variational.DescentConfig(grid=g, seed=seed)
    variational.townes_profile()
    # warm call: fills the kernel tables of the grid and the FFT paths
    X, Y = g.mesh()
    rho = cgrid.GridField(g, np.exp(-(X**2 + Y**2)) / math.pi)
    A1, A2 = kernels.vector_potential(rho)
    kernels.a_star(A1, A2)

    def run_zero():
        est = variational.estimate_gamma(0.0, cfg)
        return [est], None

    def run_scan():
        scan, seen = _timed_calls(
            variational, "estimate_gamma",
            lambda: variational.structure_scan(list(SCAN_BETAS), cfg))
        return (scan, [e for _, e in seen]), [dt for dt, _ in seen]

    def check_zero(out):
        (est,) = out
        return (checks.gamma_at_zero(est.gamma_hat)
                + checks.gamma_sandwich(0.0, est.gamma_hat))

    def check_scan(out):
        scan, _ = out
        rows = scan.rows
        problems = []
        if [r.beta for r in rows] != list(SCAN_BETAS):
            return [f"scan rows {[r.beta for r in rows]} != {list(SCAN_BETAS)}"]
        for r in rows:
            problems += checks.gamma_sandwich(r.beta, r.gamma_hat)
        problems += checks.gamma_at_two(rows[-1].gamma_hat)
        problems += checks.gamma_over_beta_nonincreasing(
            [r.beta for r in rows], [r.gamma_hat for r in rows])
        return problems

    ops = [Op("estimate_gamma(0)", run_zero, check_zero),
           Op("structure_scan", run_scan, check_scan, count=len(SCAN_BETAS))]

    def stats(outputs):
        zero, scan = outputs  # None where the operation raised
        ests = (zero or []) + (scan[1] if scan else [])
        return {"grad_norms": [e.final_gradient_norm for e in ests]}

    return Round(ops, stats=stats)


# -- field_identities ---------------------------------------------------------

FACTOR_BETAS = (0.5, 1.0, 2.0)
SMOOTH_FIELDS = 3
BATTERY_FIELDS = 4


def field_identities(seed: int, out_dir: str) -> Round:
    """Identity checks on fields at large grids; no descent."""
    rng = np.random.default_rng(seed)
    variational.townes_profile()
    # warm call on a small grid: loads the FFT and near-zone quadrature
    # paths; the tables of the large grids stay cold until their first call
    gw = cgrid.Grid(4.0, 32)
    Xw, Yw = gw.mesh()
    rho_w = cgrid.GridField(gw, np.exp(-(Xw**2 + Yw**2)))
    kernels.vector_potential(rho_w)
    kernels.superpotential(rho_w)

    g384 = cgrid.Grid(16.0, 384)
    smooth = [sampling.normalized(sampling.random_smooth_field(g384, rng, min_width=1.2))
              for _ in range(SMOOTH_FIELDS)]
    g256 = cgrid.Grid(16.0, 256)
    battery = [(sampling.normalized(sampling.random_smooth_field(g256, rng, min_width=1.2)),
                float(rng.uniform(0.0, 3.0))) for _ in range(BATTERY_FIELDS)]
    g40 = cgrid.Grid(40.0, 1024)
    rings = {n: soliton.radial_ring(n).sample(g40) for n in (1, 2)}
    rings_unit = {n: sampling.normalized(u) for n, u in rings.items()}
    g14 = cgrid.Grid(14.0, 512)
    X, Y = g14.mesh()
    gauss = cgrid.GridField(g14, np.exp(-(X**2 + Y**2) / 2.0) / (2.0 * math.pi))
    io_path = os.path.join(out_dir, f"field-{os.getpid()}.f8")

    ops: list[Op] = []
    for i, u in enumerate(smooth):
        for beta in FACTOR_BETAS:
            def run(u=u, beta=beta):
                rep = functionals.magnetic_energy(u, beta, order=6)
                minus = functionals.susy_rhs(u, beta, -1, order=6)
                plus = functionals.susy_rhs(u, beta, +1, order=6)
                return rep, minus, plus

            def check(out, beta=beta):
                rep, minus, plus = out
                return checks.factorization(beta, rep.total_E_beta, rep.quartic,
                                            rep.bogomolnyi_gap, minus, plus)

            ops.append(Op(f"factorization[{i}] beta={beta}", _single(run), check))

    for i, (u, beta) in enumerate(battery):
        def run(u=u, beta=beta):
            return functionals.inequality_battery(u, beta)

        def check(rep):
            return checks.no_violations({e.name: e.margin_rel for e in rep.entries})

        ops.append(Op(f"inequality_battery[{i}]", _single(run), check))

    for n, u in rings.items():
        def run(u=u, n=n):
            return functionals.magnetic_energy(u, 2.0 * n)

        def check(rep, n=n):
            problems = (checks.unit_mass(rep.mass)
                        + checks.saturation(rep.bogomolnyi_gap, rep.total_E_beta))
            if n == 1:
                problems += checks.quartic_ring_1(rep.quartic)
            return problems

        ops.append(Op(f"ring[{n}] mass/saturation", _single(run), check))

    for n, u in rings_unit.items():
        def run(u=u, n=n):
            return functionals.el_residual(u, 2.0 * n, 4.0 * math.pi * n)[0]

        ops.append(Op(f"ring[{n}] el_residual", _single(run), checks.stationarity))

    def run_ratio():
        return variational.vortex_ring_ratio(1, 1.0, cgrid.Grid(24.0, 1024))

    ops.append(Op("vortex_ring_ratio n=1 beta=1", _single(run_ratio),
                  lambda got: checks.ring_ratio(1, 1.0, got)))

    ops.append(Op("menger_melnikov gaussian",
                  _single(lambda: functionals.menger_melnikov(gauss)),
                  checks.menger_gaussian))

    def run_io():
        cgrid.save_field(rings[2], io_path)
        try:
            nbytes = os.path.getsize(io_path) + os.path.getsize(io_path + ".json")
            back = cgrid.load_field(io_path)
        finally:
            for p in (io_path, io_path + ".json"):
                if os.path.exists(p):
                    os.remove(p)
        return back, nbytes

    def check_io(out):
        back, _ = out
        problems = checks.bit_identical(np.asarray(rings[2].values), np.asarray(back.values))
        if back.grid != rings[2].grid:
            problems.append(f"round trip changed the grid to {back.grid}")
        return problems

    ops.append(Op("save/load M=1024", _single(run_io), check_io))
    ops = _spread(ops)
    io_index = [o.name for o in ops].index("save/load M=1024")
    return Round(ops, stats=lambda outputs: {"io_bytes": (outputs[io_index] or (0, 0))[1]})


def _spread(ops: list[Op]) -> list[Op]:
    """Order the operations so that each kind is spread evenly over the
    round: the machine's speed drifts over seconds, and no single stretch of
    the round should decide the median operation latency."""
    kinds: dict[str, list[Op]] = {}
    for op in ops:
        kinds.setdefault(op.kind, []).append(op)
    placed = [((i + 0.5) / len(group), n, op)
              for n, group in enumerate(kinds.values()) for i, op in enumerate(group)]
    return [op for _, _, op in sorted(placed, key=lambda t: t[:2])]


# -- pair_algebra -------------------------------------------------------------

PAIR_DEGREES = (1, 2, 3, 4) * 6
DEG3_PROBLEMS = 2

# acceptance-8 cases: f (coefficients, low to high) -> hand-written families
LOW_DEGREE_CASES = (
    ([2.0], [([0.0, 1.0], [2.0])]),
    ([-2.0, 2.0], [([1.0, -2.0, 1.0], [1.0])]),
    ([1.0, 0.0, 1.0], [([0.0, 1.0, 0.0, 1.0 / 3.0], [1.0]),
                       ([-1.0, 0.0, 1.0], [0.0, 1.0])]),
    ([1.0, -2.0, 1.0], [([-1.0, 3.0, -3.0, 1.0], [1.0 / 3.0])]),
)

KNOWN_FAULT = ("solve_generic drops the non-primitive families of deg f >= 3 "
               "(near-zero top coefficients of the ode_kernel basis)")


def _coeffs(p) -> np.ndarray:
    return np.array(p.coeffs, dtype=complex)


def _pair_coeffs(pair):
    return _coeffs(pair.P), _coeffs(pair.Q)


def _families(fams):
    return [_pair_coeffs(f.representative) for f in fams]


def _haar_scaled(rng) -> np.ndarray:
    """lam * U, U Haar-random in SU(2), lam = e^t with t uniform in [-1, 1]."""
    u = sampling.haar_su2(rng).entries
    return float(np.exp(rng.uniform(-1.0, 1.0))) * u


def _pair_of_degree(rng, d: int):
    """A seeded random_pair of max degree exactly d: the cost of a pair's
    checks grows with its degree, so each round holds the same degrees."""
    while True:
        pair = sampling.random_pair(rng, max_degree=d)
        if pair.max_degree == d:
            return pair


def _deg3_problem(rng):
    """A monic cubic P and a linear Q with no common root; f = W(P,Q)."""
    while True:
        roots = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        q_root = complex(rng.standard_normal() + 1j * rng.standard_normal())
        if min(abs(q_root - r) for r in roots) > 0.5:
            break
    P = np.polynomial.polynomial.polyfromroots(roots)
    Q = np.array([-q_root, 1.0], dtype=complex)
    return P, Q, checks.wronskian_coeffs(P, Q)


def pair_algebra(seed: int, out_dir: str) -> Round:
    """Polynomial layers only: no kernel call and no descent."""
    rng = np.random.default_rng(seed)
    g8 = cgrid.Grid(8.0, 256)
    g40 = cgrid.Grid(40.0, 1024)
    pairs = [_pair_of_degree(rng, d) for d in PAIR_DEGREES]
    transforms = [_haar_scaled(rng) for _ in pairs]
    drng = np.random.default_rng(DEG3_SEED)
    deg3 = [_deg3_problem(drng) for _ in range(DEG3_PROBLEMS)]

    ops: list[Op] = []
    for i, (pair, T) in enumerate(zip(pairs, transforms)):
        def run(pair=pair, T=T):
            res = functionals.liouville_residual(pair, g8)
            rhs = g40.sample(soliton.LiouvilleSolution(pair).rhs)
            flux = float(cgrid.integrate(rhs.map(np.real))) / (8.0 * math.pi)
            mass = cgrid.quadrature(soliton.Soliton(pair).sample(g40), 2)
            other = pair.transformed(poly.PairTransform(T))
            found, witness = soliton.same_orbit(pair, other)
            return res, flux, mass, (found, witness, other)

        def check(out, pair=pair):
            res, flux, mass, (found, witness, other) = out
            return (checks.liouville(res)
                    + checks.flux(flux, pair.max_degree)
                    + checks.unit_mass(mass)
                    + checks.orbit_witness(
                        found, None if witness is None else witness.entries,
                        _pair_coeffs(pair), _pair_coeffs(other)))

        ops.append(Op(f"pair[{i}] deg={pair.max_degree}", _single(run), check))

    for f, expected in LOW_DEGREE_CASES:
        def run(f=f):
            return wronskian_pairs.solve_generic(poly.ComplexPolynomial(f))

        def check(fams, f=f, expected=expected):
            found = _families(fams)
            return (checks.inverse_residuals(found, f)
                    + checks.family_sets_equal(found, expected))

        ops.append(Op(f"solve_generic deg={len(f) - 1}", _single(run), check))

    for i, (P, Q, f) in enumerate(deg3):
        def run(f=f):
            return wronskian_pairs.solve_generic(poly.ComplexPolynomial(f))

        def check(fams, P=P, Q=Q, f=f):
            found = _families(fams)
            problems = checks.inverse_residuals(found, f)
            if not problems and not checks.contains_family(found, (P, Q)):
                raise KnownFault(KNOWN_FAULT)
            return problems

        ops.append(Op(f"solve_generic deg=3 [{i}]", _single(run), check))

    ops = _spread(ops)
    solves = [i for i, op in enumerate(ops) if op.kind == "solve_generic"]

    def stats(outputs):
        return {"families_found": sum(len(outputs[i] or ()) for i in solves)}

    return Round(ops, stats=stats)


WORKLOADS = {
    "gamma_descent": gamma_descent,
    "field_identities": field_identities,
    "pair_algebra": pair_algebra,
}
