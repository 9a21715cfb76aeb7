"""Acceptance gate: twelve end-to-end criteria, each printing one
PASS/FAIL line with its measured figure and runtime."""

import time

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from cssol import poly
from cssol.functionals import (
    el_residual,
    inequality_battery,
    liouville_residual,
    magnetic_energy,
    menger_melnikov,
    susy_rhs,
)
from cssol.grid import Grid, GridField, integrate, quadrature
from cssol.poly import ComplexPolynomial, PairTransform
from cssol.sampling import normalized, random_pair, random_smooth_field
from cssol.soliton import LiouvilleSolution, radial_ring, same_orbit
from cssol.variational import (
    DescentConfig,
    estimate_gamma,
    structure_scan,
    townes_solve,
    vortex_ring_ratio,
    vortex_ring_ratio_closed,
)
from cssol.wronskian_pairs import WronskianPair, _same_family, solve_generic


def _report(request, num, name, ok, detail, t0, budget, figures):
    """Print and assert criterion num's PASS/FAIL line; record its figures,
    a dict of floats, for --figures (conftest.py) first, so a failing
    criterion records them too."""
    # user_properties is core pytest; the record_property fixture comes from
    # the junitxml plugin and is missing when that plugin is disabled
    request.node.user_properties.append(
        ("figures", {f"{num:02d} {name}": {k: float(v) for k, v in figures.items()}}))
    dt = time.monotonic() - t0
    line = (f"ACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} "
            f"({detail}; {dt:.1f}s of {budget:.0f}s)")
    print(line)
    assert ok, line
    assert dt < budget, line


def test_01_log_density_identity(request):
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    g = Grid(8.0, 256)
    worst = 0.0
    for _ in range(20):
        pair = random_pair(rng, max_degree=4)
        worst = max(worst, liouville_residual(pair, g))
    _report(request, 1, "log-density identity", worst <= 1e-6,
            f"worst residual {worst:.2e} <= 1e-6", t0, 30.0,
            {"worst_residual": worst})


def test_02_flux_quantization(request):
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    g = Grid(40.0, 1024)
    worst = 0.0
    for d in (1, 2, 3, 4):
        pairs = [radial_ring(d).pair]
        # one generic pair of exactly this degree
        while True:
            p = random_pair(rng, max_degree=d)
            if p.max_degree == d:
                pairs.append(p)
                break
        for pair in pairs:
            rhs = g.sample(LiouvilleSolution(pair).rhs).map(np.real)
            flux = float(integrate(rhs)) / (8.0 * np.pi)
            worst = max(worst, abs(flux - d) / d)
    _report(request, 2, "flux quantization", worst <= 1e-2,
            f"worst relative flux error {worst:.2e} <= 1e-2", t0, 60.0,
            {"worst_flux_error": worst})


def test_03_minimizer_mass_and_saturation(request):
    t0 = time.monotonic()
    g = Grid(40.0, 1024)
    worst_mass = 0.0
    worst_gap = 0.0
    for n in (1, 2, 3):
        beta = 2.0 * n
        u = radial_ring(n).sample(g)
        rep = magnetic_energy(u, beta)
        worst_mass = max(worst_mass, abs(rep.mass - 1.0))
        worst_gap = max(worst_gap,
                        abs(rep.bogomolnyi_gap) / rep.total_E_beta)
    ok = worst_mass <= 1e-2 and worst_gap <= 1e-3
    _report(request, 3, "minimizer mass/saturation", ok,
            f"mass err {worst_mass:.2e} <= 1e-2, gap/E {worst_gap:.2e} <= 1e-3",
            t0, 60.0, {"mass_error": worst_mass, "gap_over_E": worst_gap})


def test_04_vortex_ring_energy_law(request):
    t0 = time.monotonic()
    worst = 0.0
    for n in (1, 2, 3):
        scale = vortex_ring_ratio_closed(n, 0.0)
        for beta in (0.0, 1.0, 2.0 * n, 2.0 * n + 2.0):
            got = vortex_ring_ratio(n, beta)
            want = vortex_ring_ratio_closed(n, beta)
            worst = max(worst, abs(got - want) / scale)
    g = Grid(40.0, 1024)
    worst_q = 0.0
    for n, q_exact in ((1, 1.0 / (3.0 * np.pi)), (2, 0.125)):
        got = quadrature(radial_ring(n).sample(g), 4)
        worst_q = max(worst_q, abs(got - q_exact) / q_exact)
    ok = worst <= 1e-2 and worst_q <= 5e-3
    _report(request, 4, "vortex-ring energy law", ok,
            f"ratio err {worst:.2e} <= 1e-2, quartic err {worst_q:.2e} <= 5e-3",
            t0, 120.0, {"ratio_error": worst, "quartic_error": worst_q})


def test_05_ground_state_constant(request):
    t0 = time.monotonic()
    prof = townes_solve()
    want = 0.931 * 2.0 * np.pi
    rel = abs(prof.c_lgn - want) / want
    # the solved constant and peak amplitude, gated as `cssol townes` gates them
    c_rel = abs(prof.c_lgn - 5.8504482623) / 5.8504482623
    tau_rel = abs(float(prof(0.0)) - 2.2062008647) / 2.2062008647
    _report(request, 5, "ground-state constant", rel <= 5e-3 and c_rel <= 1e-9 and tau_rel <= 1e-9,
            f"c_lgn {prof.c_lgn:.5f} vs {want:.5f}, rel {rel:.1e} <= 5e-3; "
            f"vs 5.8504482623 rel {c_rel:.1e} <= 1e-9, "
            f"tau(0) vs 2.2062008647 rel {tau_rel:.1e} <= 1e-9",
            t0, 5.0, {"c_lgn": prof.c_lgn, "tau0": prof(0.0), "c_lgn_vs_0.931": rel})


def test_06_factorization_identity(request):
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    # the kernel near-zone error scales like h^2; M = 384 holds the worst
    # ensemble member under the tolerance with 20% headroom
    g = Grid(16.0, 384)
    worst = 0.0
    fields = [normalized(random_smooth_field(g, rng, min_width=1.2))
              for _ in range(20)]
    for beta in (0.5, 1.0, 2.0):
        for u in fields:
            rep = magnetic_energy(u, beta, order=6)
            minus = susy_rhs(u, beta, -1, order=6)
            plus = susy_rhs(u, beta, +1, order=6)
            scale = rep.total_E_beta + 2.0 * np.pi * beta * rep.quartic
            worst = max(worst,
                        abs(rep.bogomolnyi_gap - minus) / scale,
                        abs(rep.total_E_beta
                            + 2.0 * np.pi * beta * rep.quartic - plus) / scale)
    _report(request, 6, "weighted-square factorization", worst <= 1e-4,
            f"worst relative defect {worst:.2e} <= 1e-4", t0, 120.0,
            {"worst_defect": worst})


def test_07_inequality_battery(request):
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    g = Grid(16.0, 256)
    violations = 0
    for _ in range(200):
        u = normalized(random_smooth_field(g, rng, min_width=1.2))
        beta = float(rng.uniform(0.0, 3.0))
        violations += len(inequality_battery(u, beta).violations(1e-6))
    # saturation margins on a soliton need the wide grid (tail truncation)
    u = radial_ring(1).sample(Grid(40.0, 1024))
    by_name = {e.name: e for e in inequality_battery(u, 2.0).entries}
    sat = max(abs(by_name["bogomolnyi"].margin_rel),
              abs(by_name["mm_interpolation"].margin_rel))
    ok = violations == 0 and sat <= 1e-3
    _report(request, 7, "inequality battery", ok,
            f"{violations} violations over 200 fields, "
            f"soliton saturation margin {sat:.2e} <= 1e-3", t0, 600.0,
            {"violations": violations, "saturation_margin": sat})


def test_08_inverse_problem_low_degree(request):
    t0 = time.monotonic()
    cases = {
        # f: independently hand-written expected family representatives
        ComplexPolynomial([2.0]): [
            WronskianPair([0.0, 1.0], [2.0])],
        ComplexPolynomial([-2.0, 2.0]): [          # 2(z - 1)
            WronskianPair(poly.from_roots([1.0, 1.0]), [1.0])],
        ComplexPolynomial([1.0, 0.0, 1.0]): [      # z^2 + 1
            WronskianPair([0.0, 1.0, 0.0, 1.0 / 3.0], [1.0]),
            WronskianPair([-1.0, 0.0, 1.0], [0.0, 1.0])],
        ComplexPolynomial([1.0, -2.0, 1.0]): [     # (z - 1)^2
            WronskianPair(poly.from_roots([1.0] * 3), [1.0 / 3.0])],
    }
    ok = True
    detail = []
    worst, families = 0.0, 0
    for f, expected in cases.items():
        fams = solve_generic(f)
        worst = max([worst] + [fam.residual for fam in fams])
        families += len(fams)
        reps = [fam.representative for fam in fams]
        res_ok = all(fam.residual <= 1e-10 for fam in fams)
        onto = all(any(_same_family(e, r) for r in reps) for e in expected)
        into = all(any(_same_family(r, e) for e in expected) for r in reps)
        ok = ok and res_ok and onto and into
        if not (res_ok and onto and into):
            detail.append(f"f={f!r}")
    _report(request, 8, "inverse-problem completeness", ok,
            "family sets equal with residuals <= 1e-10"
            + ("" if ok else f" EXCEPT {detail}"), t0, 10.0,
            {"worst_residual": worst, "families": families})


def test_09_symmetry_orbit(request):
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    base = [WronskianPair([1.0, 0.0, 1.0], [0.5, 1.0]),
            WronskianPair([1.0, 2.0, 0.0, 1.0], [1.0, 1.0j])]
    pts = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    from cssol.soliton import Soliton

    worst = 0.0
    orbits_ok = True
    for k in range(50):
        pair = base[k % 2]
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        lam = float(np.exp(rng.uniform(-1.0, 1.0)))
        t = PairTransform(lam * np.array(
            [[q[0] + 1j * q[1], q[2] + 1j * q[3]],
             [-(q[2] - 1j * q[3]), q[0] - 1j * q[1]]]))
        other = pair.transformed(t)
        du = np.max(np.abs(Soliton(pair).u(pts) - Soliton(other).u(pts)))
        worst = max(worst, du)
        ok, witness = same_orbit(pair, other)
        orbits_ok = orbits_ok and ok and witness is not None \
            and witness.is_positive_scaled_su2(1e-6)
    ok = worst <= 1e-12 and orbits_ok
    _report(request, 9, "symmetry orbit", ok,
            f"worst pointwise gap {worst:.1e} <= 1e-12, witnesses valid",
            t0, 10.0, {"worst_gap": worst})


def test_10_gamma_estimation(request):
    t0 = time.monotonic()
    c_lgn = townes_solve().c_lgn
    e0 = estimate_gamma(0.0)
    e2 = estimate_gamma(2.0)
    rel0 = abs(e0.gamma_hat - c_lgn) / c_lgn
    rel2 = abs(e2.gamma_hat - 4.0 * np.pi) / (4.0 * np.pi)
    scan = structure_scan([0.5, 1.0, 1.5, 2.0])
    sandwich = all(r.lower * 0.97 <= r.gamma_hat <= r.upper * 1.03
                   for r in scan.rows)
    ok = (rel0 <= 2e-2 and rel2 <= 2e-2
          and scan.gamma_over_beta_monotone and sandwich)
    _report(request, 10, "interpolation-constant estimation", ok,
            f"rel err at 0: {rel0:.1e}, at 2: {rel2:.1e} (<= 2e-2); "
            f"ratio monotone {scan.gamma_over_beta_monotone}, "
            f"bounds sandwich {sandwich}", t0, 1800.0,
            {"gamma_hat_0": e0.gamma_hat, "gamma_hat_2": e2.gamma_hat,
             **{f"scan_gamma_hat_{r.beta:g}": r.gamma_hat for r in scan.rows}})


def test_11_stationarity_residual(request):
    t0 = time.monotonic()
    u = normalized(radial_ring(1).sample(Grid(40.0, 1024)))
    res_sol, _ = el_residual(u, 2.0, 4.0 * np.pi)
    rng = np.random.default_rng(42)
    res_rand = min(
        el_residual(normalized(random_smooth_field(Grid(16.0, 256), rng,
                                                   min_width=1.2)),
                    2.0, 4.0 * np.pi)[0]
        for _ in range(3))
    ok = res_sol <= 1e-2 and res_rand >= 0.1
    _report(request, 11, "stationarity residual", ok,
            f"soliton {res_sol:.2e} <= 1e-2, random min {res_rand:.2e} >= 0.1",
            t0, 60.0, {"soliton_residual": res_sol, "random_min_residual": res_rand})


def _mc_triple_curvature(sampler, n, rng):
    """Monte-Carlo (1/6) E[1/R^2] over iid triples from a unit-mass density."""
    x = sampler(n, rng)
    y = sampler(n, rng)
    z = sampler(n, rng)
    a = np.linalg.norm(y - z, axis=1)
    b = np.linalg.norm(x - z, axis=1)
    c = np.linalg.norm(x - y, axis=1)
    cross = ((y[:, 0] - x[:, 0]) * (z[:, 1] - x[:, 1])
             - (y[:, 1] - x[:, 1]) * (z[:, 0] - x[:, 0]))
    area2 = 0.25 * cross**2  # K^2
    vals = 16.0 * area2 / (a * b * c) ** 2 / 6.0
    return float(np.mean(vals)), float(np.std(vals) / np.sqrt(n))


def test_12_triple_curvature_identity(request):
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    n = 2_000_000

    def iso(n, rng):
        return rng.normal(size=(n, 2))

    def aniso(n, rng):
        return rng.normal(size=(n, 2)) * np.array([1.0, 1.8])

    g = Grid(14.0, 512)
    X, Y = g.mesh()
    rho_iso = GridField(g, np.exp(-(X**2 + Y**2) / 2.0) / (2.0 * np.pi))
    ga = Grid(18.0, 512)
    Xa, Ya = ga.mesh()
    rho_aniso = GridField(ga, np.exp(-(Xa**2 / 2.0 + Ya**2 / (2.0 * 1.8**2)))
                          / (2.0 * np.pi * 1.8))
    ok = True
    details = []
    figures = {}
    for name, rho, sampler in (("isotropic", rho_iso, iso),
                               ("anisotropic", rho_aniso, aniso)):
        grid_val = menger_melnikov(rho)
        mc, se = _mc_triple_curvature(sampler, n, rng)
        gap = abs(grid_val - mc)
        tol = 0.05 * abs(grid_val) + 3.0 * se
        ok = ok and gap <= tol
        details.append(f"{name}: grid {grid_val:.5f} vs MC {mc:.5f}"
                       f" (SE {se:.1e})")
        figures |= {f"{name}_grid": grid_val, f"{name}_mc": mc, f"{name}_se": se}
    # exact cross-check: MM(unit Gaussian) = log(4/3)/2
    exact = np.log(4.0 / 3.0) / 2.0
    ok = ok and abs(menger_melnikov(rho_iso) - exact) <= 5e-3 * exact
    _report(request, 12, "triple-curvature identity", ok, "; ".join(details), t0, 300.0,
            figures)
