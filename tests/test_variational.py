"""Ground-state collocation, analytic bounds, the descent estimator, scans,
and the restricted confined energy."""

import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cssol import variational
from cssol.grid import Grid, GridField
from cssol.soliton import radial_ring
from cssol.variational import (
    DescentConfig,
    _blur,
    _descend,
    _dilate,
    _norm_mass,
    _quotient_and_grad,
    _ring_start,
    bounds,
    estimate_gamma,
    nll_energy,
    structure_scan,
    townes_constant,
    townes_profile,
    townes_solve,
    vortex_ring_ratio,
    vortex_ring_ratio_closed,
)


def test_townes_constant_value():
    c = townes_constant()
    assert c == pytest.approx(0.931 * 2.0 * np.pi, rel=5e-3)


def test_townes_profile_shape():
    prof = townes_profile()
    assert prof(0.0) == pytest.approx(2.2062, abs=1e-3)
    assert np.all(np.diff(prof(np.linspace(0.0, 25.0, 5001))) <= 0)
    # callable evaluation with exponential tail
    assert 0 < prof(25.0) < 1e-9


def test_townes_profile_evaluates_its_series():
    """Up to TAIL_R the profile is its Chebyshev series, bit for bit; the
    matched tail beyond is continuous there; and acceptance 5's figures
    read as they are printed."""
    prof, edge = townes_profile(), variational.TAIL_R
    r = np.linspace(0.0, edge, 20001)
    assert np.array_equal(prof(r), prof.series(r))
    assert prof(np.nextafter(edge, np.inf)) == pytest.approx(prof(edge), rel=1e-14)
    want = 0.931 * 2.0 * np.pi
    rel = abs(prof.c_lgn - want) / want
    c_rel = abs(prof.c_lgn - 5.8504482623) / 5.8504482623
    tau_rel = abs(float(prof(0.0)) - 2.2062008647) / 2.2062008647
    assert (f"{prof.c_lgn:.5f}", f"{rel:.1e}", f"{c_rel:.1e}", f"{tau_rel:.1e}") == (
        "5.85045", "1.4e-04", "3.4e-12", "2.2e-11")
    assert rel <= 5e-3 and c_rel <= 1e-9 and tau_rel <= 1e-9


def test_townes_identities(monkeypatch):
    """Nehari and Pohozaev identities int tau'^2 r = int tau^2 r =
    1/2 int tau^4 r, by Simpson's rule and 4th-order central differences on
    the uniform samples (not the solver's collocation and Clenshaw-Curtis
    sums); c_lgn is half the Townes critical mass and does not move with N."""
    from scipy.integrate import simpson

    prof = townes_solve()
    r = np.linspace(0.0, 18.0, 4000)
    tau = prof(r)
    h = r[1] - r[0]
    ext = np.r_[tau[2:0:-1], tau]  # tau is even in r
    dtau = (ext[:-4] - 8.0 * ext[1:-3] + 8.0 * ext[3:-1] - ext[4:]) / (12.0 * h)
    r, tau = r[:-2], tau[:-2]  # no central stencil at the last two samples
    kinetic = simpson(dtau**2 * r, x=r)
    mass = simpson(tau**2 * r, x=r)
    quartic = 0.5 * simpson(tau**4 * r, x=r)
    assert kinetic == pytest.approx(mass, rel=1e-8)
    assert quartic == pytest.approx(mass, rel=1e-8)
    assert np.pi * mass == pytest.approx(prof.c_lgn, rel=1e-8)
    assert abs(prof.c_lgn - 5.8504482623) <= 1e-9

    monkeypatch.setattr(variational, "TOWNES_N", 3 * variational.TOWNES_N // 2)
    assert abs(townes_solve().c_lgn - prof.c_lgn) <= 1e-12


def test_townes_unconverged_newton_raises(monkeypatch):
    monkeypatch.setattr(variational, "_NEWTON_STEPS", 1)
    with pytest.raises(RuntimeError):
        townes_solve()


def test_reading_the_constant_loads_no_scipy_quadrature_or_interpolation():
    """Reading c_lgn and the bounds loads no scipy quadrature or
    interpolation module. A kernel call loads no scipy module at all: its
    near-zone tables are closed forms and its transforms are numpy.fft
    (test_dependencies checks the descent and the CLI)."""
    bounds_code = ("from cssol.variational import bounds\n"
                   "bounds(1.0)\n")
    kernel_code = ("import numpy as np\n"
                   "from cssol.grid import Grid, GridField\n"
                   "from cssol.kernels import a_star, superpotential, vector_potential\n"
                   "g = Grid(4.0, 32)\n"
                   "X, Y = g.mesh()\n"
                   "rho = GridField(g, np.exp(-X * X - Y * Y))\n"
                   "A1, A2 = vector_potential(rho)\n"
                   "a_star(A1, A2)\n"
                   "superpotential(rho)\n")
    src = os.path.dirname(os.path.dirname(variational.__file__))
    for body in (bounds_code, kernel_code):
        code = ("import sys\n" + body
                + "print(sorted(m for m in ('scipy.fft', 'scipy.integrate', 'scipy.interpolate',"
                  " 'scipy.ndimage', 'scipy.optimize') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60, env=dict(os.environ, PYTHONPATH=src))
        assert out.stdout.strip() == "[]"


def test_bounds_pinch():
    c = townes_constant()
    lo, up = bounds(0.0)
    assert lo == pytest.approx(c) and up == pytest.approx(c)
    for beta in (2.0, 4.0):
        lo, up = bounds(beta)
        assert lo == pytest.approx(2.0 * np.pi * beta, rel=1e-12)
        assert up == pytest.approx(2.0 * np.pi * beta, rel=1e-12)
    with pytest.raises(ValueError):
        bounds(-1.0)


def test_bounds_interior_ordering():
    for beta in (0.5, 1.0, 1.5):
        lo, up = bounds(beta)
        assert lo < up


def test_ring_ratio_closed_form_values():
    assert vortex_ring_ratio_closed(1, 2.0) == 0.0
    assert vortex_ring_ratio_closed(1, 0.0) == pytest.approx(2.0 * np.pi)
    assert vortex_ring_ratio_closed(2, 2.0) == pytest.approx(2.0 * np.pi)


def test_ring_ratio_numeric_matches_closed():
    g = Grid(24.0, 512)
    for n, beta in ((1, 0.0), (1, 3.0), (2, 2.0)):
        got = vortex_ring_ratio(n, beta, grid=g)
        want = vortex_ring_ratio_closed(n, beta)
        assert got == pytest.approx(want, abs=2e-2 * max(1.0, want))
    with pytest.raises(ValueError):
        vortex_ring_ratio(0, 1.0)


def test_estimate_gamma_validation():
    with pytest.raises(ValueError):
        estimate_gamma(-0.5)


def test_estimate_gamma_beta0_small_grid():
    cfg = DescentConfig(grid=Grid(10.0, 96), max_iter=400)
    est = estimate_gamma(0.0, cfg)
    assert est.gamma_hat == pytest.approx(townes_constant(), rel=2e-2)
    assert est.lower_bound * 0.97 <= est.gamma_hat


@pytest.mark.parametrize("shape", [(16, 16), (20, 36), (128, 128), (256, 256)])
def test_blur_equals_gaussian_filter(shape):
    from scipy.ndimage import gaussian_filter

    v = np.random.default_rng(shape[1]).standard_normal(shape)
    assert np.array_equal(_blur(v), gaussian_filter(v, 2.0))


def _dilate_by_interpolator(values, g, lam):
    """_dilate by scipy's RegularGridInterpolator."""
    from scipy.interpolate import RegularGridInterpolator

    interp_re = RegularGridInterpolator((g.axis, g.axis), values.real,
                                        bounds_error=False, fill_value=0.0)
    interp_im = RegularGridInterpolator((g.axis, g.axis), values.imag,
                                        bounds_error=False, fill_value=0.0)
    X, Y = g.mesh()
    pts = np.stack([lam * X, lam * Y], axis=-1)
    return _norm_mass(lam * (interp_re(pts) + 1j * interp_im(pts)), g)


@pytest.mark.parametrize("M", [16, 64, 128])
def test_dilate_equals_regular_grid_interpolator(M):
    g = Grid(12.0, M)
    rng = np.random.default_rng(M)
    values = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    for t in np.linspace(-1.0, 1.0, 9):
        lam = 2.0**t
        assert np.array_equal(_dilate(values, g, lam),
                              _dilate_by_interpolator(values, g, lam))


def _descend_every_trial_gradient(values, g, beta, cfg, upper):
    """Reference descent that builds the gradient of every line-search trial
    and every dilation candidate. Returns
    (values, quotient, gradient norm, iterations, accepted steps, dilations
    won by a candidate)."""
    quot, grad = _quotient_and_grad(values, g, beta)
    step = 1e-2 * g.h**2
    history = [quot]
    gnorm = np.sqrt(np.sum(np.abs(grad) ** 2) * g.h**2)
    it = accepted_steps = wins = 0
    for it in range(1, cfg.max_iter + 1):
        if quot > 10.0 * upper:
            raise RuntimeError("descent diverged")
        accepted = False
        for _ in range(30):
            trial = _norm_mass(values - step * grad, g)
            tq, tgrad = _quotient_and_grad(trial, g, beta)
            if tq < quot:
                values, quot, grad = trial, tq, tgrad
                step *= 1.3
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        accepted_steps += 1
        if cfg.dilation_every and it % cfg.dilation_every == 0:
            best = (quot, values, grad)
            for t in np.linspace(-1.0, 1.0, 9):
                lam = 2.0**t
                if lam == 1.0:
                    continue
                cand = _dilate(values, g, lam)
                cq, cg = _quotient_and_grad(cand, g, beta)
                if cq < best[0]:
                    best = (cq, cand, cg)
            wins += best[1] is not values
            quot, values, grad = best
        gnorm = np.sqrt(np.sum(np.abs(grad) ** 2) * g.h**2)
        history.append(quot)
        if gnorm < cfg.grad_tol:
            break
        if (len(history) > cfg.plateau_window
                and history[-cfg.plateau_window - 1] - quot
                < cfg.plateau_tol * abs(quot)):
            break
    return values, quot, gnorm, it, accepted_steps, wins


@pytest.mark.parametrize("beta", [0.0, 1.0])
@pytest.mark.parametrize("dilation_every", [100, 2])
def test_descent_matches_every_trial_gradient_descent(monkeypatch, beta, dilation_every):
    """Trials that read only the quotient give the same descent, bit for bit,
    and build the gradient once per accepted step, once at the start and
    once per dilation won by a candidate."""
    g = Grid(12.0, 64)
    cfg = DescentConfig(grid=g, dilation_every=dilation_every)
    upper = bounds(beta)[1]
    Z = g.zmesh()
    v0 = _norm_mass(_ring_start(g, beta) * (1.0 + 0.2 * np.exp(-np.abs(Z - 1.0) ** 2)), g)
    values, quot, gnorm, it, accepted, wins = _descend_every_trial_gradient(
        v0, g, beta, cfg, upper)
    assert accepted in (it - 1, it)
    if dilation_every == 2:
        assert wins > 0  # the dilation branch is exercised

    calls = []
    real = variational.stationarity

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(variational, "stationarity", counted)
    got = _descend(v0, g, beta, cfg, upper)
    assert np.array_equal(got[0], values)
    assert got[1:4] == (quot, gnorm, it)
    assert len(calls) == accepted + 1 + wins


def test_descent_stop_reasons():
    """line_search is why every descent stops today; a huge grad_tol stops
    on the gradient, a huge plateau_tol on the plateau, max_iter=1 on the
    iteration cap."""
    g = Grid(12.0, 64)
    cfg = DescentConfig(grid=g, seed=1)
    assert estimate_gamma(0.0, cfg).stop_reason == "line_search"
    est = estimate_gamma(0.0, DescentConfig(grid=g, seed=1, grad_tol=1e9))
    assert (est.stop_reason, est.iterations) == ("grad_tol", 1)
    est = estimate_gamma(0.0, DescentConfig(grid=g, seed=1, plateau_tol=1e9,
                                            plateau_window=1))
    assert (est.stop_reason, est.iterations) == ("plateau", 1)
    est = estimate_gamma(0.0, DescentConfig(grid=g, seed=1, max_iter=1))
    assert (est.stop_reason, est.iterations) == ("max_iter", 1)


def test_structure_scan_validation():
    with pytest.raises(ValueError):
        structure_scan([1.0, 0.5])
    with pytest.raises(ValueError):
        structure_scan([-1.0, 1.0])


def test_structure_scan_rejects_repeated_beta_before_any_descent(monkeypatch):
    # a repeated beta would divide by zero in the Lipschitz quotient
    def no_descent(*args):
        raise AssertionError("a descent ran")

    monkeypatch.setattr(variational, "estimate_gamma", no_descent)
    with pytest.raises(ValueError, match="strictly increasing"):
        structure_scan([0.5, 1.0, 1.0])


def test_structure_scan_row_i_is_estimate_gamma_with_seed_plus_i():
    """Row i is estimate_gamma(beta_i) at seed config.seed + i, bit for bit;
    the seed moves the estimate, so a scan that ignored it would fail."""
    cfg = DescentConfig(grid=Grid(8.0, 32), seed=5, max_iter=3)
    betas = [0.5, 1.0, 2.0]
    scan = structure_scan(betas, cfg)
    for i, (b, row) in enumerate(zip(betas, scan.rows)):
        est = estimate_gamma(b, replace(cfg, seed=cfg.seed + i))
        assert (row.beta, row.lower, row.upper, row.gamma_hat) == (
            est.beta, est.lower_bound, est.upper_bound, est.gamma_hat)
    assert estimate_gamma(betas[1], cfg).gamma_hat != scan.rows[1].gamma_hat


def test_nll_energy_zero_at_matched_gamma():
    pair = radial_ring(1).pair
    assert nll_energy(pair, 4.0 * np.pi) == pytest.approx(0.0, abs=1e-12)


def test_nll_energy_ring_quartic():
    pair = radial_ring(1).pair
    got = nll_energy(pair, 0.0)
    assert got == pytest.approx(4.0 / 3.0, rel=1e-2)


def test_nll_energy_harmonic_divergence_guard():
    ring1 = radial_ring(1).pair  # density ~ r^-4: |x|^2 weight diverges
    with pytest.raises(ValueError, match="divergent"):
        nll_energy(ring1, 0.0, V="harmonic")
    ring3 = radial_ring(3).pair  # density ~ r^-8: integrable
    val = nll_energy(ring3, 0.0, V="harmonic")
    assert np.isfinite(val) and val > 0


@pytest.mark.parametrize("make_V", [
    lambda: "cubic",
    lambda: GridField(Grid(40.0, 1024), np.zeros((1024, 1024))),
], ids=["cubic", "gridfield"])
def test_nll_energy_rejects_unknown_potential(make_V):
    with pytest.raises(ValueError, match="unknown potential"):
        nll_energy(radial_ring(1).pair, 0.0, V=make_V())
