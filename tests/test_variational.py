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
    GammaEstimate,
    _blur,
    _descend,
    _norm_mass,
    _quotient_and_grad,
    _ring_start,
    bounds,
    estimate_gamma,
    nll_energy,
    structure_scan,
    townes_profile,
    townes_solve,
    vortex_ring_ratio,
    vortex_ring_ratio_closed,
)


def test_townes_constant_value():
    c = townes_profile().c_lgn
    assert c == pytest.approx(0.931 * 2.0 * np.pi, rel=5e-3)


def test_townes_profile_shape():
    prof = townes_profile()
    assert prof(0.0) == pytest.approx(2.2062, abs=1e-3)
    assert np.all(np.diff(prof(np.linspace(0.0, 25.0, 5001))) <= 0)
    # the series itself out to r = 25
    assert 0 < prof(25.0) < 1e-9


def test_townes_profile_evaluates_its_series():
    """Up to TOWNES_R the profile is its Chebyshev series, bit for bit, and
    0 beyond; and acceptance 5's figures read as they are printed."""
    prof, edge = townes_profile(), variational.TOWNES_R
    r = np.linspace(0.0, edge, 20001)
    assert np.array_equal(prof(r), prof.series(r))
    beyond = np.nextafter(edge, np.inf) + np.array([0.0, 1.0, 100.0])
    assert np.array_equal(prof(beyond), np.zeros(3))
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
    c = townes_profile().c_lgn
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


def test_non_finite_beta_is_rejected_before_any_work(monkeypatch):
    """bounds and estimate_gamma refuse nan and inf before the Townes
    constant or a descent start is read."""
    def no_work(*args):
        raise AssertionError("work ran")

    for name in ("townes_profile", "_townes_start", "_ring_start"):
        monkeypatch.setattr(variational, name, no_work)
    with pytest.raises(ValueError, match=r"^beta must be finite and >= 0$"):
        bounds(float("nan"))
    with pytest.raises(ValueError, match=r"^beta must be finite and >= 0$"):
        estimate_gamma(float("inf"))


def test_estimate_gamma_runs_where_the_start_exceeds_ten_times_the_upper_bound(monkeypatch):
    """At beta = 60 on Grid(6, 32) the Townes start's quotient (about 6,355)
    is more than ten times the upper bound (377); the descent still runs and
    reports an estimate."""
    monkeypatch.setattr(variational, "MAX_ITER", 3)
    est = estimate_gamma(60.0, DescentConfig(grid=Grid(6.0, 32)))
    assert isinstance(est, GammaEstimate)
    assert est.iterations <= 3


def test_estimate_gamma_beta0_small_grid(monkeypatch):
    monkeypatch.setattr(variational, "MAX_ITER", 400)
    cfg = DescentConfig(grid=Grid(10.0, 96))
    est = estimate_gamma(0.0, cfg)
    assert est.gamma_hat == pytest.approx(townes_profile().c_lgn, rel=2e-2)
    assert est.lower_bound * 0.97 <= est.gamma_hat


@pytest.mark.parametrize("shape", [(16, 16), (20, 36), (128, 128), (256, 256)])
def test_blur_equals_gaussian_filter(shape):
    from scipy.ndimage import gaussian_filter

    v = np.random.default_rng(shape[1]).standard_normal(shape)
    assert np.array_equal(_blur(v), gaussian_filter(v, 2.0))


def _descend_every_trial_gradient(values, g, beta):
    """Reference descent that builds the gradient of every line-search trial.
    Returns (values, quotient, gradient norm, iterations, accepted steps)."""
    window = variational.PLATEAU_WINDOW
    quot, grad, _ = _quotient_and_grad(values, g, beta)
    step = 1e-2 * g.h**2
    history = [quot]
    gnorm = np.sqrt(np.sum(np.abs(grad) ** 2) * g.h**2)
    it = accepted_steps = 0
    for it in range(1, variational.MAX_ITER + 1):
        accepted = False
        for _ in range(30):
            trial = _norm_mass(values - step * grad, g)
            tq, tgrad, _ = _quotient_and_grad(trial, g, beta)
            if tq < quot:
                values, quot, grad = trial, tq, tgrad
                step *= 1.3
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        accepted_steps += 1
        gnorm = np.sqrt(np.sum(np.abs(grad) ** 2) * g.h**2)
        history.append(quot)
        if gnorm < variational.GRAD_TOL:
            break
        if (len(history) > window
                and history[-window - 1] - quot < variational.PLATEAU_TOL * abs(quot)):
            break
    return values, quot, gnorm, it, accepted_steps


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_descent_matches_every_trial_gradient_descent(monkeypatch, beta):
    """Trials that read only the quotient give the same descent, bit for bit,
    and build the gradient once per accepted step and once at the start."""
    g = Grid(12.0, 64)
    Z = g.zmesh()
    v0 = _norm_mass(_ring_start(g, beta) * (1.0 + 0.2 * np.exp(-np.abs(Z - 1.0) ** 2)), g)
    values, quot, gnorm, it, accepted = _descend_every_trial_gradient(v0, g, beta)
    assert accepted in (it - 1, it)

    calls = []
    real = variational.stationarity

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(variational, "stationarity", counted)
    got = _descend(v0, g, beta)
    assert np.array_equal(got[0], values)
    assert got[1:4] == (quot, gnorm, it)
    assert len(calls) == accepted + 1


def test_descent_stop_reasons(monkeypatch):
    """ascent (-grad ascends the discrete quotient) is why every descent
    stops today, and the estimate carries the slope above its bound that
    stopped it; a huge GRAD_TOL stops on the gradient, a huge PLATEAU_TOL
    on the plateau, MAX_ITER = 1 on the iteration cap, each with no slope."""
    g = Grid(12.0, 64)
    cfg = DescentConfig(grid=g, seed=1)
    est = estimate_gamma(0.0, cfg)
    assert est.stop_reason == "ascent"
    assert est.ascent_slope > variational.ASCENT_RTOL * est.gamma_hat * est.final_gradient_norm
    for constants, reason in (({"GRAD_TOL": 1e9}, "grad_tol"),
                              ({"PLATEAU_TOL": 1e9, "PLATEAU_WINDOW": 1}, "plateau"),
                              ({"MAX_ITER": 1}, "max_iter")):
        with monkeypatch.context() as m:
            for name, value in constants.items():
                m.setattr(variational, name, value)
            est = estimate_gamma(0.0, cfg)
        assert (est.stop_reason, est.iterations, est.ascent_slope) == (reason, 1, None)


def _seed1_starts(monkeypatch, beta, g):
    """The two starts that estimate_gamma(beta) descends from at seed 1."""
    starts = []

    def record(values, *args):
        starts.append(values)
        return values, 0.0, 0.0, 0, "max_iter", None

    with monkeypatch.context() as m:
        m.setattr(variational, "_descend", record)
        estimate_gamma(beta, DescentConfig(grid=g, seed=1))
    return starts


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_ascent_stop_changes_nothing_but_the_stop_reason(monkeypatch, beta):
    """With the slope read as 0, the descent halves 30 times and stops on
    line_search, with no slope: the values, quotient, gradient norm and
    iterations are those of the ascent stop, bit for bit."""
    g = Grid(12.0, 128)
    starts = _seed1_starts(monkeypatch, beta, g)
    got = [_descend(v, g, beta) for v in starts]
    monkeypatch.setattr(variational, "_slope", lambda *args: 0.0)
    for v, ascent in zip(starts, got):
        ref = _descend(v, g, beta)
        assert (ascent[4], ref[4]) == ("ascent", "line_search")
        assert ascent[5] > 0.0 and ref[5] is None
        assert np.array_equal(ascent[0], ref[0])
        assert ascent[1:4] == ref[1:4]


def test_ascent_stop_saves_the_failed_line_searches(monkeypatch):
    """estimate_gamma(1) on 12,128 made 99 quotient evaluations when each
    descent ended on 30 rejected trials; the ascent stop reads one."""
    calls = []
    real = variational._quotient

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(variational, "_quotient", counted)
    estimate_gamma(1.0, DescentConfig(grid=Grid(12.0, 128), seed=1))
    assert len(calls) <= 45


@pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
def test_slope_matches_central_differences(beta):
    """_slope is the derivative of the quotient along a line: central
    differences approach it as t^2, along -grad and along a smooth random
    complex direction that reaches the boundary ring."""
    g = Grid(12.0, 128)
    Z = g.zmesh()
    v = _norm_mass(_ring_start(g, beta) * (1.0 + 0.2 * np.exp(-np.abs(Z - 1.0) ** 2)), g)
    _, grad, state = _quotient_and_grad(v, g, beta)
    noise = np.random.default_rng(3).standard_normal((2, g.M, g.M))
    rand = _blur(noise[0]) + 1j * _blur(noise[1])
    ring = np.ones((g.M, g.M), bool)
    ring[2:-2, 2:-2] = False
    assert np.sum(np.abs(rand[ring]) ** 2) > 0.02 * np.sum(np.abs(rand) ** 2)

    def quotient(w):
        return variational._quotient(_norm_mass(w, g), g, beta)[0]

    for d in (-grad, rand):
        d = _norm_mass(d, g)  # unit L2 norm, as the field
        s = variational._slope(state, d)
        err = [abs((quotient(v + t * d) - quotient(v - t * d)) / (2.0 * t) - s) / abs(s)
               for t in (1e-4, 1e-5)]
        assert err[1] <= 2e-6
        assert err[0] >= 50.0 * err[1]


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_slope_reads_the_state_the_descent_holds(monkeypatch, beta):
    """_slope on the state whose gradient was just taken (stationarity
    dropped its D and A) has the bits of _slope on a fresh state of the same
    values; it builds no state of its own, reads the sum of |D|^2 the state
    cached (np.sum of the whole-array |D|^2) and leaves the state without D
    and A."""
    g = Grid(12.0, 64)
    Z = g.zmesh()
    v = _norm_mass(_ring_start(g, beta) * (1.0 + 0.2 * np.exp(-np.abs(Z - 1.0) ** 2)), g)
    _, grad, used = _quotient_and_grad(v, g, beta)
    fresh = variational._quotient(v, g, beta)[1]
    D1, D2 = variational.MagneticState(GridField(g, v), beta, variational.ORDER).D
    d_sum = float(np.sum(np.abs(D1) ** 2 + np.abs(D2) ** 2)).hex()
    monkeypatch.setattr(variational, "MagneticState", None)
    assert variational._slope(used, grad).hex() == variational._slope(fresh, grad).hex()
    for st in (used, fresh):
        assert set(vars(st)) == {"u", "beta", "order", "rho", "d_sum"}
        assert st.d_sum.hex() == d_sum


def test_structure_scan_validation():
    with pytest.raises(ValueError):
        structure_scan([1.0, 0.5])
    with pytest.raises(ValueError):
        structure_scan([-1.0, 1.0])


def test_structure_scan_rejects_repeated_beta_before_any_descent(monkeypatch):
    # a repeated beta would divide by zero in the Lipschitz quotient; a
    # non-finite one is refused before the finite ones before it run
    def no_descent(*args):
        raise AssertionError("a descent ran")

    monkeypatch.setattr(variational, "estimate_gamma", no_descent)
    for betas in ([0.5, 1.0, 1.0], [0.5, 1.0, np.inf], [0.5, np.nan]):
        with pytest.raises(ValueError, match="strictly increasing"):
            structure_scan(betas)


@pytest.mark.parametrize("rise,monotone", [(1.02, True), (1.04, False)])
def test_structure_scan_allows_gamma_over_beta_the_slack(monkeypatch, rise, monotone):
    """gamma/beta may rise by SCAN_SLACK = 3% from one beta to the next and
    no more; lipschitz is |dgamma| / |dbeta| between neighbours."""
    gammas = {1.0: 6.0, 2.0: 12.0 * rise}
    field = GridField(Grid(4.0, 16), np.zeros((16, 16)))

    def estimate(beta, cfg):
        return GammaEstimate(beta, gammas[beta], *bounds(beta), 1, 0.0, "ascent", field)

    monkeypatch.setattr(variational, "estimate_gamma", estimate)
    scan = structure_scan([1.0, 2.0])
    assert scan.gamma_over_beta_monotone is monotone
    assert scan.lipschitz == (12.0 * rise - 6.0,)


def test_structure_scan_row_i_is_estimate_gamma_with_seed_plus_i(monkeypatch):
    """Row i is estimate_gamma(beta_i) at seed config.seed + i, bit for bit;
    the seed moves the estimate, so a scan that ignored it would fail."""
    monkeypatch.setattr(variational, "MAX_ITER", 3)
    cfg = DescentConfig(grid=Grid(8.0, 32), seed=5)
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


def test_nll_energy_keeps_temporaries_to_a_block(traced_peak):
    """The harmonic nll_energy builds no M x M mesh or integrand: warm, its
    peak is the 16 MiB sampled soliton and block scratch (measured 17.9 MiB;
    49.0 MiB when |x|^2 came from the full mesh)."""
    pair = radial_ring(2).pair
    want = nll_energy(pair, 1.0, "harmonic")
    got, peak = traced_peak(lambda: nll_energy(pair, 1.0, "harmonic"))
    assert got == want
    assert peak < 24 * 2**20


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
