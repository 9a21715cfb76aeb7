"""Ground-state shooting, analytic bounds, the descent estimator, scans,
and the restricted confined energy."""

import os

import numpy as np
import pytest

from cssol import variational
from cssol.grid import Grid
from cssol.soliton import radial_ring
from cssol.variational import (
    DescentConfig,
    _descend,
    _dilate,
    _norm_mass,
    _quotient_and_grad,
    _ring_start,
    _shoot,
    _shot_class,
    bounds,
    estimate_gamma,
    nll_energy,
    structure_scan,
    townes_constant,
    townes_profile,
    townes_solve,
    vortex_ring_ratio,
    vortex_ring_ratio_closed,
    worker_count,
)
from cssol.wronskian_pairs import WronskianPair


def test_townes_constant_value():
    c = townes_constant()
    assert c == pytest.approx(0.931 * 2.0 * np.pi, rel=5e-3)


def test_townes_profile_shape():
    prof = townes_profile()
    assert prof.tau[0] == pytest.approx(2.2062, abs=1e-3)
    assert np.all(np.diff(prof.tau) <= 0)
    # callable evaluation with exponential tail
    assert prof(0.0) == pytest.approx(prof.tau[0], rel=1e-6)
    assert 0 < prof(25.0) < 1e-9


def test_townes_tolerance_validation():
    with pytest.raises(ValueError):
        townes_solve(tolerance=1e-12)
    with pytest.raises(ValueError):
        townes_solve(tolerance=1e-2)


def test_shot_class_early_exit_matches_full_shot():
    """The shot stopped once decided has the class of the shot run to r_max,
    also within 1e-9 of the separatrix, where both classes occur."""
    a_sep = townes_profile().tau[0]  # tau(1e-8) = a0 to about 1e-16
    a0s = [1.0, 1.5, 3.0, 10.0] + [a_sep + d for d in (
        -1e-3, -1e-6, -1e-9, -3e-10, 3e-10, 1e-9, 1e-6, 1e-3)]
    got = [_shot_class(a0, 18.0) for a0 in a0s]
    full = [1 if np.any(_shoot(a0, 18.0).y[0] < 0) else -1 for a0 in a0s]
    assert got == full
    assert got[4:] == [-1] * 4 + [1] * 4


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


def _descend_every_trial_gradient(values, g, beta, cfg, upper):
    """Reference descent that builds the gradient of every line-search trial
    and every dilation candidate. Returns
    (values, quotient, gradient norm, iterations, accepted steps, dilations
    won by a candidate)."""
    quot, grad = _quotient_and_grad(values, g, beta, cfg.order)
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
            tq, tgrad = _quotient_and_grad(trial, g, beta, cfg.order)
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
                cq, cg = _quotient_and_grad(cand, g, beta, cfg.order)
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


def test_worker_count_env(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # the count is capped at the cpus
    monkeypatch.setenv("CSS_THREADS", "2")
    assert worker_count() == 2
    monkeypatch.setenv("CSS_THREADS", "bogus")
    assert worker_count() >= 1


def test_worker_count_clamped_to_cpus_and_tasks(monkeypatch):
    # only the count is computed: no pool and no thread is started
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("CSS_THREADS", "64")
    assert worker_count() == 2
    assert worker_count(1) == 1
    assert worker_count(3) == 2
    monkeypatch.setenv("CSS_THREADS", "1")
    assert worker_count(4) == 1
    monkeypatch.delenv("CSS_THREADS")
    assert worker_count(8) == 2
    assert worker_count(0) == 1


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


def test_nll_energy_rejects_unknown_potential():
    with pytest.raises(ValueError):
        nll_energy(radial_ring(1).pair, 0.0, V="cubic")
