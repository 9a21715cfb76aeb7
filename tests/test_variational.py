"""Ground-state shooting, analytic bounds, the descent estimator, scans,
and the restricted confined energy."""

import os

import numpy as np
import pytest

from cssol.grid import Grid
from cssol.soliton import radial_ring
from cssol.variational import (
    DescentConfig,
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
