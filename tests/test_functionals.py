"""Energy decomposition, the weighted-square factorization, stationarity
residuals, curvature integrals, and the inequality battery."""

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from cssol import functionals
from cssol.functionals import (
    MagneticState,
    el_residual,
    inequality_battery,
    liouville_residual,
    magnetic_energy,
    menger_melnikov,
    stationarity,
    susy_rhs,
)
from cssol.grid import Grid, GridField, quadrature
from cssol.sampling import normalized, random_smooth_field
from cssol.soliton import radial_ring
from cssol.variational import _quotient_and_grad
from cssol.wronskian_pairs import WronskianPair


def _field(seed=0, g=None):
    g = g or Grid(16.0, 256)
    rng = np.random.default_rng(seed)
    return normalized(random_smooth_field(g, rng, min_width=1.2))


def test_energy_decomposition_sums():
    u = _field(1)
    rep = magnetic_energy(u, 1.5)
    total = rep.kinetic + rep.cross + rep.curvature
    assert total == pytest.approx(rep.total_E_beta, rel=1e-10)
    assert rep.bogomolnyi_gap == pytest.approx(
        rep.total_E_beta - 2 * np.pi * 1.5 * rep.quartic, rel=1e-10)


def test_energy_zero_field_rejected():
    g = Grid(16.0, 256)
    with pytest.raises(ValueError):
        magnetic_energy(GridField(g, np.zeros((256, 256))), 1.0)


def test_real_field_has_no_cross_term():
    g = Grid(16.0, 256)
    X, Y = g.mesh()
    u = GridField(g, np.exp(-(X**2 + Y**2) / 4.0))
    rep = magnetic_energy(u, 2.0)
    assert abs(rep.cross) < 1e-12 * rep.total_E_beta


def test_factorization_both_signs():
    u = _field(2)
    for beta in (0.5, 2.0):
        rep = magnetic_energy(u, beta, order=6)
        minus = susy_rhs(u, beta, -1, order=6)
        plus = susy_rhs(u, beta, +1, order=6)
        scale = rep.total_E_beta + 2 * np.pi * beta * rep.quartic
        assert abs(rep.bogomolnyi_gap - minus) < 1e-4 * scale
        assert abs(rep.total_E_beta + 2 * np.pi * beta * rep.quartic
                   - plus) < 1e-4 * scale


def test_factorization_sign_validation():
    u = _field(3)
    with pytest.raises(ValueError):
        susy_rhs(u, 1.0, 0)


def test_soliton_saturates_minus_branch():
    u = radial_ring(1).sample(Grid(40.0, 1024))
    rep = magnetic_energy(u, 2.0)
    assert abs(rep.bogomolnyi_gap) < 1e-3 * rep.total_E_beta
    assert rep.susy_rhs < 1e-3 * rep.total_E_beta


def test_el_residual_discriminates():
    g = Grid(40.0, 1024)
    u = normalized(radial_ring(1).sample(g))
    res, lam = el_residual(u, 2.0, 4.0 * np.pi)
    assert res < 1e-2
    assert f"{res:.2e}" == "6.72e-04"  # the figure acceptance 11 prints
    assert abs(lam) < 5e-2
    v = _field(4, Grid(16.0, 256))
    res2, _ = el_residual(v, 2.0, 4.0 * np.pi)
    assert res2 > 0.1


@pytest.mark.parametrize("beta", [0.0, 0.7, 2.0])
def test_descent_gradient_matches_finite_differences(beta):
    """2 Re<grad, v> h^2 / int|u|^4 is the derivative of the quotient along a
    mass-tangent direction v that vanishes near the boundary ring."""
    g = Grid(8.0, 64)
    Z = g.zmesh()
    u = _field(5, g).values * np.exp(0.4j * Z.real - 0.3j * Z.imag)
    u = u / np.sqrt(np.sum(np.abs(u) ** 2) * g.h**2)
    r2 = (np.abs(Z) / (0.6 * g.L)) ** 2
    chi = np.where(r2 < 1.0, (1.0 - r2) ** 4, 0.0)
    w = chi * (np.cos(Z.real) + 1j * np.sin(0.7 * Z.imag + 0.2)) * np.max(np.abs(u))
    v = w - np.real(np.vdot(u, w)) / np.real(np.vdot(u, chi * u)) * chi * u
    _, grad = _quotient_and_grad(u, g, beta, 4)
    slope = 2.0 * np.real(np.vdot(grad, v)) / np.sum(np.abs(u) ** 4)
    eps = 1e-5
    up, _ = _quotient_and_grad(u + eps * v, g, beta, 4)
    down, _ = _quotient_and_grad(u - eps * v, g, beta, 4)
    assert abs((up - down) / (2.0 * eps) - slope) <= 1e-6 * abs(slope)


def _count_kernel_calls(monkeypatch, *names):
    """Patch the named kernels as functionals sees them; returns the list
    each call appends its name to."""
    calls = []

    def counted(name):
        real = getattr(functionals, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    for name in names:
        monkeypatch.setattr(functionals, name, counted(name))
    return calls


def test_stationarity_kernel_calls(monkeypatch):
    """One A* per application at beta != 0; no kernel at all at beta = 0."""
    calls = _count_kernel_calls(monkeypatch, "vector_potential", "a_star")
    u = _field(2, Grid(8.0, 64))
    stationarity(MagneticState(u, 0.0), 3.0)
    assert calls == []
    stationarity(MagneticState(u, 1.0), 3.0)
    assert calls == ["vector_potential", "a_star"]


def test_beta_zero_reports_build_no_vector_potential(monkeypatch):
    """At beta = 0 the A terms carry weight 0, so A is never built."""
    u = _field(2, Grid(8.0, 64))
    kinetic, _, _ = MagneticState(u, 0.0).terms()
    calls = _count_kernel_calls(monkeypatch, "vector_potential")
    rep = magnetic_energy(u, 0.0)
    _, lam = el_residual(u, 0.0, 3.0)
    assert calls == []
    assert rep.cross == 0.0 and rep.curvature == 0.0
    assert rep.kinetic == kinetic == rep.total_E_beta
    assert lam == -kinetic


def test_superpotential_built_only_at_nonzero_beta(monkeypatch):
    """At beta = 0 the weights e^{-+ 2 beta Phi} are 1, so Phi is not built;
    at beta != 0 magnetic_energy builds it once, in its own state."""
    u = _field(2, Grid(8.0, 64))
    calls = _count_kernel_calls(monkeypatch, "superpotential")
    magnetic_energy(u, 0.0)
    susy_rhs(u, 0.0, 1)
    susy_rhs(u, 0.0, -1)
    assert calls == []
    magnetic_energy(u, 1.0)
    assert calls == ["superpotential"]


def test_el_residual_mass_guard():
    u = radial_ring(1).sample(Grid(16.0, 256))  # truncated: mass < 1 - 1e-6
    with pytest.raises(ValueError, match="unit mass"):
        el_residual(u, 2.0, 4.0 * np.pi)


def test_menger_melnikov_ring_closed_form():
    # int |A|^2 rho = Gamma(3 - 1/n) Gamma(1 + 1/n) / 6
    g = Grid(40.0, 1024)
    for n in (1, 2):
        rho = radial_ring(n).sample(g).map(lambda v: np.abs(v) ** 2)
        want = gamma_fn(3 - 1 / n) * gamma_fn(1 + 1 / n) / 6.0
        assert menger_melnikov(rho) == pytest.approx(want, rel=1e-2)


def test_menger_melnikov_gaussian_closed_form():
    # unit Gaussian, scale sigma: MM = log(4/3) / (2 sigma^2)
    g = Grid(14.0, 512)
    X, Y = g.mesh()
    rho = GridField(g, np.exp(-(X**2 + Y**2) / 2.0) / (2.0 * np.pi))
    assert menger_melnikov(rho) == pytest.approx(np.log(4.0 / 3.0) / 2.0,
                                                 rel=5e-3)


def test_liouville_residual_small_on_exact_solution():
    pair = WronskianPair([0.0, 1.0], [1.0])
    assert liouville_residual(pair, Grid(8.0, 256)) < 1e-6


def test_battery_no_violations_on_random_fields():
    for seed in range(4):
        u = _field(seed)
        rep = inequality_battery(u, 1.0)
        assert rep.violations(1e-6) == []
        assert 0.0 <= rep.hardy_empirical_ratio <= 1.5


def test_battery_negative_beta_skips_bogomolnyi():
    u = _field(5)
    names = {e.name for e in inequality_battery(u, -1.0).entries}
    assert "bogomolnyi" not in names
    names_pos = {e.name for e in inequality_battery(u, 1.0).entries}
    assert "bogomolnyi" in names_pos


def test_battery_soliton_saturation_margins():
    u = radial_ring(1).sample(Grid(40.0, 1024))
    rep = inequality_battery(u, 2.0)
    by_name = {e.name: e for e in rep.entries}
    assert abs(by_name["bogomolnyi"].margin_rel) < 1e-3
    assert abs(by_name["mm_interpolation"].margin_rel) < 1e-3
