"""Singular-kernel operators against radial closed-form oracles.

For a radial density with mass-within-radius M(r), the log potential obeys
d/dr Phi = M(r)/r, so |A| = M(r)/r and curl A = 2 pi rho.  A unit Gaussian
has M(r) = 1 - exp(-r^2/2), giving every oracle below in closed form.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import RegularGridInterpolator

from cssol import kernels
from cssol.grid import Grid, GridField, deriv, interior_mask
from cssol.kernels import (
    _check_density,
    a_star,
    superpotential,
    vector_potential,
)


def log_convolution(f: GridField) -> GridField:
    """int log|x-y| f(y) dy of a signed real field, without superpotential's
    -log(|y|+1) renormalization: the kernel's log-table convolution itself."""
    return GridField(f.grid, kernels._log_conv(f.grid, kernels._real(f, "field"))[0])


def _gauss_grid(L=12.0, M=256):
    g = Grid(L, M)
    X, Y = g.mesh()
    rho = np.exp(-(X**2 + Y**2) / 2.0) / (2.0 * np.pi)
    return g, GridField(g, rho), np.hypot(X, Y)


def test_vector_potential_radial_oracle():
    g, rho, R = _gauss_grid()
    A1, A2 = vector_potential(rho)
    mag = np.hypot(A1.values, A2.values)
    want = (1.0 - np.exp(-R**2 / 2.0)) / np.maximum(R, 1e-12)
    mask = interior_mask(g, 8) & (R > 0.2)
    err = np.max(np.abs(mag - want)[mask])
    assert err < 5e-4


def test_vector_potential_tangential():
    g, rho, R = _gauss_grid()
    A1, A2 = vector_potential(rho)
    X, Y = g.mesh()
    # radial component vanishes for a radial density
    rad = (A1.values * X + A2.values * Y) / np.maximum(R, 1e-12)
    mask = interior_mask(g, 8) & (R > 0.2)
    assert np.max(np.abs(rad[mask])) < 5e-4


def test_curl_of_vector_potential():
    g, rho, R = _gauss_grid()
    A1, A2 = vector_potential(rho)
    c = deriv(A2, 0, 4).values - deriv(A1, 1, 4).values  # d1 A2 - d2 A1
    mask = interior_mask(g, 8)
    err = np.max(np.abs(c - 2.0 * np.pi * rho.values)[mask])
    assert err < 2e-3


def test_superpotential_center_value():
    g, rho, _ = _gauss_grid(L=16.0, M=512)
    phi = superpotential(rho)
    # Phi(0) = int (log|y| - log(|y|+1)) rho = 1-D radial quadrature
    oracle = quad(
        lambda r: (np.log(r) - np.log(r + 1.0))
        * np.exp(-r * r / 2.0) * r, 0, 40.0)[0]
    i = g.M // 2
    # average the 4 nodes around the origin (even M: no node at 0)
    got = np.mean([phi.values[a, b] for a in (i - 1, i) for b in (i - 1, i)])
    # the near-origin log dip is quadratic over one spacing: h^2-level match
    assert abs(got - oracle) < 5e-3


def test_superpotential_radial_derivative():
    g, rho, R = _gauss_grid(L=12.0, M=512)
    phi = superpotential(rho)
    d1 = deriv(phi, 0, 4).values
    d2 = deriv(phi, 1, 4).values
    X, Y = g.mesh()
    radial = (d1 * X + d2 * Y) / np.maximum(R, 1e-12)
    want = (1.0 - np.exp(-R**2 / 2.0)) / np.maximum(R, 1e-12)
    mask = interior_mask(g, 8) & (R > 0.5)
    assert np.max(np.abs(radial - want)[mask]) < 1e-3


def test_gradient_perp_relation():
    """A = (-d2 Phi, d1 Phi) on the grid (typo-corrected adjoint sign)."""
    g, rho, R = _gauss_grid()
    phi = superpotential(rho)
    A1, A2 = vector_potential(rho)
    mask = interior_mask(g, 8)
    e1 = np.abs(A1.values + deriv(phi, 1, 4).values)[mask].max()
    e2 = np.abs(A2.values - deriv(phi, 0, 4).values)[mask].max()
    assert max(e1, e2) < 1e-3


def test_a_star_derivative_identity():
    """A*[F] = -d2 Phi[F1] + d1 Phi[F2] for smooth compactly-decaying F."""
    g = Grid(12.0, 256)
    X, Y = g.mesh()
    env = np.exp(-(X**2 + Y**2) / 3.0)
    F1 = GridField(g, env * (1.0 + 0.3 * X))
    F2 = GridField(g, env * (Y - 0.2 * X))
    got = a_star(F1, F2).values
    want = (-deriv(log_convolution(F1), 1, 4).values
            + deriv(log_convolution(F2), 0, 4).values)
    mask = interior_mask(g, 8)
    scale = np.max(np.abs(want[mask]))
    assert np.max(np.abs(got - want)[mask]) < 2e-3 * max(scale, 1.0)


def test_a_star_ring_oracle():
    """For the unit-vortex density rho = (1/pi)/(1+r^2)^2 with A = rho-field:
    A*[A rho] = -1/(2 (1+r^2)^2) exactly."""
    g = Grid(24.0, 1024)
    X, Y = g.mesh()
    r2 = X**2 + Y**2
    rho = (1.0 / np.pi) / (1.0 + r2) ** 2
    A1, A2 = vector_potential(GridField(g, rho))
    got = a_star(GridField(g, A1.values * rho),
                 GridField(g, A2.values * rho)).values
    want = -0.5 / (1.0 + r2) ** 2
    mask = interior_mask(g, 8)
    assert np.max(np.abs(got - want)[mask]) < 1e-3


def newton_check(rho: GridField, radii) -> list[tuple[float, float]]:
    """Angular averages of Phi[rho]/log(r) at the given radii.

    By the point-mass asymptotics these approach the total mass of rho.
    """
    g = rho.grid
    # the translation-invariant log potential: the -log(|y|+1) renormalization
    # is an x-independent constant that only washes out of Phi/log r in the
    # r -> infinity limit, so it is dropped for finite-radius ratios
    _check_density(rho)
    phi = log_convolution(rho)
    interp = RegularGridInterpolator((g.axis, g.axis), phi.values)
    out = []
    for r in radii:
        if r > 0.8 * g.L:
            raise ValueError(f"radius {r} is tail-dominated (L = {g.L})")
        theta = np.linspace(0.0, 2.0 * np.pi, 720, endpoint=False)
        pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
        avg = float(np.mean(interp(pts)))
        out.append((float(r), avg / np.log(r)))
    return out


def test_newton_limit():
    g, rho, _ = _gauss_grid(L=40.0, M=512)
    for r, ratio in newton_check(rho, [20.0, 30.0]):
        assert ratio == pytest.approx(1.0, abs=2e-2)


def test_newton_radius_guard():
    g, rho, _ = _gauss_grid(L=12.0, M=256)
    with pytest.raises(ValueError):
        newton_check(rho, [11.0])


def test_density_validation():
    g = Grid(8.0, 64)
    X, _ = g.mesh()
    with pytest.raises(ValueError):
        superpotential(GridField(g, X))  # negative entries
    with pytest.raises(ValueError):
        vector_potential(GridField(g, (1 + 1j) * np.ones_like(X)))


def test_a_star_grid_mismatch():
    g1 = Grid(8.0, 64)
    g2 = Grid(8.0, 128)
    with pytest.raises(ValueError):
        a_star(GridField(g1, np.zeros((64, 64))),
               GridField(g2, np.zeros((128, 128))))


def test_complex_inputs_with_imaginary_part_are_refused():
    """a_star and log_convolution raise on an imaginary part above 1e-12
    (A*[g(1+i), g(1+i)] used to equal A*[g, g] with only a warning) and
    accept a complex array whose imaginary part is zero."""
    g, rho, _ = _gauss_grid(L=8.0, M=64)
    G = rho.values
    F = GridField(g, G * (1 + 1j))
    with pytest.raises(ValueError, match="must be real"):
        a_star(F, F)
    with pytest.raises(ValueError, match="must be real"):
        a_star(rho, F)
    with pytest.raises(ValueError, match="must be real"):
        log_convolution(F)
    Z = GridField(g, G + 0j)
    assert np.array_equal(a_star(Z, Z).values, a_star(rho, rho).values)
    assert np.array_equal(log_convolution(Z).values, log_convolution(rho).values)
