"""Explicit solutions: the log-density equation, the minimizing fields,
vortex rings, and the scaled-SU(2) symmetry orbit."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from cssol import poly
from cssol.grid import Grid, quadrature
from cssol.poly import ComplexPolynomial, PairTransform
from cssol.soliton import (
    LiouvilleSolution,
    Soliton,
    VortexSpec,
    radial_ring,
    same_orbit,
    total_vorticity,
    vortex_ring,
    zeros_and_vorticity,
)
from cssol.wronskian_pairs import WronskianPair


def _pair_z_one():
    return WronskianPair([0.0, 1.0], [1.0])


def test_liouville_psi_closed_form():
    sol = LiouvilleSolution(_pair_z_one())
    # psi = log 8 - 2 log(1 + |z|^2)
    z = 1.0 + 1.0j
    want = np.log(8.0) - 2.0 * np.log(1.0 + abs(z) ** 2)
    assert sol.psi(z) == pytest.approx(want, rel=1e-14)
    assert sol.rhs(0.0) == pytest.approx(8.0, rel=1e-14)


def test_soliton_profile_closed_form():
    s = radial_ring(1)
    # u_1 = sqrt(1/pi) conj(z)^0 / (1 + |z|^2) -> at z = 0: sqrt(1/pi)
    assert s.beta == 2.0
    assert s.u(0.0) == pytest.approx(np.sqrt(1.0 / np.pi), rel=1e-12)
    z = 2.0 + 1.0j
    want = np.sqrt(1.0 / np.pi) / (1.0 + abs(z) ** 2)
    assert abs(s.u(z)) == pytest.approx(want, rel=1e-12)


def test_soliton_mass_and_quartic():
    g = Grid(40.0, 1024)
    for n, q_exact in ((1, 1.0 / (3.0 * np.pi)), (2, 0.125)):
        u = radial_ring(n).sample(g)
        assert quadrature(u, 2) == pytest.approx(1.0, rel=1e-2)
        assert quadrature(u, 4) == pytest.approx(q_exact, rel=5e-3)


def test_quartic_closed_form_all_n():
    # int |u_n|^4 = (n / (6 pi)) Gamma(2 + 1/n) Gamma(2 - 1/n)
    g = Grid(40.0, 1024)
    for n in (2, 3):
        want = n / (6.0 * np.pi) * gamma_fn(2 + 1 / n) * gamma_fn(2 - 1 / n)
        got = quadrature(radial_ring(n).sample(g), 4)
        assert got == pytest.approx(want, rel=5e-3)


def test_soliton_needs_degree():
    # a degree-0 pair is dependent, so no pair and no soliton exists for it
    with pytest.raises(ValueError, match="dependent"):
        Soliton(WronskianPair([1.0], [2.0]))
    assert Soliton(_pair_z_one()).beta == 2.0


def test_vortex_spec_validation():
    with pytest.raises(ValueError):
        VortexSpec(0)
    with pytest.raises(ValueError):
        VortexSpec(1, a=0.0)
    with pytest.raises(ValueError):
        VortexSpec(1, b=-1.0)


def test_vortex_ring_matches_radial_ring():
    s1 = vortex_ring(VortexSpec(2))
    s2 = radial_ring(2, C=1.0)
    z = 0.3 - 0.7j
    assert abs(s1.u(z)) == pytest.approx(abs(s2.u(z)), rel=1e-12)


def test_zeros_and_vorticity():
    s = radial_ring(3)  # W ~ z^2
    zv = zeros_and_vorticity(s)
    assert len(zv) == 1
    z0, m = zv[0]
    assert abs(z0) < 1e-8 and m == 2
    assert total_vorticity(s) == 2
    assert total_vorticity(radial_ring(1)) == 0
    # W = 4 (z - 1)^3: a triple zero, though its companion eigenvalues are
    # spread by 3e-5
    (z1, m1), = zeros_and_vorticity(vortex_ring(VortexSpec(4, z0=1, c=0.5)))
    assert abs(z1 - 1) < 1e-8 and m1 == 3


def radial_ring_psi0(n: int, C: complex = 1.0) -> float:
    """Independent 1-D oracle for psi0 of a radial ring.

    Phi[rho](0) = 2 pi int_0^inf (log r - log(r+1)) rho_n(r) r dr with the
    radial density rho_n = (n/pi) r^{2n-2}/(r^{2n}+|C|^2)^2, minus the
    (1/beta) log S(0) = (1/(2n)) log |C|^2 closed-form part.
    """
    n = int(n)
    aC = abs(C)

    def integrand(r):
        rho = (n / np.pi) * r ** (2 * n - 2) / (r ** (2 * n) + aC * aC) ** 2
        return (np.log(r) - np.log(r + 1.0)) * rho * 2.0 * np.pi * r

    val, _ = quad(integrand, 0.0, np.inf, limit=400)
    return float(val - np.log(aC * aC) / (2 * n))


def test_psi0_matches_radial_oracle():
    for n in (1, 2):
        s = radial_ring(n)
        # matching-node h^2 error dominates (the constant is pinned at the
        # four nodes nearest the origin where the log dip is steepest)
        assert s.psi0() == pytest.approx(radial_ring_psi0(n), abs=6e-3)


def test_superpotential_closed_gradient_consistency():
    # grad-perp of the closed-form superpotential reproduces A[|u|^2]
    from cssol.grid import GridField, deriv, interior_mask
    from cssol.kernels import vector_potential

    s = radial_ring(1)
    g = Grid(20.0, 512)
    phi = GridField(g, np.vectorize(
        lambda x, y: s.superpotential_closed(x + 1j * y))(*g.mesh()))
    rho = s.sample(g).map(lambda v: np.abs(v) ** 2)
    A1, A2 = vector_potential(rho)
    # beta * A = grad-perp(log S) since Phi = log S / beta + const
    e1 = np.abs(s.beta * A1.values + deriv(phi, 1, 4).values * s.beta)
    e2 = np.abs(s.beta * A2.values - deriv(phi, 0, 4).values * s.beta)
    mask = interior_mask(g, 8)
    assert max(e1[mask].max(), e2[mask].max()) < 5e-3


def test_same_orbit_true_with_witness():
    pair = WronskianPair([1.0, 0.0, 1.0], [0.5, 1.0])
    q = np.array([0.5, 0.5, 0.5, 0.5])
    t = PairTransform(1.7 * np.array(
        [[q[0] + 1j * q[1], q[2] + 1j * q[3]],
         [-(q[2] - 1j * q[3]), q[0] - 1j * q[1]]]))
    image = pair.transformed(t)
    ok, witness = same_orbit(pair, image)
    assert ok
    assert witness is not None and witness.is_positive_scaled_su2(1e-6)
    P, Q = poly.act(witness, (pair.P, pair.Q))
    assert (P - image.P).norm() <= 1e-10 and (Q - image.Q).norm() <= 1e-10


def test_same_orbit_false_for_distinct_solitons():
    ok, _ = same_orbit(radial_ring(1).pair, radial_ring(2).pair)
    assert not ok
    # same degree, different modulus
    p1 = WronskianPair([1.0, 0.0, 1.0], [1.0])   # z^2 + 1, 1
    p2 = WronskianPair([5.0, 0.0, 1.0], [1.0])   # z^2 + 5, 1
    ok, _ = same_orbit(p1, p2)
    assert not ok


@pytest.mark.parametrize("m", [
    np.array([[0.6, 0.8j], [0.8j, 0.6]]) @ np.diag([2.0, 0.5]),
    np.array([[1.0, 0.3], [0.0, 1.0]]),
], ids=["U diag(2, 0.5)", "shear"])
def test_same_orbit_false_for_sl2_images_outside_rsu2(m):
    # the same span, so the same family of W(P, Q) = f, but a different u
    pair = WronskianPair([1.0, 0.0, 1.0], [0.5, 1.0])
    ok, witness = same_orbit(pair, pair.transformed(PairTransform(m)))
    assert not ok and witness is None


def test_orbit_invariance_of_field():
    rng = np.random.default_rng(3)
    pair = WronskianPair([1.0, 2.0, 0.0, 1.0], [1.0, 1.0j])
    s = Soliton(pair)
    qv = rng.standard_normal(4)
    qv /= np.linalg.norm(qv)
    lam = 2.3
    t = PairTransform(lam * np.array(
        [[qv[0] + 1j * qv[1], qv[2] + 1j * qv[3]],
         [-(qv[2] - 1j * qv[3]), qv[0] - 1j * qv[1]]]))
    s2 = Soliton(pair.transformed(t))
    pts = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    assert np.allclose(s.u(pts), s2.u(pts), atol=1e-12)
