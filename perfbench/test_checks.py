"""Each benchmark check accepts a right output and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py -q
"""

import math

import numpy as np
import pytest

import checks

C = checks.C_LGN_WEINSTEIN


def test_paper_bounds_meet_at_the_known_constants():
    assert checks.paper_bounds(0.0) == pytest.approx((C, C))
    assert checks.paper_bounds(2.0) == pytest.approx((4 * math.pi, 4 * math.pi))
    lo, up = checks.paper_bounds(1.0)
    assert 2 * math.pi < lo < up


def test_gamma_checks():
    assert not checks.gamma_at_zero(1.01 * C)
    assert checks.gamma_at_zero(1.05 * C)
    assert not checks.gamma_at_two(0.99 * 4 * math.pi)
    assert checks.gamma_at_two(1.03 * 4 * math.pi)
    lo, up = checks.paper_bounds(1.0)
    assert not checks.gamma_sandwich(1.0, 0.5 * (lo + up))
    assert checks.gamma_sandwich(1.0, 1.05 * up)
    assert checks.gamma_sandwich(1.0, 0.95 * lo)
    assert checks.gamma_sandwich(1.0, float("nan"))


def test_gamma_over_beta_checks():
    betas = [0.5, 1.0, 1.5, 2.0]
    assert not checks.gamma_over_beta_nonincreasing(betas, [5.0, 8.0, 10.0, 12.5])
    assert checks.gamma_over_beta_nonincreasing(betas, [5.0, 10.5, 15.0, 19.0])


def test_factorization_check():
    beta, total, quartic = 1.0, 20.0, 0.5
    gap = total - 2 * math.pi * beta * quartic
    plus = total + 2 * math.pi * beta * quartic
    assert not checks.factorization(beta, total, quartic, gap, gap * (1 + 1e-7), plus)
    assert checks.factorization(beta, total, quartic, gap, gap + 1e-3 * plus, plus)
    assert checks.factorization(beta, total, quartic, gap, gap, plus * (1 + 1e-3))


def test_inequality_check():
    assert not checks.no_violations({"hardy": 0.3, "gn4": -1e-9})
    assert checks.no_violations({"hardy": 0.3, "gn4": -1e-3})
    assert checks.no_violations({"hardy": float("nan")})


def test_ring_checks():
    assert not checks.unit_mass(1.005)
    assert checks.unit_mass(1.02)
    assert not checks.saturation(1e-4, 1.0)
    assert checks.saturation(-2e-3, 1.0)
    assert not checks.stationarity(5e-3)
    assert checks.stationarity(2e-2)
    scale = checks.ring_ratio_closed(1, 0.0)
    want = checks.ring_ratio_closed(1, 1.0)
    assert want == pytest.approx(math.pi / 2)
    assert not checks.ring_ratio(1, 1.0, want + 5e-3 * scale)
    assert checks.ring_ratio(1, 1.0, want + 2e-2 * scale)
    assert not checks.quartic_ring_1(1.002 / (3 * math.pi))
    assert checks.quartic_ring_1(1.01 / (3 * math.pi))


def test_menger_and_round_trip_checks():
    exact = math.log(4 / 3) / 2
    assert not checks.menger_gaussian(exact * (1 + 1e-3))
    assert checks.menger_gaussian(exact * (1 + 1e-2))
    a = np.linspace(0.0, 1.0, 16).reshape(4, 4)
    assert not checks.bit_identical(a, a.copy())
    b = a.copy()
    b[1, 1] = np.nextafter(b[1, 1], 2.0)
    assert checks.bit_identical(a, b)
    assert checks.bit_identical(a, a.astype(complex))


def test_liouville_and_flux_checks():
    assert not checks.liouville(5e-7)
    assert checks.liouville(2e-6)
    assert not checks.flux(3.01, 3)
    assert checks.flux(3.05, 3)


def _su2(q):
    q = np.asarray(q, dtype=float) / np.linalg.norm(q)
    return np.array([[q[0] + 1j * q[1], q[2] + 1j * q[3]],
                     [-(q[2] - 1j * q[3]), q[0] - 1j * q[1]]])


def _act(T, pair):
    P, Q = (np.asarray(c, dtype=complex) for c in pair)
    n = max(P.size, Q.size)
    P, Q = np.pad(P, (0, n - P.size)), np.pad(Q, (0, n - Q.size))
    return T[0, 0] * P + T[0, 1] * Q, T[1, 0] * P + T[1, 1] * Q


def test_orbit_witness_check():
    p1 = (np.array([1.0, 0.0, 1.0]), np.array([0.5, 1.0]))
    T = 1.7 * _su2([0.3, -1.0, 0.4, 0.2])
    p2 = _act(T, p1)
    assert not checks.orbit_witness(True, T, p1, p2)
    assert checks.orbit_witness(False, None, p1, p2)
    D = np.diag([1.0, 2.0]).astype(complex)
    assert checks.orbit_witness(True, D, p1, _act(D, p1))
    assert checks.orbit_witness(True, T, p1, (p2[0] + 1e-3, p2[1]))


def test_inverse_problem_checks():
    f = [1.0, 0.0, 1.0]  # z^2 + 1
    primitive = ([0.0, 1.0, 0.0, 1.0 / 3.0], [1.0])
    split = ([-1.0, 0.0, 1.0], [0.0, 1.0])
    assert not checks.inverse_residuals([primitive, split], f)
    assert checks.inverse_residuals([primitive], [1.0, 0.0, 1.001])
    # an SL(2) image of a family is the same family
    sheared = _act(np.array([[1.0, 2.0], [0.0, 1.0]]), split)
    assert not checks.family_sets_equal([primitive, sheared], [primitive, split])
    assert checks.family_sets_equal([primitive], [primitive, split])
    assert checks.family_sets_equal([primitive, split], [primitive])


def test_deg3_family_check():
    P = np.polynomial.polynomial.polyfromroots([1.0, -0.5 + 1j, 2j])
    Q = np.array([-0.3 + 0.1j, 1.0])
    f = checks.wronskian_coeffs(P, Q)
    assert f.size == 4
    image = _act(np.array([[2.0, 1.0], [1.0, 1.0]]), (P, Q))
    primitive = (np.polynomial.polynomial.polyint(f), np.array([1.0]))
    assert checks.contains_family([primitive, image], (P, Q))
    assert not checks.contains_family([primitive], (P, Q))
