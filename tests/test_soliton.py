"""Explicit solutions: the log-density equation, the minimizing fields,
vortex rings, and the scaled-SU(2) symmetry orbit."""

import dataclasses

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from cssol import poly
from cssol.grid import Grid, quadrature
from cssol.poly import ComplexPolynomial, PairTransform
from cssol.sampling import _separated_roots, haar_su2, random_pair
from cssol.soliton import (
    LiouvilleSolution,
    Soliton,
    VortexSpec,
    radial_ring,
    same_orbit,
    vortex_ring,
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


def _pair_of_degree(rng, d):
    while True:
        pair = random_pair(rng, max_degree=d)
        if pair.max_degree == d:
            return pair


def _deg12_pair():
    # twelve roots in |z| <= 2 and a constant partner, SU(2)-mixed
    rng = np.random.default_rng(4)
    roots = 2.0 * np.sqrt(rng.uniform(size=12)) * np.exp(2j * np.pi * rng.uniform(size=12))
    return WronskianPair(*poly.act(haar_su2(rng), (poly.from_roots(roots),
                                                   ComplexPolynomial([3.0]))))


_rng = np.random.default_rng(25)
GRID_PATH_CASES = {
    **{f"ring n={n}": radial_ring(n).pair for n in (1, 2, 3, 4)},
    **{f"pair deg {d}": _pair_of_degree(_rng, d) for d in (1, 2, 3, 4)},
    "pair deg 12": _deg12_pair(),
    "off-centre vortex": vortex_ring(
        VortexSpec(3, a=0.7 - 0.2j, b=1.3, c=0.5 + 0.1j, z0=1.5 - 2j)).pair,
}


def _tensor_tol(pair):
    """1e-13, or 4 * 2^(n/2) ulps where that is more (n >= 14): the
    Vandermonde sum of the grid path can lose up to 2^(n/2) ulps on the
    diagonal |x| = |y|. n = 2 max(deg P, deg Q) - 1 bounds the degree of the
    coefficient-wise W that the bound was fitted on. With W at its exact
    degree the degree-12 pair's rhs on the full 40,1024 grid still reads
    1.5e-12 against a long-double reference (pointwise Horner 6.4e-14), so
    that loss comes from P and Q, and n stays this bound."""
    n = 2 * pair.max_degree - 1
    return max(1e-13, 2 ** (n / 2) * 4 * np.finfo(float).eps)


def _rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def _horner(p, z):
    acc = np.zeros_like(z)
    for c in p.coeffs[::-1]:
        acc = acc * z + c
    return acc


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("L,M", [(12, 16), (12, 130), (40, 1024), (60, 1024)])
@pytest.mark.parametrize("case", list(GRID_PATH_CASES))
def test_grid_path_matches_a_long_double_horner_reference(case, L, M):
    # 130 rows are not a whole number of blocks; at M = 1024 every fourth
    # row is compared, which keeps the long-double reference cheap
    pair, g = GRID_PATH_CASES[case], Grid(L, M)
    rows = slice(None, None, max(1, M // 256))
    x = g.axis.astype(np.longdouble)
    z = x[rows, None] + 1j * x
    P, Q, W = (_horner(p, z) for p in (pair.P, pair.Q, pair.W))
    S = np.abs(P) ** 2 + np.abs(Q) ** 2
    sol = Soliton(pair)
    u = sol.sample(g).values
    assert u.dtype == complex and not u.flags.writeable
    assert _rel(u[rows], sol.norm_const * np.conj(W) / S) <= _tensor_tol(pair)


@pytest.mark.parametrize("L,M", [(12, 16), (12, 130), (40, 1024)])
@pytest.mark.parametrize("case", list(GRID_PATH_CASES))
def test_liouville_grid_path_matches_pointwise_psi_and_rhs(case, L, M):
    pair, g = GRID_PATH_CASES[case], Grid(L, M)
    sol = LiouvilleSolution(pair)
    for got, fn in zip(sol.sample(g), (sol.psi, sol.rhs)):
        assert got.values.dtype == float and not got.values.flags.writeable
        assert _rel(got.values, g.sample(fn).values) <= _tensor_tol(pair)


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
    for b in (1j, np.nan):  # a complex b is refused before float() sees it
        with pytest.raises(ValueError, match="^b must be a positive real$"):
            VortexSpec(1, b=b)


@pytest.mark.parametrize("n", [1.5, 2.0, np.float64(2.0)])
def test_vortex_spec_degree_must_be_an_integer(n):
    """A float degree is refused, not truncated to a lower ring."""
    with pytest.raises(ValueError, match="^vortex degree n must be an integer$"):
        VortexSpec(n)


def test_vortex_spec_takes_a_numpy_integer_degree():
    spec = VortexSpec(np.int64(2))
    assert spec.n == 2 and type(spec.n) is int


def test_vortex_spec_from_strings_equals_typed():
    """VortexSpec converts first: strings, as the CLI passes them, give the
    fields, and the types, of the typed values."""
    typed = VortexSpec(3, a=0.7 - 0.2j, b=1.3, c=0.5 + 0.1j, z0=1.5 - 2j)
    text = VortexSpec("3", a="0.7-0.2j", b=" 1.3", c="0.5+0.1j", z0="1.5-2j")
    for spec in (text, typed):
        assert [type(v) for v in dataclasses.astuple(spec)] == [int, complex, float, complex,
                                                                 complex]
    assert dataclasses.astuple(text) == dataclasses.astuple(typed)


@pytest.mark.parametrize("kw", [{"a": np.nan}, {"a": complex(0.0, np.inf)}, {"b": np.inf},
                                {"b": "1e400"}, {"c": "nan"}, {"c": -np.inf},
                                {"z0": complex(np.nan, 1.0)}, {"z0": "inf"}])
def test_vortex_spec_rejects_non_finite_parameters(kw):
    with pytest.raises(ValueError, match="^vortex parameters must be finite$"):
        VortexSpec(1, **kw)


def test_vortex_ring_matches_radial_ring():
    s1 = vortex_ring(VortexSpec(2))
    s2 = radial_ring(2)
    z = 0.3 - 0.7j
    assert abs(s1.u(z)) == pytest.approx(abs(s2.u(z)), rel=1e-12)


def test_zeros_and_vorticity():
    s = radial_ring(3)  # W ~ z^2
    zv = poly.roots(s.pair.W)
    assert len(zv) == 1
    z0, m = zv[0]
    assert abs(z0) < 1e-8 and m == 2
    assert s.pair.W.degree == 2
    assert radial_ring(1).pair.W.degree == 0
    # W = 4 (z - 1)^3: a triple zero, though its companion eigenvalues are
    # spread by 3e-5
    (z1, m1), = poly.roots(vortex_ring(VortexSpec(4, z0=1, c=0.5)).pair.W)
    assert abs(z1 - 1) < 1e-8 and m1 == 3


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_vortices_are_the_critical_points_of_p0(d):
    # the pair as random_pair builds it: W(U (P0, c)) = det U * c P0' for U
    # in SU(2), so the vortices are the d - 1 simple roots of P0'
    rng = np.random.default_rng(d)
    P0 = poly.from_roots(_separated_roots(rng, d))
    pair = WronskianPair(*poly.act(haar_su2(rng), (P0, ComplexPolynomial([3.0]))))
    zv = poly.roots(Soliton(pair).pair.W)
    assert [m for _, m in zv] == [1] * (d - 1)
    dist = np.abs(np.subtract.outer([z for z, _ in zv],
                                    np.roots(poly.derivative(P0).coeffs[::-1])))
    assert sorted(dist.argmin(axis=1)) == list(range(d - 1))
    assert dist.min(axis=1).max() <= 1e-10


def test_vector_potential_is_grad_perp_log_s():
    # beta A[|u|^2] = grad-perp(log S), S = |P|^2 + |Q|^2, since
    # Phi[|u|^2] = log S / beta + const; log S = (log 8 - psi) / 2
    from cssol.grid import deriv, interior_mask
    from cssol.kernels import vector_potential

    s = radial_ring(1)
    g = Grid(20.0, 512)
    psi, _ = LiouvilleSolution(s.pair).sample(g)
    log_s = psi.map(lambda v: (np.log(8.0) - v) / 2.0)
    rho = s.sample(g).map(lambda v: np.abs(v) ** 2)
    A1, A2 = vector_potential(rho)
    e1 = np.abs(s.beta * A1.values + deriv(log_s, 1, 4).values)
    e2 = np.abs(s.beta * A2.values - deriv(log_s, 0, 4).values)
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
