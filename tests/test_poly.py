"""Polynomial algebra: arithmetic, Wronskian bilinearity, gcd, roots,
and the 2x2 transform action."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cssol import poly
from cssol.poly import ComplexPolynomial, PairTransform


def _cnum(max_mag=3.0):
    return st.complex_numbers(
        min_magnitude=0.0, max_magnitude=max_mag,
        allow_nan=False, allow_infinity=False)


def _polys(max_deg=4):
    return st.lists(_cnum(), min_size=1, max_size=max_deg + 1).map(
        ComplexPolynomial)


def _nonzero_polys(max_deg=4):
    return _polys(max_deg).filter(lambda p: not p.is_zero)


# -- basic arithmetic ------------------------------------------------------


def test_degree_and_coeffs():
    p = ComplexPolynomial([1, 0, 2])
    assert p.degree == 2
    assert list(p.coeffs) == [1, 0, 2]
    assert ComplexPolynomial([0, 0]).is_zero
    assert ComplexPolynomial([0.0]).degree is None


def test_trailing_zero_trim():
    assert ComplexPolynomial([1, 2, 0, 0]).degree == 1


@given(_polys(), _polys())
@settings(max_examples=60, deadline=None)
def test_add_evaluates_pointwise(p, q):
    z = 0.7 - 0.3j
    got = poly.evaluate(p + q, z)
    want = poly.evaluate(p, z) + poly.evaluate(q, z)
    assert abs(got - want) <= 1e-9 * (1 + abs(want))


@given(_polys(3), _polys(3))
@settings(max_examples=60, deadline=None)
def test_mul_evaluates_pointwise(p, q):
    z = -0.4 + 0.9j
    got = poly.evaluate(p * q, z)
    want = poly.evaluate(p, z) * poly.evaluate(q, z)
    assert abs(got - want) <= 1e-8 * (1 + abs(want))


def _horner_out_of_place(p, z):
    acc = np.full_like(np.asarray(z, dtype=complex), p.coeffs[-1]) if isinstance(
        z, np.ndarray) else p.coeffs[-1]
    for c in p.coeffs[-2::-1]:
        acc = acc * z + c
    return acc


def test_evaluate_matches_out_of_place_horner():
    rng = np.random.default_rng(0)
    p = ComplexPolynomial([1.5, -2j, 0.25 + 3j, -1.0, 0.7j])
    for z in (0.3 - 1.2j, rng.normal(size=(5, 7)),
              rng.normal(size=50) + 1j * rng.normal(size=50)):
        before = np.copy(z)
        got = np.asarray(poly.evaluate(p, z))
        want = np.asarray(_horner_out_of_place(p, z))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert np.array_equal(z, before) and np.asarray(z).dtype == before.dtype


def test_from_roots_vanishes_at_roots():
    rts = [1.0, -2.0 + 1j, 0.5j]
    p = poly.from_roots(rts, leading=2.0)
    for r in rts:
        assert abs(poly.evaluate(p, r)) < 1e-12
    assert abs(p.leading - 2.0) < 1e-12


def test_derivative_antiderivative_roundtrip():
    p = ComplexPolynomial([1, 2, 3, 4j])
    assert poly.derivative(poly.antiderivative(p)).close_to(p)


def test_derivative_is_bit_identical_to_polyder():
    """k c_k gives numpy's polyder bit for bit on seeded complex
    coefficients of degree 1..12, and ZERO for a constant and for zero."""
    rng = np.random.default_rng(28)
    for n in rng.integers(2, 14, size=600):
        p = ComplexPolynomial(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        want = ComplexPolynomial(np.polynomial.polynomial.polyder(p.coeffs))
        assert poly.derivative(p).coeffs.tobytes() == want.coeffs.tobytes()
    for c in ([2.5 - 1j], []):
        assert poly.derivative(ComplexPolynomial(c)) == poly.ZERO
    assert ComplexPolynomial(np.polynomial.polynomial.polyder([2.5 - 1j])) == poly.ZERO


# -- Wronskian -------------------------------------------------------------


@given(_polys(3), _polys(3), _cnum(2.0), _cnum(2.0))
@settings(max_examples=60, deadline=None)
def test_wronskian_bilinear(p, q, a, b):
    r = ComplexPolynomial([a, b])
    lhs = poly.wronskian(p + r, q)
    rhs = poly.wronskian(p, q) + poly.wronskian(r, q)
    assert (lhs - rhs).norm() <= 1e-8 * (1 + rhs.norm())


@given(_polys(4), _polys(4))
@settings(max_examples=60, deadline=None)
def test_wronskian_antisymmetric(p, q):
    s = poly.wronskian(p, q) + poly.wronskian(q, p)
    assert s.norm() <= 1e-9 * (1 + poly.wronskian(p, q).norm())


@given(_polys(4))
@settings(max_examples=30, deadline=None)
def test_wronskian_self_vanishes(p):
    assert poly.wronskian(p, p).norm() <= 1e-10 * (1 + p.norm() ** 2)


def test_wronskian_degree_bound():
    p = poly.from_roots([0, 1, 2])
    q = poly.from_roots([3, 4])
    w = poly.wronskian(p, q)
    assert (w.degree or 0) <= (p.degree + q.degree - 1)


def test_wronskian_determinant_rule_under_transform():
    p = ComplexPolynomial([1, 2, 1])
    q = ComplexPolynomial([0, 1j])
    t = PairTransform(np.array([[2.0, 1.0 + 1j], [0.5j, 1.0]]))
    tp, tq = poly.act(t, (p, q))
    w0 = poly.wronskian(p, q)
    w1 = poly.wronskian(tp, tq)
    scaled = ComplexPolynomial([t.det]) * w0
    assert (w1 - scaled).norm() <= 1e-10 * (1 + scaled.norm())


# -- division, gcd, roots --------------------------------------------------


def _well_conditioned(p):
    # a vanishing leading coefficient makes float division ill-conditioned
    return abs(p.leading) >= 1e-3 * max(1.0, p.norm())


@given(_nonzero_polys(3), _nonzero_polys(3).filter(_well_conditioned))
@settings(max_examples=50, deadline=None)
def test_divmod_reconstructs(p, d):
    q, r = poly.divmod_poly(p, d)
    recon = q * d + r
    assert (recon - p).norm() <= 1e-6 * (1 + p.norm())
    # division can leave rounding residues in the high coefficients, so the
    # degree bound is asserted after trimming numerically-zero entries
    tol = 1e-9 * (1 + p.norm())
    eff = [i for i, c in enumerate(r.coeffs) if abs(c) > tol]
    assert not eff or eff[-1] < max(d.degree, 1)


def test_coprime_detection():
    assert poly.coprime(poly.from_roots([0.0]), poly.from_roots([1.0]))
    shared = poly.from_roots([0.5])
    assert not poly.coprime(shared * poly.from_roots([1.0]),
                            shared * poly.from_roots([2.0]))
    assert poly.coprime(poly.ONE, poly.ZERO)
    assert poly.coprime(poly.ONE, ComplexPolynomial([2.0]))
    assert not poly.coprime(poly.from_roots([1.0]), poly.ZERO)
    with pytest.raises(ValueError):
        poly.coprime(poly.ZERO, poly.ZERO)


def test_coprime_sees_a_shared_double_root_split_by_rounding():
    # an R-search hit for f = 2 (z - 2)^4: P ~ (z - 2)^2 (z + 4), Q ~ (z - 2)^2
    # up to perturbations of 1e-7, which Euclidean remainders at GCD_EPS
    # reduce to a constant gcd; the Sylvester matrix is singular to rounding
    P = ComplexPolynomial([183.8260015635197 - 2.4464139268405905e-10j,
                           -137.86950600874988 - 3.1971718440393795e-05j,
                           0.0, 11.489125097697285])
    Q = ComplexPolynomial([0.6963106112405048 - 1.6147518477918816e-07j,
                           -0.6963106356649876 + 7.0388159545086988e-13j,
                           0.17407765891598234])
    assert not poly.coprime(P, Q)
    # roots 1e-3 apart are distinct
    assert poly.coprime(poly.from_roots([2.001, 1.999, -4.0]),
                        poly.from_roots([2.0, 2.5]))


def test_roots_with_multiplicity():
    p = poly.from_roots([1.0, 1.0, -2.0])
    rts = dict(poly.roots(p))
    assert len(rts) == 2
    mult = {round(z.real): m for z, m in rts.items()}
    assert mult == {1: 2, -2: 1}


@pytest.mark.parametrize("rts, leading, want", [
    ([0.5, 0.5, 0.5, 2.0, -1.0], 1.0, {0.5: 3, 2.0: 1, -1.0: 1}),
    ([2.0] * 4, 2.0, {2.0: 4}),
    ([0.1, 0.1, -0.1, 0.1j, 0.05 + 0.05j, -0.07j], 1.0,
     {0.1: 2, -0.1: 1, 0.1j: 1, 0.05 + 0.05j: 1, -0.07j: 1}),
])
def test_roots_merge_a_multiple_root_that_rounding_splits(rts, leading, want):
    # the eigenvalues of a triple root spread by ~1e-5 and those of a
    # quadruple root by ~4e-4; the distinct count d - deg gcd(p, p') says
    # how many clusters to keep, and it holds for roots of size 0.1 too
    got = poly.roots(poly.from_roots(rts, leading=leading))
    assert len(got) == len(want)
    for z, m in got:
        (w,) = [w for w in want if abs(z - w) <= 1e-8 * (1 + abs(w))]
        assert m == want[w]


def test_roots_of_constant_empty():
    assert poly.roots(ComplexPolynomial([3.0])) == []


# -- transforms ------------------------------------------------------------


def test_transform_classifiers():
    su2 = PairTransform(np.array([[0.6 + 0.8j, 0.0], [0.0, 0.6 - 0.8j]]))
    assert su2.is_special_unitary()
    assert (PairTransform(2.0 * su2.entries)).is_positive_scaled_su2()


def test_transform_immutable():
    t = PairTransform(np.eye(2))
    with pytest.raises(AttributeError):
        t.entries = np.zeros((2, 2))
