"""Validated pairs, closed-form inverse families, the Bethe-ansatz
families, the restricted ODE kernel, and the canonical deduplication form."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cssol import poly, wronskian_pairs
from cssol.poly import ComplexPolynomial, PairTransform
from cssol.sampling import random_pair
from cssol.wronskian_pairs import (
    RESIDUAL_RTOL,
    SolutionFamily,
    WronskianPair,
    _same_family,
    bethe_coefficients,
    canonical_form,
    ode_kernel,
    ode_operator_matrix,
    primitive_family,
    solve_generic,
)


def _sl2(rng) -> PairTransform:
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    while abs(d) < 1e-3:
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return PairTransform(m / np.sqrt(d))


# -- validated constructor -------------------------------------------------


def test_pair_rejects_dependent():
    with pytest.raises(ValueError, match="dependent"):
        WronskianPair([0, 1], [0, 2])


def test_pair_rejects_noncoprime():
    shared = poly.from_roots([1.0])
    with pytest.raises(ValueError, match="coprime"):
        WronskianPair(shared * poly.from_roots([0.0]),
                      shared * ComplexPolynomial([1.0]))


def test_pair_immutable_and_cached_w():
    p = WronskianPair([0, 0, 1.0], [2.0])  # (z^2, 2)
    assert p.max_degree == 2
    assert p.W.close_to(ComplexPolynomial([0, 4.0]))
    with pytest.raises(AttributeError):
        p.P = ComplexPolynomial([1.0])


def test_w_has_its_exact_degree():
    # random_pair mixes (P0, c) by SU(2), so W = det * c P0' has degree
    # deg P0 - 1; with deg P = deg Q the top terms of P'Q and PQ' cancel only
    # to rounding, and the coefficient-wise W reached up to degree 2 deg P - 1
    for s in range(200):
        pair = random_pair(np.random.default_rng(s), max_degree=4)
        assert pair.W.degree == pair.max_degree - 1
        assert pair.W.close_to(poly.wronskian(pair.P, pair.Q), rtol=1e-14)


# -- closed-form families --------------------------------------------------


@given(st.integers(0, 4),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                          allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=1.5,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=40, deadline=None)
def test_primitive_family_residual(n, a, z0):
    # f = a (z - z0)^n: the primitive family is the closed-form single-root
    # family ((z - z0)^(n+1), a/(n+1)) modulo SL(2)
    f = ComplexPolynomial([a]) * poly.from_roots([z0] * n)
    fam = primitive_family(f)
    assert fam.kind == "Primitive"
    assert fam.residual <= 1e-10
    assert fam.representative.max_degree == n + 1
    closed = WronskianPair(poly.from_roots([z0] * (n + 1)), [a / (n + 1)])
    assert _same_family(fam.representative, closed)


def test_degree_two_split_plus_primitive():
    fams = solve_generic(ComplexPolynomial([1.0, 0.0, 1.0]))  # z^2 + 1
    assert [f.kind for f in fams] == ["Primitive", "Bethe"]
    assert all(f.residual <= 1e-10 for f in fams)


def test_degree_two_perfect_square_has_no_split():
    # a double root is one spin V_2, which has no singular vector of
    # weight 0: no k = 1 candidate
    fams = solve_generic(ComplexPolynomial([1.0, 2.0, 1.0]))  # (z+1)^2
    assert [f.kind for f in fams] == ["Primitive"]


def test_solve_generic_degree_dispatch():
    assert len(solve_generic(ComplexPolynomial([2.0]))) == 1
    assert len(solve_generic(ComplexPolynomial([1.0, 1.0]))) == 1
    assert len(solve_generic(ComplexPolynomial([1.0, 0.0, 1.0]))) == 2


def test_solve_generic_rejects_zero():
    with pytest.raises(ValueError):
        solve_generic(ComplexPolynomial([0.0]))


@pytest.mark.parametrize("z0", [0.0, 2.0, 0.3 + 0.7j, -1.0, 1j])
def test_solve_generic_single_root_quartic_is_one_family(z0):
    # pairs such as ((z-2)^2 (z+4), c (z-2)^2) solve W = f with a residual
    # of 1e-12 but share a root; only the primitive family is returned, for
    # every z0
    f = ComplexPolynomial([2.0]) * poly.from_roots([z0] * 4)
    fams = solve_generic(f)
    assert [fam.kind for fam in fams] == ["Primitive"]


def test_solve_generic_cubic_primitive_certified():
    f = ComplexPolynomial([1.0, 0.0, 0.0, 1.0])  # z^3 + 1
    fams = solve_generic(f)
    assert fams, "primitive family must always be found"
    assert all(fam.residual <= 1e-8 for fam in fams)
    w = fams[0].representative.W
    assert (w - f).norm() <= 1e-9 * f.norm()


def _span_rank(*polys) -> int:
    n = max(len(p.coeffs) for p in polys)
    rows = np.array([np.pad(p.coeffs, (0, n - len(p.coeffs))) / p.norm() for p in polys])
    s = np.linalg.svd(rows, compute_uv=False)
    return int(np.sum(s > 1e-6 * s[0]))


def test_solve_generic_cubic_finds_non_primitive_family():
    # the family must survive the kernel basis' rounding-level top
    # coefficients, which used to make deg W != deg f and drop the family;
    # W(z^3/2 - 1, z) = z^3 + 1 is the family besides the primitive one
    f = ComplexPolynomial([1.0, 0.0, 0.0, 1.0])
    fams = solve_generic(f)
    assert len(fams) >= 2
    assert all(fam.residual <= RESIDUAL_RTOL for fam in fams)
    reps = [(fam.representative.P, fam.representative.Q) for fam in fams]
    split = (ComplexPolynomial([-1.0, 0.0, 0.0, 0.5]), ComplexPolynomial([0.0, 1.0]))
    assert any(_span_rank(*split, *r) == 2 for r in reps)
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert _span_rank(*reps[i], *reps[j]) > 2, "duplicate family"


# -- Bethe-ansatz families ---------------------------------------------------


def _check_complete(f, counts):
    """solve_generic(f) returns counts[k] families with canonical deg Q = k,
    pairwise distinct, each within 1e-10 of f."""
    fams = solve_generic(f)
    reps = [fam.representative for fam in fams]
    assert all(fam.residual <= 1e-10 for fam in fams)
    got = [0] * len(counts)
    for rep in reps:
        got[canonical_form(rep).Q.degree or 0] += 1
    assert got == counts
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not _same_family(reps[i], reps[j])


def test_solve_generic_is_complete_on_distinct_roots():
    # generic f with distinct roots: C(d, k) - C(d, k - 1) families with
    # deg Q = k, C(d, d // 2) in all
    rng = np.random.default_rng(11)
    for d in range(2, 7):
        for _ in range(4):
            roots = rng.normal(size=d) + 1j * rng.normal(size=d)
            lead = 10.0 ** rng.uniform(-3, 3) * np.exp(2j * np.pi * rng.uniform())
            counts = [math.comb(d, k) - math.comb(d, k - 1) if k else 1
                      for k in range(d // 2 + 1)]
            _check_complete(poly.from_roots(roots, leading=lead), counts)


@pytest.mark.parametrize("scale", [100.0, 1e-2])
@pytest.mark.parametrize("seed", range(4))
def test_solve_generic_is_complete_at_any_root_scale(seed, scale):
    # the coprimality test of each candidate pair sees the same coefficients
    # whatever the scale of z
    rng = np.random.default_rng(seed)
    roots = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert len(solve_generic(poly.from_roots(scale * roots))) == math.comb(4, 2)


def test_solve_generic_is_complete_at_degree_ten():
    # C(10, 5) = 252 families, C(10, k) - C(10, k - 1) of them at each k
    rng = np.random.default_rng(0)
    f = poly.from_roots(rng.normal(size=10) + 1j * rng.normal(size=10))
    got = [0] * 6
    for fam in solve_generic(f):
        got[fam.parameters["k"]] += 1
    assert got == [1, 9, 35, 75, 90, 42]


@pytest.mark.parametrize("f, counts", [
    (poly.from_roots([1.0, 1.0, -1.0, 2.0]), [1, 2, 1]),
    (poly.from_roots([1.0, 1.0, -1j, -1j]), [1, 1, 1]),
    (poly.from_roots([0.5, 0.5, 0.5, 2.0, -1.0]), [1, 2, 1]),
    (ComplexPolynomial([1.0, 0, 0, 0, 0, 1.0]), [1, 4, 5]),     # z^5 + 1
    (ComplexPolynomial([1.0, 0, 0, 1.0]), [1, 1]),              # z^3 + 1
], ids=["(z-1)^2(z+1)(z-2)", "(z-1)^2(z+i)^2", "(z-1/2)^3(z-2)(z+1)",
        "z^5+1", "z^3+1"])
def test_solve_generic_is_complete_on_repeated_roots(f, counts):
    # counts: the multiplicity of V_{d-2k} in the tensor product of the
    # spins V_{m_j}; z^3 + 1 has a double Bethe root at k = 1, so its two
    # singular vectors give one family
    _check_complete(f, counts)


def test_solve_generic_is_deterministic():
    def coefficient_bytes(fams):
        return [(fam.representative.P.coeffs.tobytes(),
                 fam.representative.Q.coeffs.tobytes()) for fam in fams]

    f = poly.from_roots([0.3 + 1j, -1.2, 0.7 - 0.4j, 2.0, -0.5j])
    assert coefficient_bytes(solve_generic(f)) == coefficient_bytes(solve_generic(f))


def test_bethe_coefficients_of_z_squared_plus_one():
    # the one k = 1 family of z^2 + 1 is (z^2 - 1, z), and f y'' - f' y' + R y
    # annihilates y = z for R = 2z / z = 2
    (R,) = bethe_coefficients(ComplexPolynomial([1.0, 0.0, 1.0]), 1)
    assert R.close_to(ComplexPolynomial([2.0]), rtol=1e-12)


# -- ODE kernel ------------------------------------------------------------


def test_ode_kernel_contains_known_pair():
    # f = z^2 + 1 with R = 2: both P = z^3/3 + z-type and the split pair
    # solve f y'' - f' y' + R y = 0 for a suitable R; use the split pair's
    # R = -2a from the second-order relation
    f = ComplexPolynomial([1.0, 0.0, 1.0])
    for Rc in (2.0, -2.0):
        basis = ode_kernel(f, ComplexPolynomial([Rc]), 3)
        if len(basis) >= 2:
            break
    assert len(basis) >= 2


def test_ode_kernel_bounds_degree():
    f = ComplexPolynomial([1.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        ode_kernel(f, ComplexPolynomial([1.0]), 5)


def test_ode_kernel_degrees_at_degree_ten():
    # the kernel of a k = 3 family of a deg-10 f is spanned by P (deg 8) and
    # Q (deg 3); elimination leaves ~1e-12 in Q above degree 3, which must
    # not become a pivot
    rng = np.random.default_rng(0)
    f = poly.from_roots(rng.normal(size=10) + 1j * rng.normal(size=10))
    for R in bethe_coefficients(f, 3):
        assert [b.degree for b in ode_kernel(f, R, 11)] == [8, 3]


def _ode_matrix_by_columns(f, R, max_deg):
    """Reference: column k is the image of z^k under ComplexPolynomial algebra."""
    fd = poly.derivative(f)
    rows = max_deg + max(f.degree, R.degree if not R.is_zero else 0) + 1
    A = np.zeros((rows, max_deg + 1), dtype=complex)
    for k in range(max_deg + 1):
        y = ComplexPolynomial([0.0] * k + [1.0])
        img = f * poly.derivative(poly.derivative(y)) - fd * poly.derivative(y) + R * y
        A[: img.coeffs.size, k] = img.coeffs
    return A


def _seeded_f_and_r():
    """Seeded f of degree 3..6 with R coefficient vectors of length
    deg f - 1: full degree, a zero top coefficient, and R = 0."""
    rng = np.random.default_rng(7)
    for df in range(3, 7):
        for _ in range(4):
            f = ComplexPolynomial(rng.normal(size=df + 1) + 1j * rng.normal(size=df + 1))
            r = rng.normal(size=df - 1) + 1j * rng.normal(size=df - 1)
            short = r.copy()
            short[-1] = 0.0
            for rr in (r, short, np.zeros(df - 1, dtype=complex)):
                yield f, rr


def _bits(A):
    return A.shape, A.tobytes()


def test_ode_operator_matrix_matches_column_build():
    for f, r in _seeded_f_and_r():
        R = ComplexPolynomial(r)
        for max_deg in (f.degree - 1, f.degree + 1):
            got = ode_operator_matrix(f, R, max_deg)
            assert _bits(got) == _bits(_ode_matrix_by_columns(f, R, max_deg))


def test_solve_builds_ode_matrix_once_per_candidate(monkeypatch):
    """One build per candidate R, in ode_kernel: C(d, d // 2) - 1 of them
    for f with distinct roots."""
    calls = []
    real = wronskian_pairs.ode_operator_matrix

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wronskian_pairs, "ode_operator_matrix", counted)
    f = poly.from_roots([1.0, -1.0, 2j, 0.5 - 1j])
    solve_generic(f)
    assert len(calls) == math.comb(4, 2) - 1
    Rs = [R for (_, R, _) in calls]
    assert all(not Rs[i].close_to(Rs[j]) for i in range(len(Rs))
               for j in range(i + 1, len(Rs)))


def test_solve_validates_each_candidate_once(monkeypatch):
    """One coprimality test per candidate R, in its WronskianPair, and one
    for the primitive family: deduplication compares the ODE kernel's
    echelon rows and builds no second pair."""
    calls = []
    real = wronskian_pairs.coprime

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(wronskian_pairs, "coprime", counted)
    solve_generic(poly.from_roots([1.0, -1.0, 2j, 0.5 - 1j]))
    assert len(calls) == math.comb(4, 2)


# -- canonical form --------------------------------------------------------


def test_canonical_form_idempotent():
    pair = WronskianPair([1.0, 0.0, 1.0], [2.0, 1.0])
    c1 = canonical_form(pair)
    c2 = canonical_form(c1)
    assert (c1.P - c2.P).norm() <= 1e-12
    assert (c1.Q.monic() - c2.Q.monic()).norm() <= 1e-12


def test_canonical_form_monic_and_degree_sorted():
    pair = WronskianPair([0.0, 3.0j], [1.0, 0.0, 2.0])
    c = canonical_form(pair)
    assert abs(c.P.leading - 1.0) <= 1e-12
    assert (c.Q.degree or 0) < c.P.degree


def test_same_family_under_sl2():
    rng = np.random.default_rng(7)
    pair = WronskianPair([1.0, 0.0, 0.0, 1.0], [1.0, 2.0])
    for _ in range(10):
        assert _same_family(pair, pair.transformed(_sl2(rng)))


def test_same_family_under_sl2_with_equal_top_degrees():
    # the primitive family of z^3 + 1; a generic SL(2) image has deg P =
    # deg Q = 4 while the span still holds the constant Q, so canonical_form
    # must clear the rotated Q's rounding residue below the top degree too
    rng = np.random.default_rng(0)
    base = WronskianPair([0.0, 1.0, 0.0, 0.0, 0.25], [1.0])
    for _ in range(40):
        image = base.transformed(_sl2(rng))
        assert image.P.degree == image.Q.degree == 4
        assert _same_family(base, image)


def test_different_families_distinguished():
    fams = solve_generic(ComplexPolynomial([1.0, 0.0, 1.0]))
    assert not _same_family(fams[0].representative, fams[1].representative)


def test_family_check_measures_residual():
    # W(z^2, 1) = 2z; residual against f = 2z is 0, against f = z is 1
    fam = SolutionFamily(kind="Primitive", parameters={"k": 0},
                         representative=WronskianPair([0, 0, 1.0], [1.0]), residual=0.0)
    assert fam.check(ComplexPolynomial([0.0, 2.0])) <= 1e-15
    assert fam.check(ComplexPolynomial([0.0, 1.0])) > 0.5
