"""Energy decomposition, the weighted-square factorization, stationarity
residuals, curvature integrals, and the inequality battery."""

import functools

import numpy as np
import pytest
from scipy.special import gamma as gamma_fn

from cssol import functionals, kernels
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
from cssol.grid import Grid, GridField, _axis_deriv, deriv, gradient, integrate, quadrature
from cssol.kernels import a_star, superpotential, vector_potential
from cssol.sampling import normalized, random_smooth_field
from cssol.soliton import radial_ring
from cssol.variational import _quotient_and_grad, vortex_ring_ratio
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


def test_magnetic_energy_integrates_d_sq_once(monkeypatch):
    """At beta != 0 the report's total and the kinetic term read one
    trapezoid of |D|^2, the state's cached energy."""
    integrands = []
    real = functionals.trapezoid

    def counted(grid, fn, *arrays):
        integrands.append(fn)
        return real(grid, fn, *arrays)

    monkeypatch.setattr(functionals, "trapezoid", counted)
    magnetic_energy(_field(4, Grid(8.0, 64)), 1.0)
    assert integrands.count(functionals._sq_sum) == 1


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
    assert susy_rhs(u, 2.0, -1) < 1e-3 * rep.total_E_beta


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


def test_el_residual_temporaries_are_bounded(traced_peak):
    """A warm el_residual on the n = 1 ring at M = 512, where the kernel
    workspace is kept, peaks at 4.75 complex M x M fields above what was
    live before it (plus small objects), measured 4.66: rho, A, D and the
    covariant Laplacian, while i beta A.D is added in one row block at a
    time."""
    g = Grid(40.0, 512)
    u = normalized(radial_ring(1).sample(g))
    want = el_residual(u, 2.0, 4.0 * np.pi)  # fills the tables and workspace
    got, peak = traced_peak(lambda: el_residual(u, 2.0, 4.0 * np.pi))
    assert got == want
    assert peak <= 4.75 * u.values.nbytes + 2**16


@functools.cache
def _ring_1024():
    return normalized(radial_ring(1).sample(Grid(40.0, 1024)))


# each check and its bound in complex M x M fields (16 MiB), a quarter field
# or less above the measured peak
_M1024_CHECKS = {
    "magnetic_energy": (lambda: magnetic_energy(_ring_1024(), 2.0), 4.25),  # 3.69
    "el_residual": (lambda: el_residual(_ring_1024(), 2.0, 4.0 * np.pi), 5.25),  # 5.19
    "vortex_ring_ratio": (lambda: vortex_ring_ratio(1, 1.0, Grid(24.0, 1024)), 5.25),  # 4.69
    "susy_rhs": (lambda: (susy_rhs(_ring_1024(), 2.0, 1), susy_rhs(_ring_1024(), 2.0, -1)),
                 3.44),  # 3.19
}


@pytest.mark.parametrize("name", list(_M1024_CHECKS))
def test_m1024_identity_checks_hold_seven_fields(name, traced_peak):
    """A warm identity check at M = 1024 allocates at most its bound in
    complex M x M fields above what was live before it, the kernel workspace
    it uses included (the name keeps the seven-field bound all three checks
    shared before the row-blocked products). No workspace is kept at this
    size, D is built on grad u's arrays, J is not held, the pointwise
    products are formed one row block at a time, and the state's source()
    drops A before its A* sources and D before its A*.
    magnetic_energy peaks with rho, A and D live, its integrands made
    one row block at a time;
    el_residual at A*, with rho, the covariant Laplacian, the two sources,
    the output and the workspace; vortex_ring_ratio samples its field first;
    susy_rhs holds Phi, e^{-+ beta Phi} u and its d1, with d2 and the
    integrand made one row block at a time. A kernel
    call on a small grid runs in between, as other grids do in a benchmark
    round."""
    check, fields = _M1024_CHECKS[name]
    want = repr(check())  # fills the tables
    small = Grid(8.0, 64)
    vector_potential(GridField(small, np.exp(-np.abs(small.zmesh()) ** 2)))
    got, peak = traced_peak(check)
    assert repr(got) == want
    assert peak <= fields * 2**24


def _sq_sum_hex(D1, D2):
    """float hex of np.sum of the whole-array |D1|^2 + |D2|^2"""
    return float(np.sum(np.abs(D1) ** 2 + np.abs(D2) ** 2)).hex()


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_released_grad_is_rebuilt_with_the_same_bits(beta):
    """The state holds no grad u, current, Phi or |D|^2 array: at beta = 0 D
    is grad u, and of |D|^2 it keeps two cached sums. stationarity uses up D
    and A but never writes D. A dropped field is built again on its next
    read, so a used state rebuilds D and A with the bits of a fresh one, and
    its terms(), sum of |D|^2 and stationarity too: the cached sums stay
    valid."""
    u = _field(3, Grid(8.0, 64))
    st = MagneticState(u, beta)
    terms, d_sum = st.terms(), st.d_sum
    D = st.D
    assert set(vars(st)) == {"u", "beta", "order", "rho", "A", "D", "d_sum", "energy"}
    assert d_sum.hex() == _sq_sum_hex(*D)
    if beta == 0.0:
        for got, want in zip(D, gradient(u)):
            assert np.array_equal(got, want.values)
    D_bits = [np.array(d) for d in D]
    want = stationarity(MagneticState(u, beta), 3.0)
    assert np.array_equal(stationarity(st, 3.0), want)
    assert set(vars(st)) == {"u", "beta", "order", "rho", "d_sum", "energy"}
    assert all(np.array_equal(d, b) for d, b in zip(D, D_bits))
    fresh = MagneticState(u, beta)
    for got, want_f in zip((*st.D, *st.A), (*fresh.D, *fresh.A)):
        assert np.array_equal(got, want_f)
    assert st.terms() == fresh.terms() == terms
    assert _sq_sum_hex(*st.D) == fresh.d_sum.hex() == d_sum.hex()
    assert np.array_equal(stationarity(st, 3.0), want)


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_covariant_forms_D_and_the_covariant_derivative_of_any_field(beta):
    """covariant(u) on a fresh state has the bits of D; covariant(e) on a
    random complex e has the bits of the order-4 stencil plus i beta A e,
    with the state's A. At beta = 0 neither builds A."""
    g = Grid(8.0, 64)
    u = _field(4, g)
    D = MagneticState(u, beta).D
    st = MagneticState(u, beta)
    for got, want in zip(st.covariant(u.values), D):
        assert np.array_equal(got, want)
    rng = np.random.default_rng(11)
    e = rng.standard_normal((g.M, g.M)) + 1j * rng.standard_normal((g.M, g.M))
    st = MagneticState(u, beta)
    for axis, got in enumerate(st.covariant(e)):
        want = _axis_deriv(e, axis, 1, 4, g.h)
        if beta != 0.0:
            want = np.add(want, np.multiply(1j * beta, st.A[axis]) * e)
        assert np.array_equal(got, want)
    assert ("A" in vars(st)) == (beta != 0.0)


@pytest.mark.parametrize("beta", [0.0, 0.5, 3.0, 20.0])
def test_decomposition_read_off_D_matches_the_direct_formulas(beta):
    """int |grad u|^2 and int A.J, which terms() reads off D, match the
    direct formulas with gradient(u) and J = Im(conj(u) grad u): to 1e-13
    relative at beta != 0, bit for bit at beta = 0, for a complex and a real
    field at unit mass (where J = 0, relative to beta int |A|^2 rho, the
    term A.J is read as a difference from). kinetic + cross + curvature is
    magnetic_energy's total_E_beta to 1e-14 relative. The kinetic term is a
    difference too: at beta = 20 it reads 3.5e-14 off on the Gaussian, where
    beta^2 int |A|^2 rho is 115 times it."""
    g = Grid(12.0, 128)
    X, Y = g.mesh()
    for u in (_field(8, g), normalized(GridField(g, np.exp(-(X**2 + Y**2) / 4.0)))):
        st = MagneticState(u, beta)
        kinetic, aj, mm = st.terms()
        grad = [d.values for d in gradient(u)]
        want_kinetic = float(integrate(GridField(g, sum(np.abs(d) ** 2 for d in grad))))
        J = [np.imag(np.conj(u.values) * d) for d in grad]
        want_aj = float(integrate(GridField(g, sum(a * j for a, j in zip(st.A, J)))))
        if beta == 0.0:
            assert (kinetic, aj) == (want_kinetic, want_aj)
        assert abs(kinetic - want_kinetic) <= 1e-13 * want_kinetic
        assert abs(aj - want_aj) <= 1e-13 * max(abs(want_aj), beta * mm)
        rep = magnetic_energy(u, beta)
        total = rep.kinetic + rep.cross + rep.curvature
        assert abs(total - rep.total_E_beta) <= 1e-14 * rep.total_E_beta


@pytest.mark.parametrize("beta", [0.7, 2.0])
def test_covariant_current_is_the_astar_source(beta):
    """2 beta Im(conj(u) D), the A* source that source() reads off D, equals
    2 beta^2 A rho + 2 beta J with J = Im(conj(u) grad u), to 1e-14 of its
    largest value, for a complex and a real field."""
    g = Grid(8.0, 64)
    X, Y = g.mesh()
    for u in (_field(6, g), GridField(g, np.exp(-(X**2 + Y**2) / 4.0))):
        st = MagneticState(u, beta)
        rho = np.abs(u.values) ** 2
        for a, du, d in zip(st.A, gradient(u), st.D):
            want = 2 * beta**2 * a * rho + 2 * beta * np.imag(np.conj(u.values) * du.values)
            got = functionals._current(u.values, d, 2.0 * beta)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("beta", [0.0, 1.0])
def test_source_is_astar_of_the_covariant_current(monkeypatch, beta):
    """source() equals a_star of 2 beta Im(conj(u) D_j), formed from a fresh
    state's D, bit for bit, reusing the A the state holds (one a_star call,
    no vector_potential), and leaves neither D nor A on the state, only its
    cached sums of |D|^2. At beta = 0 it is None and runs no kernel."""
    u = _field(5, Grid(8.0, 64))
    st = MagneticState(u, beta)
    st.terms()  # builds A and D
    D = MagneticState(u, beta).D
    assert st.d_sum.hex() == _sq_sum_hex(*D)
    F = [GridField(u.grid, 2.0 * beta * np.imag(np.conj(u.values) * d)) for d in D]
    calls = _count_kernel_calls(monkeypatch, "vector_potential", "a_star")
    got = st.source()
    assert set(vars(st)) == {"u", "beta", "order", "rho", "d_sum", "energy"}
    if beta == 0.0:
        assert got is None and calls == []
    else:
        assert calls == ["a_star"]
        assert np.array_equal(got, a_star(*F).values)


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
def test_non_finite_beta_is_rejected(beta):
    """magnetic_energy, susy_rhs, el_residual and inequality_battery refuse a
    non-finite beta with a message that names it, not the field."""
    u = _field(2, Grid(8.0, 64))
    for check in (lambda: magnetic_energy(u, beta), lambda: susy_rhs(u, beta, -1),
                  lambda: el_residual(u, beta, 3.0), lambda: inequality_battery(u, beta)):
        with pytest.raises(ValueError, match=r"^beta must be finite$"):
            check()


def _full_array_reference(u, beta, gamma):
    """terms(), |D|^2, stationarity and susy_rhs(+-1) at order 4 by the
    whole-array formulas that the row-blocked products replaced: each
    pointwise product over the whole M x M grid at once, and the terms read
    off the integrals of |D|^2, A.Im(conj(u) D) and |A|^2 rho."""
    g, v = u.grid, u.values
    rho = np.abs(v)
    rho **= 2

    def current(d, scale):
        p = np.conjugate(v, dtype=d.dtype)
        p *= d
        return np.multiply(scale, p.imag)

    def abs_sq_sum(a, b):
        out = np.abs(a)
        out **= 2
        sq = np.abs(b)
        sq **= 2
        out += sq
        return out

    grad = [np.array(d.values) for d in gradient(u)]
    A1, A2 = (a.values for a in vector_potential(GridField(g, rho)))
    D1, D2 = grad
    if beta != 0.0:
        D1, D2 = (np.add(d, np.multiply(1j * beta, a) * v) for d, a in zip(grad, (A1, A2)))
    ad = A1 * current(D1, 1.0)
    ad += A2 * current(D2, 1.0)
    mm = A1**2
    mm += A2**2
    mm *= rho
    dd, ad, mm = (float(integrate(GridField(g, f))) for f in (abs_sq_sum(D1, D2), ad, mm))
    terms = (dd - 2.0 * beta * ad + beta**2 * mm, ad - beta * mm, mm)
    covlap = deriv(GridField(g, D1), 0).values + deriv(GridField(g, D2), 1).values
    potential = np.multiply(2.0 * gamma, rho)
    if beta != 0.0:
        F = [GridField(g, current(d, 2.0 * beta)) for d in (D1, D2)]
        ad = A1 * D1
        ad += A2 * D2
        covlap = covlap + np.multiply(1j * beta, ad)
        potential = np.add(a_star(*F).values, potential)
    res = -covlap
    res -= np.multiply(potential, v)
    w = beta * superpotential(GridField(g, rho)).values if beta else 0.0
    susy = []
    for sign in (1, -1):
        f1, f2 = gradient(GridField(g, np.exp(-sign * w) * v))
        integrand = np.abs(f1.values + sign * 1j * f2.values) ** 2 * np.exp(2.0 * sign * w)
        susy.append(float(integrate(GridField(g, integrand))))
    return terms, abs_sq_sum(D1, D2), res, susy


@pytest.mark.parametrize("M", [384, 128])
@pytest.mark.parametrize("beta", [0.0, 0.7])
def test_row_blocked_products_keep_the_bits(M, beta):
    """terms(), sum |D|^2, stationarity and susy_rhs, whose pointwise products
    run one row block at a time, have the bits of the whole-array formulas,
    for a complex and a real field: on Grid(16, 384) the blocks are 42 rows
    and the last is 6, on Grid(12, 128) one block is the whole grid."""
    g = Grid(16.0 if M == 384 else 12.0, M)
    X, Y = g.mesh()
    for u in (_field(7, g), GridField(g, np.exp(-(X**2 + Y**2) / 4.0))):
        terms, d_sq, res, susy = _full_array_reference(u, beta, 3.0)
        st = MagneticState(u, beta)
        assert st.terms() == terms
        assert st.d_sum.hex() == float(np.sum(d_sq)).hex()
        assert np.array_equal(stationarity(st, 3.0), res)
        assert [susy_rhs(u, beta, sign) for sign in (1, -1)] == susy


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
    _, grad, _ = _quotient_and_grad(u, g, beta)
    slope = 2.0 * np.real(np.vdot(grad, v)) / np.sum(np.abs(u) ** 4)
    eps = 1e-5
    up = _quotient_and_grad(u + eps * v, g, beta)[0]
    down = _quotient_and_grad(u - eps * v, g, beta)[0]
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
    """magnetic_energy never builds Phi, nor caches a log spectrum; susy_rhs
    builds Phi once at beta != 0 and not at beta = 0, where the weights
    e^{-+ 2 beta Phi} are 1."""
    u = _field(2, Grid(8.0, 64))
    calls = _count_kernel_calls(monkeypatch, "superpotential")
    magnetic_energy(u, 0.0)
    magnetic_energy(u, 1.0)
    susy_rhs(u, 0.0, 1)
    susy_rhs(u, 0.0, -1)
    assert calls == []
    susy_rhs(u, 1.0, -1)
    assert calls == ["superpotential"]
    g = Grid(7.25, 48)  # a spacing no other test uses
    key = ("log", g.M, g.h)
    assert key not in kernels._SPECTRA._items
    magnetic_energy(_field(2, g), 1.0)
    assert key not in kernels._SPECTRA._items


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
        hardy = next(e for e in rep.entries if e.name == "hardy")
        assert hardy.small_side >= 0.0 and hardy.margin_rel >= 0.0


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
