"""Properties of the planned FFT kernel operators on fields that do not vanish
at the edge of the box: linearity, the discrete adjoint identities, agreement
with the direct-table reference below, the closed-form near-zone tables
against quadrature and their exact parities, and the byte-bounded LRU
spectrum cache. The cached spectra are real (N/2+1)^2 quarters: each equals
the real or imaginary part of the rfft2 of its zero-centred N-periodic
table, the A entry is one such array, and the operators match the previous
layout (full complex spectra of the (2M-1)^2 tables) to rounding. The
process's FFT workspace gives results bit-equal to the scipy.fft formula of
the quarter layout, is never aliased by a returned field, and is kept
between calls only up to _WORK_BYTES."""

import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from scipy.integrate import dblquad, quad
from scipy.signal import convolve2d, fftconvolve

from cssol import kernels
from cssol.grid import Grid, GridField, deriv
from cssol.kernels import a_star, superpotential, vector_potential

SETTINGS = settings(max_examples=25, deadline=None)


def log_convolution(f: GridField) -> GridField:
    """int log|x-y| f(y) dy of a signed real field, without superpotential's
    -log(|y|+1) renormalization: the kernel's log-table convolution itself."""
    return GridField(f.grid, kernels._log_conv(f.grid, kernels._real(f, "field"))[0])


def _smooth(g: Grid, rng, positive: bool) -> np.ndarray:
    """A few low box modes plus an offset: smooth, nonzero on the ring."""
    X, Y = g.mesh()
    v = np.full((g.M, g.M), rng.uniform(-1.0, 1.0))
    for _ in range(4):
        kx, ky = rng.integers(0, 4, size=2)
        v += rng.normal() * np.cos(np.pi * (kx * X + ky * Y) / g.L + rng.uniform(0, 2 * np.pi))
    if positive:
        v = v - v.min() + rng.uniform(0.1, 1.0)
    return v


@st.composite
def grids(draw, max_m=64):
    M = draw(st.sampled_from([m for m in (16, 24, 32, 48, 64) if m <= max_m]))
    L = draw(st.floats(2.0, 12.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return Grid(L, M), np.random.default_rng(seed)


def _rel(a, b, mask=None):
    d = np.abs(a - b) if mask is None else np.abs(a - b)[mask]
    return float(np.max(d) / max(np.max(np.abs(b)), 1e-300))


# -- reference: direct (2M-1)^2 tables, fftconvolve at 3M-2, and the
#    first-moment corrections as separate 5x5 convolutions of the 4th-order
#    derivatives (one-sided on the boundary ring). The near-zone cell
#    integrals come from adaptive quadrature, independent of the closed forms
#    in the program --------------------------------------------------------

_INTEGRANDS = {
    "log": lambda x, y, i, j: 0.5 * np.log(x * x + y * y),
    "inv": lambda x, y, i, j: x / (x * x + y * y),
    "p": lambda x, y, i, j: (x - i) * x / (x * x + y * y),
    "q": lambda x, y, i, j: x * (y - j) / (x * x + y * y),
    "xlog": lambda x, y, i, j: (x - i) * 0.5 * np.log(x * x + y * y),
}


@lru_cache(maxsize=None)
def _cell(name: str, i: int, j: int) -> float:
    """integral of the named integrand over the unit cell centred at
    (i, j) >= 0: log|v|, v1/|v|^2, and the moments (v1 - i) v1/|v|^2,
    v1 (v2 - j)/|v|^2 and (v1 - i) log|v|."""
    if name == "log" and i == j == 0:
        # singular cell in polar coordinates: 8 * int_0^{pi/4} int_0^{sec/2}
        # r log r dr dtheta, inner integral in closed form
        def octant(theta):
            R = 0.5 / np.cos(theta)
            return 0.5 * R * R * (np.log(R) - 0.5)

        return 8.0 * quad(octant, 0.0, np.pi / 4.0, epsabs=1e-14, epsrel=1e-14)[0]
    if name == "p" and i == j == 0:
        return 0.5  # int v1^2/|v|^2 over the cell = 1/2 by v1 <-> v2 symmetry
    if (name in ("inv", "xlog") and i == 0) or (name == "q" and i * j == 0):
        return 0.0  # integrand odd about the cell centre
    f = _INTEGRANDS[name]
    val, _ = dblquad(lambda y, x: f(x, y, i, j), i - 0.5, i + 0.5, j - 0.5, j + 0.5,
                     epsabs=1e-13, epsrel=1e-13)
    return val


def _ref_tables(g: Grid):
    M, h, c = g.M, g.h, g.M - 1
    d = np.arange(-(M - 1), M, dtype=float)
    DX, DY = np.meshgrid(d, d, indexing="ij")
    R2 = DX * DX + DY * DY
    with np.errstate(divide="ignore", invalid="ignore"):
        T, K1, K2 = 0.5 * np.log(R2), -DY / R2, DX / R2
    for i in range(-2, 3):
        for j in range(-2, 3):
            T[c + i, c + j] = _cell("log", abs(i), abs(j))
            K1[c + i, c + j] = -np.sign(j) * _cell("inv", abs(j), abs(i))
            K2[c + i, c + j] = np.sign(i) * _cell("inv", abs(i), abs(j))
    return T + np.log(h), K1 / h, K2 / h


def _ref_moments():
    LX, LY, CX1, CY1, CX2, CY2 = (np.zeros((5, 5)) for _ in range(6))
    for i in range(-2, 3):
        for j in range(-2, 3):
            a, b, sij = 2 + i, 2 + j, np.sign(i) * np.sign(j)
            LX[a, b] = np.sign(i) * _cell("xlog", abs(i), abs(j))
            LY[a, b] = np.sign(j) * _cell("xlog", abs(j), abs(i))
            CX2[a, b] = _cell("p", abs(i), abs(j))
            CY2[a, b] = sij * _cell("q", abs(i), abs(j))
            CX1[a, b] = -sij * _cell("q", abs(j), abs(i))
            CY1[a, b] = -_cell("p", abs(j), abs(i))
    return (LX, LY), (CX1, CY1), (CX2, CY2)


def _near_inputs(monkeypatch):
    """_near_tables() with the 5x5 moment tables it passes to _fold:
    ((log cells, log fold, K2 cells, K2 fold), [(LX, LY), (CX2, CY2)])."""
    seen = []
    fold = kernels._fold

    def recording(CX, CY):
        seen.append((CX, CY))
        return fold(CX, CY)

    monkeypatch.setattr(kernels, "_fold", recording)
    return kernels._near_tables(), seen


def _ref_conv(table, values, moments, g):
    f = GridField(g, values)
    CX, CY = moments
    corr = (convolve2d(deriv(f, 0).values, CX, mode="same")
            + convolve2d(deriv(f, 1).values, CY, mode="same"))
    return fftconvolve(table, values, mode="valid") * g.h**2 - g.h**2 * corr


# -- properties ---------------------------------------------------------------


@SETTINGS
@given(grids(), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_linearity(grid_rng, a, b):
    g, rng = grid_rng
    r1, r2 = _smooth(g, rng, True), _smooth(g, rng, True)
    f1, f2 = _smooth(g, rng, False), _smooth(g, rng, False)
    A = vector_potential(GridField(g, a * r1 + b * r2))
    A_1, A_2 = vector_potential(GridField(g, r1)), vector_potential(GridField(g, r2))
    for k in range(2):
        want = a * A_1[k].values + b * A_2[k].values
        assert np.max(np.abs(A[k].values - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)
    got = a_star(GridField(g, a * f1 + b * r1), GridField(g, a * f2 + b * r2)).values
    want = (a * a_star(GridField(g, f1), GridField(g, f2)).values
            + b * a_star(GridField(g, r1), GridField(g, r2)).values)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)
    got = log_convolution(GridField(g, a * f1 - b * f2)).values
    want = (a * log_convolution(GridField(g, f1)).values
            - b * log_convolution(GridField(g, f2)).values)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)


@SETTINGS
@given(grids())
def test_discrete_adjoint(grid_rng):
    """<A[rho], F> = -<rho, A*[F]> and <Log f, g> = <f, Log g> to rounding:
    the folded A table is odd and the folded log table even."""
    g, rng = grid_rng
    rho = _smooth(g, rng, True)
    F1, F2 = _smooth(g, rng, False), _smooth(g, rng, False)
    A1, A2 = vector_potential(GridField(g, rho))
    lhs = A1.values * F1 + A2.values * F2
    rhs = rho * a_star(GridField(g, F1), GridField(g, F2)).values
    assert abs(lhs.sum() + rhs.sum()) <= 1e-12 * np.abs(lhs).sum()
    f, q = _smooth(g, rng, False), _smooth(g, rng, False)
    left = log_convolution(GridField(g, f)).values * q
    right = f * log_convolution(GridField(g, q)).values
    assert abs(left.sum() - right.sum()) <= 1e-12 * np.abs(left).sum()


@SETTINGS
@given(grids())
def test_plan_matches_reference_away_from_edge(grid_rng):
    """The folded tables reproduce the separate moment corrections exactly
    where the reference's derivatives are interior (>= 6 cells in); on the
    ring the reference uses one-sided derivatives and differs."""
    g, rng = grid_rng
    T, K1, K2 = _ref_tables(g)
    LM, C1, C2 = _ref_moments()
    inner = np.zeros((g.M, g.M), dtype=bool)
    inner[6:-6, 6:-6] = True
    rho = _smooth(g, rng, True)
    F1, F2 = _smooth(g, rng, False), _smooth(g, rng, False)

    A1, A2 = vector_potential(GridField(g, rho))
    assert _rel(A1.values, _ref_conv(K1, rho, C1, g), inner) <= 1e-12
    assert _rel(A2.values, _ref_conv(K2, rho, C2, g), inner) <= 1e-12
    got = a_star(GridField(g, F1), GridField(g, F2)).values
    want = _ref_conv(K1, F1, C1, g) + _ref_conv(K2, F2, C2, g)
    assert _rel(got, want, inner) <= 1e-12
    got = log_convolution(GridField(g, F1)).values
    assert _rel(got, _ref_conv(T, F1, LM, g), inner) <= 1e-12
    X, Y = g.mesh()
    norm = np.sum(np.log(np.hypot(X, Y) + 1.0) * rho) * g.h**2
    got = superpotential(GridField(g, rho)).values
    assert _rel(got, _ref_conv(T, rho, LM, g) - norm, inner) <= 1e-12


def test_near_tables_match_quadrature_reference(monkeypatch):
    """Every closed-form cell integral and moment, and both folds, agree with
    the adaptive-quadrature reference to 1e-14."""
    (log_cells, log_fold, K2_cells, K2_fold), seen = _near_inputs(monkeypatch)
    g = Grid(7.5, 16)  # h = 1: the tables' 5x5 centres are the unit cells
    w = slice(g.M - 3, g.M + 2)
    T, _, K2 = _ref_tables(g)
    LM, _, C2 = _ref_moments()
    pairs = [(log_cells, T[w, w]), (K2_cells, K2[w, w]), (log_fold, kernels._fold(*LM)),
             (K2_fold, kernels._fold(*C2))]
    pairs += list(zip(seen[0] + seen[1], LM + C2))
    for got, want in pairs:
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14


def test_near_tables_exact_parities(monkeypatch):
    """The 5x5 inputs are exactly even or odd in each axis: the log cells
    even-even, the K2 cells odd-even (0 on the centre column), the log moment
    odd in its axis, the p moment even-even and the q moment odd-odd."""
    (log_cells, _, K2_cells, _), seen = _near_inputs(monkeypatch)
    (LX, LY), (P, Q) = seen

    def parity(T, s0, s1):
        return (np.array_equal(T, s0 * T[::-1, :])
                and np.array_equal(T, s1 * T[:, ::-1]))

    assert parity(log_cells, 1, 1)
    assert parity(K2_cells, -1, 1) and K2_cells[2, 2] == 0.0
    assert parity(LX, -1, 1) and np.array_equal(LY, LX.T)
    assert parity(P, 1, 1)
    assert parity(Q, -1, -1)


def test_a_spectra_shared_across_box_sizes():
    """The A spectra are keyed by M alone: A scales exactly as h."""
    M = 32
    ga, gb = Grid(3.0, M), Grid(7.5, M)
    rho = _smooth(ga, np.random.default_rng(5), True)
    Aa = vector_potential(GridField(ga, rho))
    Ab = vector_potential(GridField(gb, rho))
    for k in range(2):
        want = Aa[k].values * (gb.h / ga.h)
        assert np.max(np.abs(Ab[k].values - want)) <= 1e-13 * np.max(np.abs(want))


def test_spectrum_cache_builds_once_and_stays_bounded():
    item = np.zeros(1000)  # 8000 bytes
    builds = []

    def build(key):
        def make():
            builds.append(key)
            return (item.copy(),)
        return make

    # room for all: every key built once on repeated gets, the same arrays
    # returned, and the byte count exact
    cache = kernels._SpectrumCache(10**6)
    first = [cache.get(k, build(k)) for k in range(4)]
    for _ in range(50):
        assert all(cache.get(k, build(k)) is first[k] for k in range(4))
    assert builds == list(range(4))
    assert cache.nbytes == 4 * item.nbytes

    # room for two: past max_bytes the least recently used entry goes
    builds.clear()
    cache = kernels._SpectrumCache(2 * item.nbytes)
    for k in (0, 1, 0, 2):  # the get of 0 makes 1 the oldest
        cache.get(k, build(k))
    assert list(cache._items) == [0, 2]
    assert cache.nbytes == 2 * item.nbytes
    cache.get(1, build(1))
    assert builds == [0, 1, 2, 1]
    assert list(cache._items) == [2, 1]

    # room for none: the newest entry is still kept, alone
    cache = kernels._SpectrumCache(item.nbytes // 2)
    for k in range(3):
        cache.get(k, build(k))
        assert list(cache._items) == [k]
        assert cache.nbytes == item.nbytes


# -- the spectrum layout and the workspace ------------------------------------


def _previous_tables(g: Grid):
    """The tables of the previous layout: the full (2M-1)^2 offset tables,
    offset d at index d + M-1, of log (plus log h) and of the unit-spacing K1
    and K2, each with its 5x5 cell averages and 9x9 fold at the centre."""
    M, h = g.M, g.h
    log_cells, log_fold, K2_cells, K2_fold = kernels._near_tables()

    def table(far, cells, fold):
        d = np.arange(-(M - 1), M, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            T = far(d[:, None], d[:, None] ** 2 + d[None, :] ** 2)
        c, r, q = M - 1, 2, fold.shape[0] // 2
        T[c - r : c + r + 1, c - r : c + r + 1] = cells
        T[c - q : c + q + 1, c - q : c + q + 1] -= fold
        return T

    K2 = table(lambda d1, r2: d1 / r2, K2_cells, K2_fold)
    T = table(lambda d1, r2: 0.5 * np.log(r2), log_cells, log_fold / h)
    return T + np.log(h), -K2.T, K2


def _previous_operators(g: Grid):
    """The four operators of the previous layout by the scipy.fft formula:
    rfft2 zero-padded to N x N, product with the complex spectrum of the
    (2M-1)^2 table, ifft over the columns, the M window rows M-1..2M-2,
    irfft over the rows, the M window columns."""
    M, h = g.M, g.h
    N = scipy.fft.next_fast_len(2 * M - 1, real=True)
    w = slice(M - 1, 2 * M - 1)

    def fwd(v):
        return scipy.fft.rfft2(v, s=(N, N))

    def inv(spec):
        return scipy.fft.irfft(scipy.fft.ifft(spec, axis=0)[w], n=N, axis=1)[:, w]

    T, K1, K2 = _previous_tables(g)
    S1, S2, SL = fwd(K1), fwd(K2), fwd(T)
    X, Y = g.mesh()
    weight = np.log(np.hypot(X, Y) + 1.0)

    def vp(v):
        s = fwd(v)
        return inv(s * S1) * h, inv(s * S2) * h

    def ast(v1, v2):
        return inv(fwd(v1) * S1 + fwd(v2) * S2) * h

    def logc(v):
        return inv(fwd(v) * SL) * h**2

    def phi(v):
        return logc(v) - float(np.sum(weight * v) * h**2)

    return vp, ast, logc, phi


def _full_spectrum(plan, spectrum) -> np.ndarray:
    """The real N x (N/2+1) spectrum a (quarter, top sign, mirror sign)
    triple stands for: rows 0..N/2 from the quarter, row N-k from its row k."""
    Q, top, mirror = spectrum
    return np.concatenate([top * Q, mirror * Q[plan.N - Q.shape[0] : 0 : -1]])


def _quarter_operators(g: Grid):
    """The four operators by the scipy.fft formula of the real-quarter
    layout: rfft2 zero-padded to N x N, product with the real spectrum
    assembled from the cached quarter, unnormalized ifft over the columns,
    rows 0..M-1 times scale / N^2 (the A spectra are -i times real, so the
    A scale is -i h), unnormalized irfft over the rows, columns 0..M-1."""
    M, h = g.M, g.h
    plan = kernels.KernelPlan(g)
    N = plan.N

    def fwd(v):
        return scipy.fft.rfft2(v, s=(N, N))

    def inv(spec, scale):
        rows = scipy.fft.ifft(spec, axis=0, norm="forward")[:M] * (scale / N**2)
        return scipy.fft.irfft(rows, n=N, axis=1, norm="forward")[:, :M]

    S1, S2 = (_full_spectrum(plan, s) for s in plan.a_spectra())
    log_quarter, weight = plan.log_spectrum()
    SL = _full_spectrum(plan, log_quarter)

    def vp(v):
        s = fwd(v)
        return inv(s * S1, -1j * h), inv(s * S2, -1j * h)

    def ast(v1, v2):
        return inv(fwd(v1) * S1 + fwd(v2) * S2, -1j * h)

    def logc(v):
        return inv(fwd(v) * SL, h**2)

    def phi(v):
        return logc(v) - float(np.vdot(weight, v) * h**2)

    return vp, ast, logc, phi


def _operator_inputs(g: Grid):
    rng = np.random.default_rng(g.M)
    rho = _smooth(g, rng, True)
    return rho, _smooth(g, rng, False), _smooth(g, rng, False)


# M = 256 (N = 512) runs in three column blocks of 128, 128 and 1 columns
@pytest.mark.parametrize("L,M", [(4.0, 32), (6.0, 50), (12.0, 128), (16.0, 384),
                                 (8.0, 256)])
def test_operators_equal_scipy_fft_formula(L, M):
    g = Grid(L, M)
    rho, F1, F2 = _operator_inputs(g)
    vp, ast, logc, phi = _quarter_operators(g)
    A1, A2 = vector_potential(GridField(g, rho))
    R1, R2 = vp(rho)
    assert np.array_equal(A1.values, R1) and np.array_equal(A2.values, R2)
    assert np.array_equal(a_star(GridField(g, F1), GridField(g, F2)).values, ast(F1, F2))
    assert np.array_equal(log_convolution(GridField(g, F1)).values, logc(F1))
    assert np.array_equal(superpotential(GridField(g, rho)).values, phi(rho))


# M = 62 gives an odd period, N = 125, with no Nyquist row
@pytest.mark.parametrize("L,M", [(4.0, 32), (6.0, 50), (12.0, 128), (16.0, 384),
                                 (8.0, 256), (6.0, 62)])
def test_operators_match_the_previous_layout(L, M):
    """The real-quarter layout changes the operators by rounding only."""
    g = Grid(L, M)
    rho, F1, F2 = _operator_inputs(g)
    vp, ast, logc, phi = _previous_operators(g)
    A1, A2 = vector_potential(GridField(g, rho))
    R1, R2 = vp(rho)
    assert _rel(A1.values, R1) <= 1e-14 and _rel(A2.values, R2) <= 1e-14
    assert _rel(a_star(GridField(g, F1), GridField(g, F2)).values, ast(F1, F2)) <= 1e-14
    assert _rel(log_convolution(GridField(g, F1)).values, logc(F1)) <= 1e-14
    assert _rel(superpotential(GridField(g, rho)).values, phi(rho)) <= 1e-14


@pytest.mark.parametrize("M", [16, 50, 62, 128])
def test_quarters_are_the_circulant_table_spectra(M):
    """Each cached quarter is the real (log) or imaginary (K2) part of the
    rfft2 of the N-periodic table with offset d at d mod N, the K1 quarter
    minus its transpose; the part dropped is zero to rounding, and the
    assembled spectra are the whole rfft2."""
    g = Grid(6.0, M)
    plan = kernels.KernelPlan(g)
    N, w = plan.N, plan.N // 2 + 1
    idx = np.arange(-(M - 1), M) % N

    def circulant_spectrum(T):
        C = np.zeros((N, N))
        C[np.ix_(idx, idx)] = T
        return np.fft.rfft2(C)

    T, K1, K2 = (circulant_spectrum(t) for t in _previous_tables(g))
    log_spec, _ = plan.log_spectrum()
    K1_spec, K2_spec = plan.a_spectra()
    QL, Q = log_spec[0], K2_spec[0]
    assert Q.shape == QL.shape == (w, w) and Q.dtype == QL.dtype == np.float64
    for quarter, S, part, other in ((QL, T, "real", "imag"), (Q, K2, "imag", "real"),
                                    (-K1_spec[0], K1, "imag", "real")):
        scale = np.max(np.abs(S))
        assert np.max(np.abs(quarter - getattr(S, part)[:w])) <= 1e-13 * scale
        assert np.max(np.abs(getattr(S, other))) <= 1e-13 * scale
    for spec, phase, S in ((log_spec, 1.0, T), (K1_spec, -1j, K1), (K2_spec, -1j, K2)):
        full = phase * _full_spectrum(plan, spec)
        assert np.max(np.abs(full - S)) <= 1e-13 * np.max(np.abs(S))


def test_spectra_are_real_quarters_at_m1024():
    """After one A and one Phi on Grid(40, 1024) the A entry is one float64
    array of 1025^2 (8 MiB), and the log entry one such array and the M x M
    weight."""
    g = Grid(40.0, 1024)
    rho = GridField(g, _smooth(g, np.random.default_rng(1), True))
    vector_potential(rho)
    superpotential(rho)
    (Q,) = kernels._SPECTRA._items[("inv", g.M)]
    QL, weight = kernels._SPECTRA._items[("log", g.M, g.h)]
    assert Q.shape == QL.shape == (1025, 1025)
    assert Q.dtype == QL.dtype == weight.dtype == np.float64
    assert Q.nbytes == 8 * 1025**2 and weight.shape == (1024, 1024)


def _calls(g: Grid, seed: int):
    """The three operators on fixed smooth inputs on g, as value arrays."""
    rng = np.random.default_rng(seed)
    rho = GridField(g, _smooth(g, rng, True))
    F1, F2 = GridField(g, _smooth(g, rng, False)), GridField(g, _smooth(g, rng, False))
    return (lambda: tuple(a.values for a in vector_potential(rho)),
            lambda: a_star(F1, F2).values,
            lambda: superpotential(rho).values)


def test_returned_fields_do_not_alias_the_workspace():
    g, other = Grid(6.0, 48), Grid(12.0, 128)
    first = [np.array(c()) for c in _calls(g, 1)]
    kept = [c() for c in _calls(g, 1)]
    for calls in (_calls(g, 2), _calls(other, 3)):
        for c in calls:
            c()
        for want, got in zip(first, kept):
            assert np.array_equal(got, want)
    buffers = kernels.KernelPlan(g).workspace()
    for got in kept:
        for b in buffers:
            assert not np.shares_memory(got, b)


def test_workspace_is_bounded_at_m1024():
    """Only the row buffers are M x (N/2+1); the column and row blocks are
    about 1 MiB each, so the M = 1024 workspace is under 40 MiB."""
    buffers = kernels.KernelPlan(Grid(40.0, 1024)).workspace()
    assert sum(b.nbytes for b in buffers) <= 40 * 2**20


def test_large_grids_keep_no_workspace(traced_peak):
    """Repeated calls at M = 1024 repeat their outputs bit for bit and leave
    nothing allocated behind them, so the process keeps no workspace above
    _WORK_BYTES; M = 512 keeps its workspace between calls, M = 1024 makes
    one per call."""
    g = Grid(40.0, 1024)
    plan, calls = kernels.KernelPlan(g), _calls(g, 4)
    plan.a_spectra(), plan.log_spectrum()  # the tables stay cached

    def run():
        start = tracemalloc.get_traced_memory()[0]
        first = [np.array(c()) for c in calls]
        for _ in range(2):
            assert all(np.array_equal(c(), want) for c, want in zip(calls, first))
        del first
        return tracemalloc.get_traced_memory()[0] - start

    left, _ = traced_peak(run)
    assert left <= 2**16
    kept = kernels._WORK[1] if kernels._WORK else ()
    assert sum(b.nbytes for b in kept) <= kernels._WORK_BYTES
    mid, large = kernels.KernelPlan(Grid(20.0, 512)), kernels.KernelPlan(Grid(40.0, 1024))
    assert mid.workspace() is mid.workspace()
    assert large.workspace() is not large.workspace()


@pytest.mark.parametrize("L, M", [(8.0, 64), (12.0, 130)])
def test_log_weight_is_the_mesh_form(L, M):
    """The log(|y|+1) weight, built from broadcast axes, has the bits of
    np.log(np.hypot(X, Y) + 1) on the full mesh."""
    g = Grid(L, M)
    X, Y = g.mesh()
    _, weight = kernels.KernelPlan(g).log_spectrum()
    assert np.array_equal(weight, np.log(np.hypot(X, Y) + 1.0))


def test_fast_len_matches_scipy_rule_for_real_transforms():
    assert all(kernels._fast_len(n) == scipy.fft.next_fast_len(n, real=True)
               for n in range(1, 5001))
