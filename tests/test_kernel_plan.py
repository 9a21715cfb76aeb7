"""Properties of the planned FFT kernel operators on fields that do not vanish
at the edge of the box: linearity, the discrete adjoint identities, agreement
with the direct-table reference below, and the thread-safe spectrum cache."""

import sys
import threading
import time

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.signal import convolve2d, fftconvolve

from cssol import kernels
from cssol.grid import Grid, GridField, deriv
from cssol.kernels import a_star, log_convolution, superpotential, vector_potential

SETTINGS = settings(max_examples=25, deadline=None)


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
#    derivatives (one-sided on the boundary ring) --------------------------


def _ref_tables(g: Grid):
    M, h, c = g.M, g.h, g.M - 1
    d = np.arange(-(M - 1), M, dtype=float)
    DX, DY = np.meshgrid(d, d, indexing="ij")
    R2 = DX * DX + DY * DY
    with np.errstate(divide="ignore", invalid="ignore"):
        T, K1, K2 = 0.5 * np.log(R2), -DY / R2, DX / R2
    for i in range(-2, 3):
        for j in range(-2, 3):
            T[c + i, c + j] = kernels._unit_cell_log(abs(i), abs(j))
            K1[c + i, c + j] = -np.sign(j) * kernels._unit_cell_inv(abs(j), abs(i))
            K2[c + i, c + j] = np.sign(i) * kernels._unit_cell_inv(abs(i), abs(j))
    return T + np.log(h), K1 / h, K2 / h


def _ref_moments():
    LX, LY, CX1, CY1, CX2, CY2 = (np.zeros((5, 5)) for _ in range(6))
    for i in range(-2, 3):
        for j in range(-2, 3):
            a, b, sij = 2 + i, 2 + j, np.sign(i) * np.sign(j)
            LX[a, b] = np.sign(i) * kernels._unit_moment_log(abs(i), abs(j))
            LY[a, b] = np.sign(j) * kernels._unit_moment_log(abs(j), abs(i))
            CX2[a, b] = kernels._unit_moment_p(abs(i), abs(j))
            CY2[a, b] = sij * kernels._unit_moment_q(abs(i), abs(j))
            CX1[a, b] = -sij * kernels._unit_moment_q(abs(j), abs(i))
            CY1[a, b] = -kernels._unit_moment_p(abs(j), abs(i))
    return (LX, LY), (CX1, CY1), (CX2, CY2)


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


def test_spectrum_cache_threads_build_once_and_stay_bounded():
    item = np.zeros(1000)  # 8000 bytes
    builds = []

    def build(key):
        def make():
            builds.append(key)
            time.sleep(1e-4)  # invite a thread switch inside the build
            return (item.copy(),)
        return make

    def hammer(cache, keys, errors):
        try:
            for _ in range(50):
                for k in keys:
                    (v,) = cache.get(k, build(k))
                    if v.shape != item.shape:
                        errors.append(k)
        except Exception as exc:  # reported below, so the thread never dies silently
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for max_bytes, expect_builds in ((10**6, 4), (2 * item.nbytes, None)):
            builds.clear()
            cache = kernels._SpectrumCache(max_bytes)
            errors: list = []
            threads = [threading.Thread(target=hammer, args=(cache, range(4), errors))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert not errors
            if expect_builds is not None:
                # every key built once, and the byte count saw every insert
                assert sorted(builds) == list(range(4))
                assert cache.nbytes == 4 * item.nbytes
            else:
                assert cache.nbytes <= max_bytes
                assert len(builds) >= 4
    finally:
        sys.setswitchinterval(old)
