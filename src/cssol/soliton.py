"""Closed-form objects built from coprime Wronskian pairs.

psi_{P,Q} = log 8 - 2 log(|P|^2 + |Q|^2) solves -Delta psi = |f|^2 e^psi with
f = W(P,Q); u_{P,Q} = sqrt(2/(pi beta)) conj(W)/(|P|^2+|Q|^2) is the explicit
magnetic-energy minimizer at flux beta = 2 max(deg P, deg Q).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from . import poly
from .poly import ComplexPolynomial, PairTransform, coefficient_rows, evaluate
from .wronskian_pairs import WronskianPair
from .grid import Grid, GridField, abs_sq


def _sum_sq(pair: WronskianPair, z):
    """|P(z)|^2 + |Q(z)|^2"""
    return abs_sq(evaluate(pair.P, z)) + abs_sq(evaluate(pair.Q, z))


def _grid_blocks(pair: WronskianPair, grid: Grid):
    """(a, b, S, Wr, Wi) on each block of rows a:b of grid (Grid.row_blocks):
    S = |P|^2 + |Q|^2 and Wr + i Wi = W there; Wr and Wi are views of a
    buffer that the next block overwrites.

    On the row x_i, p(x_i + iy) = sum_k i^k p^(k)(x_i)/k! y^k, so the real and
    imaginary parts of P, Q and W on a block are one real product of their
    Taylor table (poly.taylor_table, built once per call) with the
    Vandermonde matrix [y_j^k], k <= n, n the largest degree of P, Q and W
    (WronskianPair gives W at its exact degree). The sum can lose up to
    2^(n/2) ulps more than Horner's rule on the diagonal |x| = |y|."""
    polys = (pair.P, pair.Q, pair.W)
    n = max(p.degree for p in polys)
    T = poly.taylor_table(polys, grid.axis, n)
    V = np.vander(grid.axis, n + 1, increasing=True).T.copy()
    buf = None
    for a, b in grid.row_blocks():
        if buf is None:  # the first block is the largest
            buf = np.empty((6 * (b - a), grid.M))
        R = np.matmul(T[a:b].reshape(-1, n + 1), V, out=buf[: 6 * (b - a)])
        R = R.reshape(b - a, 6, grid.M)
        yield a, b, np.einsum("ikj,ikj->ij", R[:, :4], R[:, :4]), R[:, 4], R[:, 5]


class LiouvilleSolution:
    """psi_{P,Q} for a validated coprime pair; f = W(P,Q)."""

    def __init__(self, pair: WronskianPair):
        self.pair = pair

    def psi(self, z):
        return np.log(8.0) - 2.0 * np.log(_sum_sq(self.pair, z))

    def rhs(self, z):
        """|f|^2 e^psi = 8 |W|^2 / (|P|^2+|Q|^2)^2."""
        S = _sum_sq(self.pair, z)
        S *= S
        out = abs_sq(evaluate(self.pair.W, z))
        out *= 8.0
        out /= S
        return out

    def sample(self, grid: Grid) -> tuple[GridField, GridField]:
        """(psi, |f|^2 e^psi) on grid, both real, from one evaluation of P, Q
        and W per block of rows (_grid_blocks); they agree with psi and rhs
        at grid.zmesh() to rounding, not bit for bit."""
        psi, rhs = np.empty((grid.M, grid.M)), np.empty((grid.M, grid.M))
        for a, b, S, Wr, Wi in _grid_blocks(self.pair, grid):
            psi[a:b] = np.log(8.0) - 2.0 * np.log(S)
            rhs[a:b] = 8.0 * (Wr * Wr + Wi * Wi) / (S * S)
        return GridField._own(grid, psi), GridField._own(grid, rhs)


class Soliton:
    """u_{P,Q} at flux beta = 2 max(deg P, deg Q)."""

    def __init__(self, pair: WronskianPair):
        self.pair = pair
        self.beta = 2.0 * pair.max_degree
        self.norm_const = float(np.sqrt(2.0 / (np.pi * self.beta)))

    def u(self, z):
        S = _sum_sq(self.pair, z)
        W = evaluate(self.pair.W, z)
        return self.norm_const * np.conj(W) / S

    def sample(self, grid: Grid) -> GridField:
        """u on grid from one evaluation of P, Q and W per block of rows
        (_grid_blocks); it agrees with u(grid.zmesh()) to rounding, not bit
        for bit."""
        out = np.empty((grid.M, grid.M), dtype=complex)
        for a, b, S, Wr, Wi in _grid_blocks(self.pair, grid):
            scale = np.divide(self.norm_const, S, out=S)
            np.multiply(Wr, scale, out=out.real[a:b])
            np.multiply(Wi, -scale, out=out.imag[a:b])
        return GridField._own(grid, out)


@dataclass(frozen=True, eq=False)
class VortexSpec:
    """Parameters of a vortex ring: P = a(z-z0)^n + c, Q = b. Each value is
    converted first (int, complex or float, from a string too) and checked
    second; n must be an integer (operator.index, so a float fails; a string
    goes through int) and a, b, c and z0 finite."""

    n: int
    a: complex = 1.0
    b: float = 1.0
    c: complex = 0.0
    z0: complex = 0.0

    def __post_init__(self):
        if not (isinstance(self.b, str) or np.isreal(self.b)):
            raise ValueError("b must be a positive real")
        try:
            n = int(self.n) if isinstance(self.n, str) else operator.index(self.n)
        except TypeError:
            raise ValueError("vortex degree n must be an integer") from None
        object.__setattr__(self, "n", n)
        for name, kind in zip(("a", "b", "c", "z0"), (complex, float, complex, complex)):
            object.__setattr__(self, name, kind(getattr(self, name)))
        if self.n < 1:
            raise ValueError("vortex degree n must be >= 1")
        if self.a == 0:
            raise ValueError("leading coefficient a must be nonzero")
        if not self.b > 0:
            raise ValueError("b must be a positive real")
        if not np.all(np.isfinite((self.a, self.b, self.c, self.z0))):
            raise ValueError("vortex parameters must be finite")


def vortex_ring(spec: VortexSpec) -> Soliton:
    """Soliton u_n = sqrt(n/pi) b conj(a(z-z0)^{n-1}) n / (...): the
    single-vortex family at flux beta = 2n."""
    P = poly.from_roots([spec.z0] * spec.n, leading=spec.a) + spec.c
    Q = ComplexPolynomial([spec.b])
    return Soliton(WronskianPair(P, Q))


def radial_ring(n: int) -> Soliton:
    """Radial ring u_n = sqrt(n/pi) zbar^{n-1} / (|z|^{2n} + 1), realized as
    the pair (z^n, 1) up to phase."""
    return Soliton(WronskianPair(poly.from_roots([0.0] * n), poly.ONE))


# -- symmetry orbit --------------------------------------------------------


ORBIT_TOL = 1e-8  # same_orbit's relative residual and SU(2) defect bound


def same_orbit(p1: WronskianPair, p2: WronskianPair):
    """Whether u_{p1} == u_{p2}, i.e. p2 = Lambda p1 with Lambda in R+ x SU(2).

    Lambda is the least-squares solution of Lambda [P1; Q1] = [P2; Q2] on the
    zero-padded coefficient rows, unique because P1 and Q1 are independent.
    The orbits agree when its residual is at most ORBIT_TOL times the norm of
    [P2; Q2] and Lambda is a positive multiple of an SU(2) matrix within
    ORBIT_TOL.
    Returns (bool, witness): the witness Lambda maps p1 to p2 when true.
    """
    n = 1 + max(p1.max_degree, p2.max_degree)
    M1, M2 = (coefficient_rows((p.P, p.Q), n) for p in (p1, p2))
    lam = PairTransform(np.linalg.lstsq(M1.T, M2.T, rcond=None)[0].T)
    if (np.linalg.norm(lam.entries @ M1 - M2) <= ORBIT_TOL * np.linalg.norm(M2)
            and lam.is_positive_scaled_su2(ORBIT_TOL)):
        return True, lam
    return False, None
