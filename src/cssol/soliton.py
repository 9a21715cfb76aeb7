"""Closed-form objects built from coprime Wronskian pairs.

psi_{P,Q} = log 8 - 2 log(|P|^2 + |Q|^2) solves -Delta psi = |f|^2 e^psi with
f = W(P,Q); u_{P,Q} = sqrt(2/(pi beta)) conj(W)/(|P|^2+|Q|^2) is the explicit
magnetic-energy minimizer at flux beta = 2 max(deg P, deg Q).
"""

from __future__ import annotations

import numpy as np

from . import poly
from .poly import ComplexPolynomial, PairTransform, coefficient_rows, evaluate
from .wronskian_pairs import WronskianPair
from .grid import Grid, GridField

# (L, M) of the grid on which Soliton.psi0 is matched: wide enough that the
# truncated density tail shifts the constant by well under 1e-3
PSI0_GRID = (60.0, 1024)


def _sum_sq(pair: WronskianPair, z):
    """|P(z)|^2 + |Q(z)|^2"""
    return np.abs(evaluate(pair.P, z)) ** 2 + np.abs(evaluate(pair.Q, z)) ** 2


class LiouvilleSolution:
    """psi_{P,Q} for a validated coprime pair; f = W(P,Q)."""

    def __init__(self, pair: WronskianPair):
        self.pair = pair
        self.f = pair.W

    def psi(self, z):
        return np.log(8.0) - 2.0 * np.log(_sum_sq(self.pair, z))

    def rhs(self, z):
        """|f|^2 e^psi = 8 |W|^2 / (|P|^2+|Q|^2)^2."""
        S = _sum_sq(self.pair, z)
        return 8.0 * np.abs(evaluate(self.f, z)) ** 2 / S**2


class Soliton:
    """u_{P,Q} at flux beta = 2 max(deg P, deg Q)."""

    def __init__(self, pair: WronskianPair):
        self.pair = pair
        self.beta = 2.0 * pair.max_degree
        self.norm_const = float(np.sqrt(2.0 / (np.pi * self.beta)))
        self._psi0 = None

    def u(self, z):
        S = _sum_sq(self.pair, z)
        W = evaluate(self.pair.W, z)
        return self.norm_const * np.conj(W) / S

    def density(self, z):
        return np.abs(self.u(z)) ** 2

    def sample(self, grid: Grid) -> GridField:
        return grid.sample(self.u)

    # -- superpotential closed form ---------------------------------------

    def _log_s(self, z):
        return np.log(_sum_sq(self.pair, z))

    def psi0(self) -> float:
        """Additive constant of the closed-form superpotential, pinned by
        matching the grid-based Phi[|u|^2] at z = 0 on PSI0_GRID."""
        if self._psi0 is None:
            from .kernels import superpotential

            g = Grid(*PSI0_GRID)
            phi = superpotential(self.sample(g).map(lambda v: np.abs(v) ** 2))
            center = g.M // 2  # grid has even M; average the 4 center nodes
            idx = [center - 1, center]
            phi_at_0 = 0.0
            s_at_0 = 0.0
            for i in idx:
                for j in idx:
                    zij = g.axis[i] + 1j * g.axis[j]
                    phi_at_0 += phi.values[i, j]
                    s_at_0 += self._log_s(zij)
            self._psi0 = float(phi_at_0 - s_at_0 / self.beta) / 4.0
        return self._psi0

    def superpotential_closed(self, z):
        return self._log_s(z) / self.beta + self.psi0()


class VortexSpec:
    """Parameters of a vortex ring: P = a(z-z0)^n + c, Q = b."""

    def __init__(self, n: int, a: complex = 1.0, b: float = 1.0, c: complex = 0.0,
                 z0: complex = 0.0):
        if n < 1:
            raise ValueError("vortex degree n must be >= 1")
        if abs(a) == 0:
            raise ValueError("leading coefficient a must be nonzero")
        if not (np.isreal(b) and b > 0):
            raise ValueError("b must be a positive real")
        self.n = int(n)
        self.a = complex(a)
        self.b = float(b)
        self.c = complex(c)
        self.z0 = complex(z0)


def vortex_ring(spec: VortexSpec) -> Soliton:
    """Soliton u_n = sqrt(n/pi) b conj(a(z-z0)^{n-1}) n / (...): the
    single-vortex family at flux beta = 2n."""
    P = poly.from_roots([spec.z0] * spec.n, leading=spec.a) + spec.c
    Q = ComplexPolynomial([spec.b])
    return Soliton(WronskianPair(P, Q))


def radial_ring(n: int, C: complex = 1.0) -> Soliton:
    """Radial ring u_n = conj(C) sqrt(n/pi) zbar^{n-1} / (|z|^{2n} + |C|^2).

    Realized as the pair (z^n, C) up to phase. Its superpotential constant
    psi0 reduces to a 1-D radial integral of the radial density.
    """
    P = poly.from_roots([0.0] * n)
    Q = ComplexPolynomial([complex(C)])
    return Soliton(WronskianPair(P, Q))


def zeros_and_vorticity(s: Soliton):
    """Roots of W(P,Q) with multiplicities; total lies in [beta/2-1, beta-2]."""
    W = s.pair.W
    if W.degree == 0:
        return []
    return poly.roots(W)


def total_vorticity(s: Soliton) -> int:
    return sum(m for _, m in zeros_and_vorticity(s))


# -- symmetry orbit --------------------------------------------------------


def same_orbit(p1: WronskianPair, p2: WronskianPair, tol: float = 1e-8):
    """Whether u_{p1} == u_{p2}, i.e. p2 = Lambda p1 with Lambda in R+ x SU(2).

    Lambda is the least-squares solution of Lambda [P1; Q1] = [P2; Q2] on the
    zero-padded coefficient rows, unique because P1 and Q1 are independent.
    The orbits agree when its residual is at most tol times the norm of
    [P2; Q2] and Lambda is a positive multiple of an SU(2) matrix.
    Returns (bool, witness): the witness Lambda maps p1 to p2 when true.
    """
    n = 1 + max(p1.max_degree, p2.max_degree)
    M1, M2 = (coefficient_rows((p.P, p.Q), n) for p in (p1, p2))
    lam = PairTransform(np.linalg.lstsq(M1.T, M2.T, rcond=None)[0].T)
    if (np.linalg.norm(lam.entries @ M1 - M2) <= tol * np.linalg.norm(M2)
            and lam.is_positive_scaled_su2(tol)):
        return True, lam
    return False, None
