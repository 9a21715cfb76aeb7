"""Energy quantities and identity residuals for self-generated-field densities.
MagneticState(u, beta, order) holds rho = |u|^2, builds on first use A[rho]
and D = (grad + i beta A) u, and forms the A* term, source();
stationarity(state, gamma) applies the Euler-Lagrange operator shared by the
EL residual and the descent gradient. On these sit the magnetic energy and
its decomposition (no Phi), the weighted-square (factorized) form of E_beta
-+ 2 pi beta int |u|^4 (the one reader of Phi), the stationarity residual,
the Menger-Melnikov curvature, the Liouville residual and a battery of
inequalities."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import (
    _axis_deriv,
    Grid,
    GridField,
    gradient,
    laplacian,
    quadrature,
    trapezoid,
)
from .kernels import a_star, superpotential, vector_potential
from .soliton import LiouvilleSolution
from .wronskian_pairs import WronskianPair

HARDY_CONSTANT = 1.5


class MagneticState:
    """One field u at flux beta: rho = |u|^2 and, built on first use, A[rho]
    and D = (grad + i beta A) u as owned arrays, and two sums of |D|^2
    (d_sum, energy) as cached floats. covariant(v) is the one place that
    forms (grad + i beta A) v: D is covariant(u).

    source() drops D and A without writing them; a dropped field is built
    again on its next read, with the same bits, so the cached sums stay
    valid. At beta = 0, D is grad u and A is not built. Neither grad u nor
    the current J = Im(conj(u) grad u) is held: terms() reads |grad u|^2 and
    A.J off D, and source() reads the A* source 2 beta^2 A rho + 2 beta J as
    the covariant current 2 beta Im(conj(u) D).

    The pointwise products (i beta A u, |D|^2, A.D) are made one row block
    at a time (_by_rows), straight into the arrays they end in; the
    integrands of energy and terms() only inside grid.trapezoid's row blocks.

    A is built before grad u: at M = 256 that order builds A, grad u and D
    about 9% faster than the reverse, A alone 3-5% (measured
    single-threaded on a 2-core x86 VM)."""

    def __init__(self, u: GridField, beta: float, order: int = 4):
        self.beta = float(beta)
        if not np.isfinite(self.beta):
            raise ValueError("beta must be finite")
        self.u = u
        self.order = order
        self.rho = np.abs(u.values)
        self.rho **= 2

    @cached_property
    def A(self):
        return tuple(a.values for a in vector_potential(GridField._own(self.u.grid, self.rho)))

    @cached_property
    def D(self):
        """covariant(u), checked finite as gradient() checks its arrays"""
        D = self.covariant(self.u.values)
        if not all(np.all(np.isfinite(d)) for d in D):
            raise ValueError("non-finite field values")
        return D

    def covariant(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(grad + i beta A) v with the state's stencil order and A, i beta A v
        added onto grad v's arrays (complex ones for real v); at beta = 0 it
        is grad v, and A is not built. A is read before the stencil runs."""
        A = self.A if self.beta != 0.0 else None
        g = self.u.grid
        grad = tuple(_axis_deriv(v, axis, 1, self.order, g.h) for axis in (0, 1))
        if A is None:
            return grad
        return tuple(_covariant(g, d, a, v, self.beta) for d, a in zip(grad, A))

    @cached_property
    def d_sum(self) -> float:
        """np.sum of the whole |D|^2 array, the descent's plain sum; the array is not kept"""
        return np.sum(_by_rows(self.u.grid, lambda o, x, y: np.copyto(o, _sq_sum(x, y)), *self.D))

    @cached_property
    def energy(self) -> float:
        """int |D|^2, E_beta[u]; at beta = 0, int |grad u|^2 and no A"""
        return trapezoid(self.u.grid, _sq_sum, *self.D)

    def terms(self):
        """Trapezoid integrals of |grad u|^2, A.J and |A|^2 rho: E_beta is
        their sum with weights 1, 2 beta, beta^2. They are read off the
        integrals of |D|^2, A.Im(conj(u) D) and |A|^2 rho by the pointwise
        identities

            |grad u|^2 = |D|^2 - 2 beta A.Im(conj(u) D) + beta^2 |A|^2 rho,
            A.J = A.Im(conj(u) D) - beta |A|^2 rho,

        so at beta = 0 they have the bits of the direct formulas; elsewhere
        |grad u|^2 loses about eps beta^2 int |A|^2 rho / int |grad u|^2 of
        its relative accuracy. No integrand is kept; int |D|^2 is energy."""
        (A1, A2), (D1, D2), u, g = self.A, self.D, self.u.values, self.u.grid
        ad = trapezoid(g, lambda a1, a2, v, d1, d2: a1 * _current(v, d1, 1.0)
                       + a2 * _current(v, d2, 1.0), A1, A2, u, D1, D2)
        mm = trapezoid(g, lambda a1, a2, r: _sq_sum(a1, a2) * r, A1, A2, self.rho)
        beta = self.beta
        return self.energy - 2.0 * beta * ad + beta**2 * mm, ad - beta * mm, mm

    def source(self) -> np.ndarray | None:
        """Astar[2 beta Im(conj(u) D)], or None at beta = 0, where no kernel
        runs. D and A are dropped: A before the current is formed by row
        blocks, D before A* runs (D and A are built first if dropped)."""
        D = self.D if self.beta != 0.0 else None
        for name in ("D", "A"):
            vars(self).pop(name, None)
        if D is None:
            return None
        g, u, beta = self.u.grid, self.u.values, self.beta
        F = [GridField._own(g, _by_rows(g, lambda o, v, d: _current(v, d, 2.0 * beta, o), u, d))
             for d in D]
        del D
        return a_star(*F).values


def _by_rows(grid: Grid, fn, *arrays: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """fn(o, *blocks) on each row block (Grid.row_blocks) of the arrays: fn, a
    pointwise map, writes into o, those rows of out (new and real by default),
    the bits it would give on the whole arrays, with one block's temporaries"""
    out = np.empty((grid.M, grid.M)) if out is None else out
    for a, b in grid.row_blocks():
        fn(out[a:b], *(x[a:b] for x in arrays))
    return out


def _covariant(grid: Grid, g: np.ndarray, a: np.ndarray, u: np.ndarray, beta: float) -> np.ndarray:
    """g + i beta a u, into g unless g is real; i beta a u is made one row block at a time"""
    def block(o, g, a, u):
        d = np.multiply(1j * beta, a)
        d *= u
        np.add(g, d, out=o)
    out = g if np.iscomplexobj(g) else np.empty(g.shape, complex)
    return _by_rows(grid, block, g, a, u, out=out)


def _current(u: np.ndarray, d: np.ndarray, scale: float, out=None) -> np.ndarray:
    """scale Im(conj(u) d), into out if given"""
    p = np.conjugate(u, dtype=d.dtype)
    p *= d
    return np.multiply(scale, p.imag, out=out)


def _sq_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a|^2 + |b|^2 by np.abs, whose bits fix every descent's gamma_hat"""
    return np.abs(a) ** 2 + np.abs(b) ** 2


def stationarity(state: MagneticState, gamma: float) -> np.ndarray:
    """The Euler-Lagrange operator of E_beta - gamma int |u|^4 applied to u,

        -(grad + i beta A)^2 u - (state.source() + 2 gamma rho) u,

    with D = (grad + i beta A) u; at beta = 0 no kernel runs. The covariant
    Laplacian sum_j (d_j + i beta A_j) D_j, operands in the order written, is
    summed into d_1 D_1's array, d_2 D_2 (row-local) and i beta A.D by row
    blocks. D is not written; source() drops A and D once the Laplacian is
    made."""
    g, order, beta, u = state.u.grid, state.order, state.beta, state.u.values
    (D1, D2), A = state.D, (state.A if beta != 0.0 else None)
    covlap = _axis_deriv(D1, 0, 1, order, g.h)
    _by_rows(g, lambda o, d: np.add(o, _axis_deriv(d, 1, 1, order, g.h), out=o), D2, out=covlap)
    GridField._own(g, covlap.view())  # checks d1 D1 + d2 D2 finite; covlap stays writable
    if A is not None:
        _by_rows(g, lambda o, a1, d1, a2, d2: np.add(o, 1j * beta * (a1 * d1 + a2 * d2), out=o),
                 A[0], D1, A[1], D2, out=covlap)
    del D1, D2, A  # held by the state alone, which source() frees
    s = state.source()
    # 2 gamma rho is made after Astar, so it is not live at Astar's peak
    potential = np.multiply(2.0 * gamma, state.rho)
    if s is not None:
        potential = np.add(s, potential, out=potential)
    out = np.negative(covlap, out=covlap)
    out -= np.multiply(potential, u)
    return out


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
    bogomolnyi_gap: float
    quotient: float


def magnetic_energy(u: GridField, beta: float, order: int = 4) -> EnergyReport:
    """E_beta[u] with its kinetic / cross / curvature decomposition.

    total is the quadrature of |D|^2, D = (grad + i beta A) u, made once
    (MagneticState.energy); the three decomposition terms are read off D
    (MagneticState.terms) and sum to it identically (pointwise algebra), so
    the decomposition invariant holds to rounding. At beta = 0 no A is
    built. No Phi is built: the weighted-square form is susy_rhs.
    """
    mass = quadrature(u, 2)
    if mass <= 0:
        raise ValueError("zero field has no energy quotient")
    quartic = quadrature(u, 4)  # read before the state's fields are live
    st = MagneticState(u, beta, order)
    # at beta = 0 the A terms have weight 0: A is not built for them
    total = st.energy
    kinetic, aj, mm = st.terms() if beta != 0.0 else (total, 0.0, 0.0)
    cross = 2.0 * beta * aj
    curvature = beta**2 * mm
    gap = total - 2.0 * np.pi * beta * quartic
    quotient = (kinetic + cross / mass + curvature / mass**2) * mass / quartic
    return EnergyReport(
        beta=float(beta),
        kinetic=float(kinetic),
        cross=float(cross),
        curvature=float(curvature),
        quartic=float(quartic),
        mass=float(mass),
        total_E_beta=float(total),
        bogomolnyi_gap=float(gap),
        quotient=float(quotient),
    )


def susy_rhs(u: GridField, beta: float, sign: int, order: int = 4) -> float:
    """Weighted-square form of E_beta[u] +- 2 pi beta int |u|^4:

        int |(d1 +- i d2)(e^{-+ beta Phi} u)|^2 e^{+- 2 beta Phi},

    with Phi = Phi[|u|^2], built here and at beta != 0 only. The additive
    normalization of Phi cancels exactly between the two weights.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    g, beta = u.grid, float(beta)
    if not np.isfinite(beta):
        raise ValueError("beta must be finite")
    # at beta = 0 both weights are exactly 1: Phi is not built
    phi = (superpotential(GridField._own(g, np.abs(u.values) ** 2)).values if beta
           else np.broadcast_to(0.0, u.values.shape))
    # max |2 beta Phi| with no temporary: doubling is exact, rounding monotone
    if 2.0 * abs(beta) * max(np.max(phi), -np.min(phi)) > 700.0:
        raise OverflowError("superpotential weight exponent exceeds 700")
    # the weights, e^{-+ beta Phi} u, d2 of it (row-local) and the integrand are
    # made one row block at a time; a non-finite d1 or d2 fails the trapezoid's check
    f = _by_rows(g, lambda o, p, v: np.multiply(np.exp(-sign * (beta * p)), v, out=o),
                 phi, u.values, out=np.empty_like(u.values))
    d1 = _axis_deriv(f, 0, 1, order, g.h)
    return trapezoid(g, lambda p, d1, f: np.abs(d1 + sign * 1j * _axis_deriv(f, 1, 1, order, g.h))
                     ** 2 * np.exp(2.0 * sign * (beta * p)), phi, d1, f)


def el_residual(u: GridField, beta: float, gamma: float):
    """Interior L2 residual of the stationarity equation

        [-(grad + i beta A)^2 - 2 beta^2 Astar[A rho] - 2 beta Astar[J]
         - 2 gamma rho] u = lambda u,

    with lambda = int [-|grad u|^2 + beta^2 |A|^2 rho], the two integrals
    read off D (MagneticState.terms; at beta = 0, int |D|^2 and no A), at
    stencil order 4 over the nodes at least 6 from the edge: the two
    derivative passes each add the order-4 stencil's 2-node boundary ring,
    plus 2 nodes of margin. Returns (residual_L2, lambda). Requires unit
    mass.
    """
    mass = quadrature(u, 2)
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"field must have unit mass (got {mass:.8f})")
    st = MagneticState(u, beta)
    kinetic, _, mm = st.terms() if beta != 0.0 else (st.energy, 0.0, 0.0)
    lam = -kinetic + beta**2 * mm
    res = stationarity(st, gamma)
    res -= lam * u.values
    sq = np.abs(res[6:-6, 6:-6])
    sq **= 2
    res_l2 = float(np.sqrt(np.sum(sq) * u.grid.h**2))
    return res_l2, lam


def menger_melnikov(rho: GridField) -> float:
    """int |A[rho]|^2 rho: equal to the triple integral of the inverse
    squared circumradius against rho x rho x rho / 6."""
    A1, A2 = vector_potential(rho)
    return trapezoid(rho.grid, lambda a1, a2, r: _sq_sum(a1, a2) * r.real,
                     A1.values, A2.values, rho.values)


def liouville_residual(pair: WronskianPair, grid: Grid) -> float:
    """Interior max of |-Delta_h psi - |f|^2 e^psi| / (1 + |f|^2 e^psi), with
    the order-8 Laplacian, off its 4-node boundary ring."""
    psi, rhs = LiouvilleSolution(pair).sample(grid)
    lap = laplacian(psi, 8).values
    resid = np.abs(-lap - rhs.values) / (1.0 + rhs.values)
    return float(np.max(resid[4:-4, 4:-4]))


@dataclass(frozen=True)
class InequalityEntry:
    name: str
    small_side: float
    large_side: float
    margin_rel: float  # (large - small) / max(1e-300, |large|, |small|)


@dataclass(frozen=True)
class InequalityReport:
    entries: tuple[InequalityEntry, ...]

    def violations(self, tol: float = 1e-6) -> list[InequalityEntry]:
        return [e for e in self.entries if e.margin_rel < -tol]


def _entry(name: str, small: float, large: float) -> InequalityEntry:
    scale = max(1e-300, abs(small), abs(large))
    return InequalityEntry(name, float(small), float(large),
                           float((large - small) / scale))


def inequality_battery(u: GridField, beta: float) -> InequalityReport:
    """Two-sided evaluation of the standing inequalities, at stencil order 4.

    diamagnetic:      int |grad|u||^2          <= E_beta[u]
    hardy (C_H=3/2):  int |A[rho]|^2 rho       <= 1.5 mass^2 int |grad|u||^2
    gn4:              C_LGN int |u|^4          <= mass int |grad u|^2
    bogomolnyi:       2 pi beta int |u|^4      <= E_beta[u]          (beta>=0)
    mm_interpolation: pi int|u|^4 + |int A.J|  <= sqrt(kin) sqrt(MM)
    """
    from .variational import townes_profile

    mass = quadrature(u, 2)
    quartic = quadrature(u, 4)
    kinetic, aj, mm = MagneticState(u, beta).terms()
    a1, a2 = gradient(GridField._own(u.grid, np.abs(u.values)))
    grad_mod = trapezoid(u.grid, _sq_sum, a1.values, a2.values)
    cross = 2.0 * beta * aj
    curvature = beta**2 * mm
    total = kinetic + cross + curvature

    entries = [
        _entry("diamagnetic", grad_mod, total),
        _entry("hardy", mm, HARDY_CONSTANT * mass**2 * grad_mod),
        _entry("gn4", townes_profile().c_lgn * quartic, mass * kinetic),
        _entry("mm_interpolation",
               np.pi * quartic + abs(aj), np.sqrt(kinetic) * np.sqrt(mm)),
    ]
    if beta >= 0:
        entries.append(
            _entry("bogomolnyi", 2.0 * np.pi * beta * quartic, total))
    return InequalityReport(tuple(entries))
