"""Seeded random ensembles: coprime pairs with grid-resolved features, Haar
SU(2) mixing matrices, and smooth rapidly-decaying test fields."""

from __future__ import annotations

import numpy as np

from . import poly
from .poly import ComplexPolynomial, PairTransform
from .grid import Grid, GridField
from .wronskian_pairs import WronskianPair


def haar_su2(rng: np.random.Generator) -> PairTransform:
    """Haar-random SU(2) matrix (normalized random quaternion)."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    a = q[0] + 1j * q[1]
    b = q[2] + 1j * q[3]
    return PairTransform(np.array([[a, b], [-np.conj(b), np.conj(a)]]))


def _separated_roots(rng: np.random.Generator, count: int) -> list[complex]:
    """Uniform roots in the disk |z| <= 1.8 with pairwise separation >= 1.3."""
    roots: list[complex] = []
    for _ in range(10_000):
        z = 1.8 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - w) >= 1.3 for w in roots):
            roots.append(complex(z))
            if len(roots) == count:
                return roots
    raise RuntimeError("could not place separated roots")


def random_pair(rng: np.random.Generator, max_degree: int = 4) -> WronskianPair:
    """Random coprime pair whose density features are resolved on desk grids.

    Draws a monic polynomial with well-separated roots, partners it with a
    constant whose magnitude 2 max_root |P'(root)| keeps every log-spike of
    psi wider than the grid spacing, then mixes with a Haar-random SU(2)
    matrix (which leaves psi and |u| invariant but exercises the full pair
    algebra).
    """
    d = int(rng.integers(1, max_degree + 1))
    roots = _separated_roots(rng, d)
    P0 = poly.from_roots(roots)
    dP0 = poly.derivative(P0)
    scale = max(abs(poly.evaluate(dP0, r)) for r in roots) if d > 1 else 1.0
    c = 2.0 * max(scale, 1.0) * np.exp(2j * np.pi * rng.uniform())
    Q0 = ComplexPolynomial([c])
    P, Q = poly.act(haar_su2(rng), (P0, Q0))
    return WronskianPair(P, Q)


def random_smooth_field(grid: Grid, rng: np.random.Generator,
                        min_width: float = 1.0) -> GridField:
    """Random smooth complex field: a sum of 4 complex Gaussian bumps with
    gentle phase ramps, supported well inside the grid. Each bump's centre
    c is uniform in the square [-L/4, L/4]^2, its width w uniform in
    [min_width, 2.5], its amplitude a and ramp k complex normal.

    A bump a exp(-|z - c|^2 / 2w^2 + i (Re k Re(z - c) + Im k Im(z - c)))
    is the outer product ex[:, None] * ey of two axis vectors,
    ex = a exp(-dx^2 / 2w^2 + i Re k dx) and ey = exp(-dy^2 / 2w^2 + i Im k dy)
    with dx = x - Re c and dy = y - Im c: 2M complex exps per bump, not M^2.
    The values are those of the bump sampled on the whole mesh to rounding."""
    x = grid.axis
    u = np.zeros((grid.M, grid.M), dtype=complex)
    for _ in range(4):
        center = grid.L / 4.0 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        width = rng.uniform(min_width, 2.5)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        k = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
        dx, dy = x - center.real, x - center.imag
        ex = amp * np.exp(-dx**2 / (2.0 * width**2) + 1j * k.real * dx)
        ey = np.exp(-dy**2 / (2.0 * width**2) + 1j * k.imag * dy)
        u += ex[:, None] * ey
    return GridField._own(grid, u)


def normalized(field: GridField) -> GridField:
    """Scale to unit mass."""
    from .grid import quadrature

    m = quadrature(field, 2)
    if m <= 0:
        raise ValueError("cannot normalize the zero field")
    return GridField._own(field.grid, field.values / np.sqrt(m))
