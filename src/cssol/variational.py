"""Variational estimation of the optimal self-magnetic interpolation constant
gamma*(beta): the cubic-NLS ground-state constant (Chebyshev collocation),
analytic bounds, projected gradient descent on the Rayleigh quotient,
structure scans, and the restricted confined-energy evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np
# numpy only: the Townes profile evaluates its Chebyshev series, and the start
# noise blur is a numpy port, bit-identical to scipy.ndimage.gaussian_filter

from .functionals import MagneticState, magnetic_energy, stationarity
from .grid import Grid, GridField, quadrature, trapezoid
from .soliton import Soliton, radial_ring
from .wronskian_pairs import WronskianPair


# -- Townes profile --------------------------------------------------------


TOWNES_R = 30.0  # collocation domain [0, TOWNES_R]: tau(30) ~ 1e-13
TOWNES_N = 120   # Chebyshev degree of the collocation solve
TOWNES_TOL = 1e-10  # Newton stops once its step is at most this
_NEWTON_STEPS = 20


@dataclass(frozen=True)
class TownesProfile:
    series: np.polynomial.Chebyshev  # the collocation solution on [0, TOWNES_R]
    c_lgn: float  # pi int tau^2 r dr, half the Townes critical mass

    def __call__(self, radii):
        """Evaluate tau at given radii: the series up to TOWNES_R, 0 beyond."""
        radii = np.asarray(radii, dtype=float)
        return np.where(radii <= TOWNES_R, self.series(np.clip(radii, 0, TOWNES_R)), 0.0)


def _chebyshev(n: int, length: float):
    """Chebyshev-Lobatto nodes r_j = length (1 + cos(pi j / n)) / 2 on
    [0, length] (r_0 = length, r_n = 0), the first-derivative matrix on them
    and their Clenshaw-Curtis weights."""
    theta = np.pi * np.arange(n + 1) / n
    x = np.cos(theta)
    ends = np.r_[1.0, np.full(n - 1, 2.0), 1.0]
    c = (3.0 - ends) * (-1.0) ** np.arange(n + 1)
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    k = np.arange(1, n // 2 + 1)
    b = np.where(2 * k == n, 1.0, 2.0) / (4.0 * k**2 - 1.0)
    w = ends / n * (1.0 - b @ np.cos(2.0 * np.outer(k, theta)))
    return 0.5 * length * (1.0 + x), (2.0 / length) * d, 0.5 * length * w


def townes_solve() -> TownesProfile:
    """Ground state of tau'' + tau'/r - tau + tau^3 = 0 by Chebyshev
    collocation on [0, TOWNES_R].

    The rows are tau(TOWNES_R) = 0 and, at r = 0, the regular limit
    2 tau'' - tau + tau^3 = 0. Petviashvili iterations from a Gaussian pick
    the positive solution; Newton finishes until its step is at most
    TOWNES_TOL (RuntimeError if it is not). The mass is the Clenshaw-Curtis
    sum; the tail beyond TOWNES_R holds about e^-60 of it.
    """
    n = TOWNES_N
    r, d1, w = _chebyshev(n, TOWNES_R)
    rows = np.r_[0.0, np.ones(n)]  # the equation rows, not the boundary row
    lin = d1 @ d1
    lin[1:n] += d1[1:n] / r[1:n, None]
    lin[n] *= 2.0  # tau'/r -> tau''(0)
    lin -= np.diag(rows)
    lin[0] = 1.0 - rows  # tau(TOWNES_R) = 0
    weight = w * r

    # Petviashvili: tau <- M^(3/2) (-lin)^-1 tau^3, M = <tau, -lin tau> / <tau, tau^3>
    tau = np.exp(-r**2)
    for _ in range(10):
        m = -(weight @ (tau * (lin @ tau))) / (weight @ tau**4)
        tau = m**1.5 * np.linalg.solve(-lin, rows * tau**3)
    for _ in range(_NEWTON_STEPS):
        step = np.linalg.solve(lin + np.diag(3.0 * rows * tau**2),
                               lin @ tau + rows * tau**3)
        tau -= step
        if np.max(np.abs(step)) <= TOWNES_TOL:
            break
    else:
        raise RuntimeError(f"Townes Newton step still above {TOWNES_TOL:.1e}")
    mass = 2.0 * np.pi * (weight @ tau**2)

    series = np.polynomial.Chebyshev.fit(r, tau, n, domain=[0.0, TOWNES_R])
    return TownesProfile(series, float(mass / 2.0))


@cache
def townes_profile() -> TownesProfile:
    return townes_solve()


# -- analytic bounds -------------------------------------------------------


def bounds(beta: float) -> tuple[float, float]:
    """Refined lower/upper bounds for gamma*(beta).

    lower = max{(c + sqrt(c^2 + 4 pi^2 beta^2))/2, 2 pi beta}; the first
    entry solves gamma = c + pi^2 beta^2 / gamma.
    upper = min{c (1 + 3/2 beta^2), 2 pi beta + (pi/2)(2-beta)_+^2}.
    c is the ground-state constant C_LGN = ||Q||^2 / 2 (townes_solve).
    """
    if not 0.0 <= beta < np.inf:  # nan fails this too
        raise ValueError("beta must be finite and >= 0")
    c = townes_profile().c_lgn
    lower = max(0.5 * (c + np.sqrt(c * c + 4.0 * np.pi**2 * beta**2)),
                2.0 * np.pi * beta)
    upper = min(c * (1.0 + 1.5 * beta**2),
                2.0 * np.pi * beta + 0.5 * np.pi * max(2.0 - beta, 0.0) ** 2)
    return float(lower), float(upper)


# -- descent estimator -----------------------------------------------------

ORDER = 4  # finite-difference order of the descent's quotient and gradient
START_NOISE = 0.05  # smoothed start perturbation, relative to max |start|
# The descent stops on `ascent` where the exact slope along -grad exceeds
# ASCENT_RTOL quot |grad|. Over 230 descents on 12,128 the slope's summands
# added up to 1.1-4.7 quot |grad| in magnitude, so numpy's pairwise sums err
# by at worst about log2(M^2) eps times that, 1.5e-14 quot |grad|. Summing them in
# another order, with A[rho1] from vector_potential on rho1's two signed
# parts, moved the slope by at most 1.3e-15 quot |grad|. The bound sits 8e4
# times above that rounding, and 1.8e7 times below the smallest slope at
# which those descents stopped (1.8e-3 quot |grad|).
ASCENT_RTOL = 1e-10
MAX_ITER = 20_000  # the descent stops on max_iter after this many iterations,
GRAD_TOL = 1e-4  # on grad_tol once |grad| falls below this, and on plateau
PLATEAU_TOL = 1e-5  # once the quotient fell by less than PLATEAU_TOL of
PLATEAU_WINDOW = 50  # itself over the last PLATEAU_WINDOW iterations


@dataclass(frozen=True)
class DescentConfig:
    grid: Grid = field(default_factory=lambda: Grid(12.0, 128))
    seed: int = 42


@dataclass(frozen=True)
class GammaEstimate:
    beta: float
    gamma_hat: float
    lower_bound: float
    upper_bound: float
    iterations: int
    final_gradient_norm: float
    stop_reason: str  # the winning start's: grad_tol, plateau, ascent, line_search or max_iter (_descend)
    minimizer: GridField
    ascent_slope: float | None = None  # F'(0) along -grad at an ascent stop, else None


def _norm_mass(values: np.ndarray, g: Grid) -> np.ndarray:
    m = np.sum(np.abs(values) ** 2) * g.h**2
    return values / np.sqrt(m)


def _quotient(values: np.ndarray, g: Grid, beta: float):
    """Quotient F = sum |D|^2 / sum rho^2 at unit mass, and the state it was
    read from. values is checked and frozen, not copied: every caller passes
    an array made for it."""
    st = MagneticState(GridField._own(g, values), beta, ORDER)
    quot = np.sum(st.d_sq) * g.h**2 / (np.sum(st.rho**2) * g.h**2)
    return float(quot), st


def _projected_grad(state: MagneticState, quot: float) -> np.ndarray:
    """Gradient of E_beta - quot int |u|^4 at state.u, mass-sphere normal projected out."""
    u, grad = state.u, stationarity(state, quot)
    return grad - np.real(np.sum(np.conj(u.values) * grad)) * u.grid.h**2 * u.values


def _quotient_and_grad(values: np.ndarray, g: Grid, beta: float):
    """The quotient at values, its projected gradient and their state."""
    quot, st = _quotient(values, g, beta)
    return quot, _projected_grad(st, quot), st


def _slope(state: MagneticState, d: np.ndarray) -> float:
    """Exact F'(0) of F(t) = _quotient(_norm_mass(u + t d)) at the unit-mass
    field u of state, in _quotient's plain sums:

        F'(0) = (2 Re sum conj(D).De - sum rho1 Astar[X] - 2 F sum rho rho1) / sum rho^2,

    where e is d less its mass-normal part (what _norm_mass removes to first
    order), De = state.covariant(e), rho1 = 2 Re(conj(u) e) and
    X = 2 beta Im(conj(u) D). The A[rho1] term of the energy's derivative,
    sum A[rho1].X, is read through the adjoint identity
    sum A[r].X = -sum r Astar[X], since A refuses the signed rho1. Astar[X]
    is state.source(), which drops the D and A built here on read again: one
    vector_potential and one a_star call, none at beta = 0."""
    u, g = state.u.values, state.u.grid
    r2 = np.sum(state.rho**2)
    quot = np.sum(state.d_sq) / r2
    del state.d_sq  # not live beside De
    e = d - np.real(np.vdot(u, d)) * g.h**2 * u
    num = 2.0 * sum(np.vdot(D, de).real for D, de in zip(state.D, state.covariant(e)))
    rho1 = np.multiply(u.real, e.real)
    rho1 += u.imag * e.imag
    rho1 *= 2.0
    del e
    source = state.source()
    if source is not None:
        num -= np.vdot(rho1, source)
    num -= 2.0 * quot * np.vdot(state.rho, rho1)
    return float(num / r2)


def _townes_start(g: Grid) -> np.ndarray:
    prof = townes_profile()
    return _norm_mass(g.sample(lambda z: prof(np.abs(z))).values.astype(complex), g)


def _ring_start(g: Grid, beta: float) -> np.ndarray:
    n = max(1, int(round(beta / 2.0)))
    return _norm_mass(radial_ring(n).sample(g).values, g)


def _blur(v: np.ndarray) -> np.ndarray:
    """Gaussian blur of a real 2-D array with sigma = 2 nodes, bit-identical
    to scipy.ndimage.gaussian_filter(v, 2): 4 sigma = 8 radius, half-sample
    symmetric edges, axis 0 then axis 1, and each output summed as
    x w_0 + sum_{j = radius..1} (x[i-j] + x[i+j]) w_j."""
    radius = 8
    x = np.arange(-radius, radius + 1)
    w = np.exp(-x**2 / 8.0)  # exp(-x^2 / (2 sigma^2))
    w = w / w.sum()
    for _ in range(2):  # along axis 0, then along axis 0 of the transpose
        n = v.shape[0]
        p = np.pad(v, ((radius, radius), (0, 0)), mode="symmetric")
        out = p[radius:radius + n] * w[radius]
        for j in range(radius, 0, -1):
            out += (p[radius - j:radius - j + n] + p[radius + j:radius + j + n]) * w[radius - j]
        v = out.T
    return v


def _descend(values: np.ndarray, g: Grid, beta: float):
    """Projected descent: (values, quotient, gradient norm, iterations,
    stop_reason, ascent_slope).

    Trials read only the quotient: each iteration halves the step along -grad
    up to 30 times until the quotient falls. When the first trial is
    rejected, the exact slope along -grad (_slope) is read: above its
    rounding bound ASCENT_RTOL quot |grad|, -grad ascends the discrete
    quotient and the descent stops. stop_reason is grad_tol, plateau,
    ascent (that slope stop), line_search (30 rejected trials at a slope
    within the bound) or max_iter, after MAX_ITER iterations. ascent_slope
    is the slope along -grad that made an ascent stop, None at every other
    stop. The current point is held as its MagneticState; an accepted
    trial's state takes its place."""
    quot, grad, state = _quotient_and_grad(values, g, beta)
    step = 1e-2 * g.h**2
    history = [quot]
    gnorm = np.sqrt(np.sum(np.abs(grad) ** 2) * g.h**2)
    it, stop, ascent_slope = 0, "max_iter", None
    for it in range(1, MAX_ITER + 1):
        for k in range(30):
            tq, trial = _quotient(_norm_mass(state.u.values - step * grad, g), g, beta)
            if tq < quot:
                break
            del trial  # a rejected trial dies with its state
            # the slope along -grad: negating grad's is exact and copies nothing
            if k == 0:
                slope = -_slope(state, grad)
                if slope > ASCENT_RTOL * quot * gnorm:
                    stop, ascent_slope = "ascent", slope
                    break
            step *= 0.5
        else:
            stop = "line_search"
        if stop != "max_iter":  # no trial was accepted
            break
        state, quot = trial, tq
        grad = _projected_grad(state, quot)
        step *= 1.3
        gnorm = np.sqrt(np.sum(np.abs(grad) ** 2) * g.h**2)
        history.append(quot)
        if gnorm < GRAD_TOL:
            stop = "grad_tol"
            break
        if (len(history) > PLATEAU_WINDOW
                and history[-PLATEAU_WINDOW - 1] - quot < PLATEAU_TOL * abs(quot)):
            stop = "plateau"
            break
    return state.u.values, quot, gnorm, it, stop, ascent_slope


def estimate_gamma(beta: float, config: DescentConfig | None = None) -> GammaEstimate:
    """Projected gradient descent estimate of gamma*(beta).

    Line-search trials evaluate only the quotient. gamma_hat is the discrete
    quotient of the field the descent ended on: it bounds the grid's
    discrete infimum from above, not gamma*, which it falls far below where
    the descent collapses to lattice scale (beta >= 4 on 12,128).
    stop_reason is the winning start's (_descend): on 12,128 at beta <= 3
    every descent stops on ascent, where -grad ascends the discrete quotient
    near the grid's edge, not at a minimizer; ascent_slope is then the
    slope along -grad that stopped it.
    """
    lower, upper = bounds(beta)  # first: it rejects a negative or non-finite beta
    cfg = config or DescentConfig()
    g = cfg.grid
    rng = np.random.default_rng(cfg.seed)

    def with_noise(v):
        noise = START_NOISE * (rng.standard_normal(v.shape)
                               + 1j * rng.standard_normal(v.shape))
        # band-limit the perturbation: grid-scale roughness makes the
        # discrete quotient gradient unreliable (one-sided boundary stencils
        # are not exactly self-adjoint at the Nyquist scale)
        noise = _blur(noise.real) + 1j * _blur(noise.imag)
        envelope = g.sample(lambda z: np.exp(-(np.abs(z) / (g.L / 2.0)) ** 2)).values
        return _norm_mass(v + noise * np.max(np.abs(v)) * envelope, g)

    starts = [with_noise(_townes_start(g)), with_noise(_ring_start(g, beta))]

    best = None
    for v0 in starts:
        out = _descend(v0, g, beta)
        if best is None or out[1] < best[1]:
            best = out
    v, q, gn, it, stop, slope = best
    return GammaEstimate(
        beta=float(beta),
        gamma_hat=float(q),
        lower_bound=lower,
        upper_bound=upper,
        iterations=int(it),
        final_gradient_norm=float(gn),
        stop_reason=stop,
        minimizer=GridField(g, v),
        ascent_slope=slope,
    )


# -- structure scan --------------------------------------------------------

# each gamma_hat is the quotient of an early-stopped descent, above the grid's
# discrete infimum by an unknown margin, so a rise of gamma/beta within this
# share of its value is not a monotonicity violation
SCAN_SLACK = 0.03


@dataclass(frozen=True)
class ScanRow:
    beta: float
    lower: float
    upper: float
    gamma_hat: float
    gamma_over_beta: float
    stop_reason: str  # GammaEstimate.stop_reason


@dataclass(frozen=True)
class ScanResult:
    rows: tuple[ScanRow, ...]
    lipschitz: tuple[float, ...]  # |dgamma| / |dbeta| between neighbors
    monotonicity_violations: tuple[int, ...]  # indices where gamma/beta rises

    @property
    def gamma_over_beta_monotone(self) -> bool:
        return not self.monotonicity_violations


def structure_scan(betas, config: DescentConfig | None = None) -> ScanResult:
    """Estimate gamma over a strictly increasing list of finite positive flux
    values, in order, the i-th with seed config.seed + i, and report the
    gamma/beta monotonicity and discrete Lipschitz data. gamma/beta counts
    as rising only where it grows by more than SCAN_SLACK = 3%."""
    betas = [float(b) for b in betas]
    if not all(0 < b < np.inf for b in betas) or any(
            b1 <= b0 for b0, b1 in zip(betas, betas[1:])):
        raise ValueError("betas must be finite, positive and strictly increasing")
    cfg = config or DescentConfig()
    ests = [estimate_gamma(b, replace(cfg, seed=cfg.seed + i)) for i, b in enumerate(betas)]
    rows = tuple(
        ScanRow(e.beta, e.lower_bound, e.upper_bound, e.gamma_hat,
                e.gamma_hat / e.beta, e.stop_reason)
        for e in ests
    )
    lip = tuple(
        abs(rows[i + 1].gamma_hat - rows[i].gamma_hat)
        / abs(rows[i + 1].beta - rows[i].beta)
        for i in range(len(rows) - 1)
    )
    viol = tuple(
        i + 1
        for i in range(len(rows) - 1)
        if rows[i + 1].gamma_over_beta > rows[i].gamma_over_beta * (1.0 + SCAN_SLACK)
    )
    return ScanResult(rows, lip, viol)


# -- restricted confined energy -------------------------------------------


def nll_energy(pair: WronskianPair, gamma: float, V=None) -> float:
    """Confined energy restricted to the explicit zero-energy family:

        (4 pi n - gamma) int |u_{P,Q}|^4 + int V |u_{P,Q}|^2,

    with n the max degree, on Grid(40, 1024). V is None (zero) or "harmonic"
    (|x|^2); the harmonic integral needs the density to decay faster than
    r^-4.
    """
    n = pair.max_degree
    g = Grid(40.0, 1024)
    u = Soliton(pair).sample(g)
    first = (4.0 * np.pi * n - gamma) * quadrature(u, 4)
    if V is None:
        return float(first)
    if V != "harmonic":
        raise ValueError(f"unknown potential spec {V!r}")
    # density tail: |u|^2 ~ r^{-2(2n - deg W)}
    if 2 * (2 * n - pair.W.degree) <= 4:
        raise ValueError("divergent confinement integral")
    # |x|^2 from broadcast axes: x down the rows, y along them
    x, y = g.axis[:, None], g.axis
    conf = trapezoid(g, lambda v, x: (x * x + y * y) * np.abs(v) ** 2, u.values, x)
    return float(first + conf)


def vortex_ring_ratio(n: int, beta: float, grid: Grid | None = None) -> float:
    """Numeric E_{beta, 2 pi beta}[u_n] / int |u_n|^4 for the radial ring;
    the closed form is pi (2n-1)/(n(n+1)) (beta-2n)^2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if beta < 0:
        raise ValueError("beta must be >= 0")
    # tighter box than the mass/tail default: the ratio is tail-insensitive
    # and the kernel near-zone error shrinks with the spacing
    g = grid or Grid(24.0, 1024)
    u = radial_ring(n).sample(g)
    rep = magnetic_energy(u, beta, order=6)
    return float(rep.bogomolnyi_gap / rep.quartic)


def vortex_ring_ratio_closed(n: int, beta: float) -> float:
    return float(np.pi * (2 * n - 1) / (n * (n + 1)) * (beta - 2 * n) ** 2)
