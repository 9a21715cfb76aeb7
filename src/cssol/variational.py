"""Variational estimation of the optimal self-magnetic interpolation constant
gamma*(beta): the cubic-NLS ground-state constant (Chebyshev collocation),
analytic bounds, projected gradient descent on the Rayleigh quotient,
structure scans, and the restricted confined-energy evaluation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np
# numpy only: the Townes profile evaluates its Chebyshev series, and the start
# noise blur and the dilation resampling are numpy ports, bit-identical to
# scipy.ndimage.gaussian_filter and a linear RegularGridInterpolator

from .functionals import MagneticState, magnetic_energy, stationarity
from .grid import Grid, GridField, integrate, quadrature
from .soliton import Soliton, radial_ring
from .wronskian_pairs import WronskianPair


# -- Townes profile --------------------------------------------------------


@dataclass(frozen=True)
class TownesProfile:
    r: np.ndarray
    tau: np.ndarray  # series(r)
    mass_sq: float  # 2 pi int tau^2 r dr
    c_lgn: float    # mass_sq / 2
    series: np.polynomial.Chebyshev  # the collocation solution on [0, TOWNES_R]

    def __call__(self, radii):
        """Evaluate tau at given radii: the series up to r[-1], an
        exponential tail beyond."""
        radii = np.asarray(radii, dtype=float)
        out = np.where(radii <= self.r[-1], self.series(np.clip(radii, 0, self.r[-1])), 0.0)
        tail = radii > self.r[-1]
        if np.any(tail):
            # tau ~ c e^{-r}/sqrt(r) matched at the last sample
            c = self.tau[-1] * np.sqrt(self.r[-1]) * np.exp(self.r[-1])
            out = np.where(tail, c * np.exp(-radii) / np.sqrt(np.maximum(radii, 1e-9)), out)
        return out


TOWNES_R = 30.0  # collocation domain [0, TOWNES_R]: tau(30) ~ 1e-13
TOWNES_N = 120   # Chebyshev degree of the collocation solve
_NEWTON_STEPS = 20


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


def townes_solve(tolerance: float = 1e-10, r_max: float = 18.0) -> TownesProfile:
    """Ground state of tau'' + tau'/r - tau + tau^3 = 0 by Chebyshev
    collocation on [0, TOWNES_R], sampled on a uniform grid of [0, r_max].

    The rows are tau(TOWNES_R) = 0 and, at r = 0, the regular limit
    2 tau'' - tau + tau^3 = 0. Petviashvili iterations from a Gaussian pick
    the positive solution; Newton finishes until its step is at most
    `tolerance` (RuntimeError if it is not). The mass is the Clenshaw-Curtis
    sum; the tail beyond TOWNES_R holds about e^-60 of it.
    """
    if not (1e-10 <= tolerance <= 1e-4):
        raise ValueError("tolerance must lie in [1e-10, 1e-4]")

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
        if np.max(np.abs(step)) <= tolerance:
            break
    else:
        raise RuntimeError(f"Townes Newton step still above {tolerance:.1e}")
    mass = 2.0 * np.pi * (weight @ tau**2)

    series = np.polynomial.Chebyshev.fit(r, tau, n, domain=[0.0, TOWNES_R])
    r = np.linspace(0.0, r_max, 4000)
    tau = series(r)
    # keep the decaying stretch: cut where the profile bottoms out or flips
    bad = np.where((tau <= 0) | (np.diff(tau, prepend=tau[0] + 1) > 0))[0]
    cut = bad[0] if bad.size else len(r)
    return TownesProfile(r=r[:cut], tau=tau[:cut], mass_sq=float(mass),
                         c_lgn=float(mass / 2.0), series=series)


@cache
def townes_profile() -> TownesProfile:
    return townes_solve(1e-10)


def townes_constant() -> float:
    return townes_profile().c_lgn


# -- analytic bounds -------------------------------------------------------


def bounds(beta: float) -> tuple[float, float]:
    """Refined lower/upper bounds for gamma*(beta).

    lower = max{(c + sqrt(c^2 + 4 pi^2 beta^2))/2, 2 pi beta}; the first
    entry solves gamma = c + pi^2 beta^2 / gamma.
    upper = min{c (1 + 3/2 beta^2), 2 pi beta + (pi/2)(2-beta)_+^2}.
    c is the ground-state constant C_LGN = ||Q||^2 / 2 (townes_solve).
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    c = townes_constant()
    lower = max(0.5 * (c + np.sqrt(c * c + 4.0 * np.pi**2 * beta**2)),
                2.0 * np.pi * beta)
    upper = min(c * (1.0 + 1.5 * beta**2),
                2.0 * np.pi * beta + 0.5 * np.pi * max(2.0 - beta, 0.0) ** 2)
    return float(lower), float(upper)


# -- descent estimator -----------------------------------------------------

ORDER = 4  # finite-difference order of the descent's quotient and gradient
START_NOISE = 0.05  # smoothed start perturbation, relative to max |start|


@dataclass(frozen=True)
class DescentConfig:
    grid: Grid = field(default_factory=lambda: Grid(12.0, 128))
    seed: int = 42
    max_iter: int = 20_000
    plateau_tol: float = 1e-5
    plateau_window: int = 50
    grad_tol: float = 1e-4
    dilation_every: int = 100


@dataclass(frozen=True)
class GammaEstimate:
    beta: float
    gamma_hat: float
    lower_bound: float
    upper_bound: float
    iterations: int
    final_gradient_norm: float
    stop_reason: str  # of the winning start's descent; see _descend
    minimizer: GridField


def _norm_mass(values: np.ndarray, g: Grid) -> np.ndarray:
    m = np.sum(np.abs(values) ** 2) * g.h**2
    return values / np.sqrt(m)


def _quotient(values: np.ndarray, g: Grid, beta: float, order: int):
    """Quotient F = sum |D|^2 / sum rho^2 at unit mass, and the state it was read from."""
    st = MagneticState(GridField(g, values), beta, order)
    quot = np.sum(st.d_sq) * g.h**2 / (np.sum(st.rho**2) * g.h**2)
    return float(quot), st


def _projected_grad(state: MagneticState, quot: float) -> np.ndarray:
    """Gradient of E_beta - quot int |u|^4 at state.u, mass-sphere normal projected out."""
    u, grad = state.u, stationarity(state, quot)
    return grad - np.real(np.sum(np.conj(u.values) * grad)) * u.grid.h**2 * u.values


def _quotient_and_grad(values: np.ndarray, g: Grid, beta: float, order: int):
    """The quotient and its projected gradient at values."""
    quot, st = _quotient(values, g, beta, order)
    return quot, _projected_grad(st, quot)


def _townes_start(g: Grid) -> np.ndarray:
    prof = townes_profile()
    return _norm_mass(g.sample(lambda z: prof(np.abs(z))).values.astype(complex), g)


def _ring_start(g: Grid, beta: float) -> np.ndarray:
    n = max(1, int(round(beta / 2.0)))
    return _norm_mass(radial_ring(n).sample(g).values, g)


def _dilate(values: np.ndarray, g: Grid, lam: float) -> np.ndarray:
    """u -> lam u(lam x), resampled on the same grid (zero beyond the box).

    Bilinear, with scipy's RegularGridInterpolator's interval rule and
    corner order, so the result is bit-identical to it; the scaled nodes
    are lam * axis along both axes, so indices and distances are 1-D."""
    a = g.axis
    t = lam * a
    i = np.clip(np.searchsorted(a, t, side="right") - 1, 0, a.size - 2)
    y = (t - a[i]) / (a[i + 1] - a[i])
    i0, i1, y0, y1 = i[:, None], i[None, :], y[:, None], y[None, :]
    parts = np.stack([values.real, values.imag])
    out = (parts[:, i0, i1] * (1 - y0) * (1 - y1)
           + parts[:, i0, i1 + 1] * (1 - y0) * y1
           + parts[:, i0 + 1, i1] * y0 * (1 - y1)
           + parts[:, i0 + 1, i1 + 1] * y0 * y1)
    outside = (t < a[0]) | (t > a[-1])
    out[:, outside, :] = 0.0
    out[:, :, outside] = 0.0
    return _norm_mass(lam * (out[0] + 1j * out[1]), g)


def _blur(v: np.ndarray, sigma: float = 2.0) -> np.ndarray:
    """Gaussian blur of a real 2-D array, bit-identical to
    scipy.ndimage.gaussian_filter(v, sigma): 4 sigma radius, half-sample
    symmetric edges, axis 0 then axis 1, and each output summed as
    x w_0 + sum_{j = radius..1} (x[i-j] + x[i+j]) w_j."""
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    w = np.exp(-0.5 / (sigma * sigma) * x**2)
    w = w / w.sum()
    for _ in range(2):  # along axis 0, then along axis 0 of the transpose
        n = v.shape[0]
        p = np.pad(v, ((radius, radius), (0, 0)), mode="symmetric")
        out = p[radius:radius + n] * w[radius]
        for j in range(radius, 0, -1):
            out += (p[radius - j:radius - j + n] + p[radius + j:radius + j + n]) * w[radius - j]
        v = out.T
    return v


def _descend(values: np.ndarray, g: Grid, beta: float, cfg: DescentConfig,
             upper: float):
    """Projected descent: (values, quotient, gradient norm, iterations, stop_reason).
    Trials read only the quotient; stop_reason: grad_tol, plateau, line_search, max_iter."""
    quot, grad = _quotient_and_grad(values, g, beta, ORDER)
    step = 1e-2 * g.h**2
    history = [quot]
    gnorm = np.sqrt(np.sum(np.abs(grad) ** 2) * g.h**2)
    it, stop = 0, "max_iter"
    for it in range(1, cfg.max_iter + 1):
        if quot > 10.0 * upper:
            raise RuntimeError("descent diverged")
        for _ in range(30):
            trial = _norm_mass(values - step * grad, g)
            tq, state = _quotient(trial, g, beta, ORDER)
            if tq < quot:
                break
            del state  # a rejected trial's state dies with the trial
            step *= 0.5
        else:
            stop = "line_search"
            break
        values, quot, grad = trial, tq, _projected_grad(state, tq)
        del state
        step *= 1.3
        if cfg.dilation_every and it % cfg.dilation_every == 0:
            winner = None
            for t in np.linspace(-1.0, 1.0, 9):
                lam = 2.0**t
                if lam == 1.0:
                    continue
                cq, cand = _quotient(_dilate(values, g, lam), g, beta, ORDER)
                if cq < quot:
                    quot, winner = cq, cand
                del cand
            if winner is not None:
                values, grad = winner.u.values, _projected_grad(winner, quot)
                del winner
        gnorm = np.sqrt(np.sum(np.abs(grad) ** 2) * g.h**2)
        history.append(quot)
        if gnorm < cfg.grad_tol:
            stop = "grad_tol"
            break
        if (len(history) > cfg.plateau_window
                and history[-cfg.plateau_window - 1] - quot
                < cfg.plateau_tol * abs(quot)):
            stop = "plateau"
            break
    return values, quot, gnorm, it, stop


def estimate_gamma(beta: float, config: DescentConfig | None = None) -> GammaEstimate:
    """Projected gradient descent estimate of gamma*(beta).

    The quotient is dilation invariant; an explicit dilation line search
    recenters the support scale periodically; line-search trials evaluate
    only the quotient. The result is an upper estimate of the infimum.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    cfg = config or DescentConfig()
    g = cfg.grid
    lower, upper = bounds(beta)
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
        out = _descend(v0, g, beta, cfg, upper)
        if best is None or out[1] < best[1]:
            best = out
    v, q, gn, it, stop = best
    return GammaEstimate(
        beta=float(beta),
        gamma_hat=float(q),
        lower_bound=lower,
        upper_bound=upper,
        iterations=int(it),
        final_gradient_norm=float(gn),
        stop_reason=stop,
        minimizer=GridField(g, v),
    )


# -- structure scan --------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    beta: float
    lower: float
    upper: float
    gamma_hat: float
    gamma_over_beta: float


@dataclass(frozen=True)
class ScanResult:
    rows: tuple[ScanRow, ...]
    lipschitz: tuple[float, ...]  # |dgamma| / |dbeta| between neighbors
    monotonicity_violations: tuple[int, ...]  # indices where gamma/beta rises

    @property
    def gamma_over_beta_monotone(self) -> bool:
        return not self.monotonicity_violations


def structure_scan(betas, config: DescentConfig | None = None,
                   slack: float = 0.03) -> ScanResult:
    """Estimate gamma over a strictly increasing list of positive flux
    values, in order, the i-th with seed config.seed + i, and report the
    gamma/beta monotonicity and discrete Lipschitz data."""
    betas = [float(b) for b in betas]
    if any(b <= 0 for b in betas) or any(
            b1 <= b0 for b0, b1 in zip(betas, betas[1:])):
        raise ValueError("betas must be positive and strictly increasing")
    cfg = config or DescentConfig()
    ests = [estimate_gamma(b, replace(cfg, seed=cfg.seed + i)) for i, b in enumerate(betas)]
    rows = tuple(
        ScanRow(e.beta, e.lower_bound, e.upper_bound, e.gamma_hat,
                e.gamma_hat / e.beta)
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
        if rows[i + 1].gamma_over_beta > rows[i].gamma_over_beta * (1.0 + slack)
    )
    return ScanResult(rows, lip, viol)


# -- restricted confined energy -------------------------------------------


def nll_energy(pair: WronskianPair, gamma: float, V=None,
               grid: Grid | None = None) -> float:
    """Confined energy restricted to the explicit zero-energy family:

        (4 pi n - gamma) int |u_{P,Q}|^4 + int V |u_{P,Q}|^2,

    with n the max degree. V may be None (zero), "harmonic" (|x|^2), or a
    GridField sampled on the same grid.
    """
    sol = Soliton(pair)
    n = int(sol.beta / 2)
    g = grid or Grid(40.0, 1024)
    u = sol.sample(g)
    quartic = quadrature(u, 4)
    first = (4.0 * np.pi * n - gamma) * quartic
    if V is None:
        return float(first)
    # density tail decay power: |u|^2 ~ r^{-2(2m - deg W)}
    m = pair.max_degree
    w = pair.W.degree or 0
    decay = 2 * (2 * m - w)
    if isinstance(V, str):
        if V != "harmonic":
            raise ValueError(f"unknown potential spec {V!r}")
        if decay - 2 <= 2:
            raise ValueError("divergent confinement integral")
        X, Y = g.mesh()
        Vv = X * X + Y * Y
    elif isinstance(V, GridField):
        if V.grid != g:
            raise ValueError("potential grid does not match")
        Vv = V.values.real
    else:
        raise ValueError("V must be None, 'harmonic', or a GridField")
    conf = integrate(GridField(g, Vv * np.abs(u.values) ** 2))
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
