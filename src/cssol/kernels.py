"""Singular-kernel integral operators on grid fields.

Implements the logarithmic potential Phi[rho], the perpendicular Riesz-type
vector potential A[rho], and the dotted adjoint-type operator A*[F], all as
the discrete sums

    sum_j  Kbar(x_i - y_j) * field(y_j) * h^2

with Kbar the exact cell average of the kernel near the singularity and the
midpoint kernel value elsewhere (both kernels are harmonic away from 0, so
midpoint = cell average + O(h^4) there).

Near-zone correction: within a 5x5 window of the singular cell, the cell-
averaged kernel times the midpoint field misses the covariance of the kernel
with the field's slope across the cell: the cell's first-moment table applied
to the 4th-order central difference of the field. Moment table and stencil
compose to a fixed 9x9 stencil folded into the centre of the kernel table, so
each sum is one convolution. (Beyond the window the first-moment term cancels
against the midpoint-rule Laplacian error up to a measured higher-order
remainder.) The folded A table is odd, so the discrete A and A* are exact
negative adjoints of each other.

Evaluation is the free-space convolution on the doubled grid (Hockney &
Eastwood, Computer Simulation Using Particles) with numpy.fft: the spectrum of
the (2M-1)^2 offset table at N >= 2M-1, the smallest 5-smooth size, is
computed once and cached; N >= 2M-1 keeps the M x M output window free of
wrap-around. The A spectra depend on M alone; the log spectrum on (M, h). One
process-wide LRU cache, bounded by bytes, holds the spectra; the tables are
built only to be transformed, and only the cached spectra are full
N x (N/2+1) arrays. KernelPlan.convolve transforms each input's M rows into an
M x (N/2+1) row buffer. Then, one block of spectrum columns at a time (about
_BLOCK_BYTES of them: one block of all 129 columns at M = 128, 33 blocks of
32 at M = 1024), it zero-pads the block to N rows, transforms the columns,
multiplies by the table spectra, transforms back and writes the M rows of the
output window over the block's columns; last, the rows go back in row blocks
straight into the M x M outputs. The work runs in place in a per-thread
workspace kept for the last grid size the thread used: two row buffers, two
column-block buffers and one real row-block buffer, 1.8 MiB at M = 128 and
35 MiB at M = 1024. A call allocates only its M x M outputs, which never
alias the workspace.

All 25 near-zone cell averages and first moments, the singular cell's
included, are corner second differences of closed-form mixed
antiderivatives, with no numerical quadrature.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from .grid import _D1, Grid, GridField

# offsets within this Chebyshev radius of the singular cell get exact
# cell-averaged kernel values
_NEAR = 2

# total size of the cached spectra: one M=1024 grid holds 104 MiB (three
# 32 MiB spectra and the log(|y|+1) weight), so two box sizes at M=1024 fit
_CACHE_BYTES = 256 * 2**20


def _fold(CX: np.ndarray, CY: np.ndarray) -> np.ndarray:
    """9x9 offset stencil of sum_k CX[k] d1F(x - k) + CY[k] d2F(x - k) with
    dF(x) = sum_s c_s F(x + s) the 4th-order central difference: the weight
    on F(x - o) sums CX[k] c_s over k - s = o (CY along the second axis)."""
    c, r = _D1[4]
    n = 2 * _NEAR + 1
    out = np.zeros((n + 2 * r, n + 2 * r))
    for k, ck in enumerate(c):
        s = k - r
        out[r - s : r - s + n, r : r + n] += ck * CX
        out[r : r + n, r - s : r - s + n] += ck * CY
    return out


def _near_tables():
    """(log cells, log fold, K2 cells, K2 fold) at unit spacing: 5x5 cell
    averages and 9x9 folds of the moments int_cell (v - cell centre) K dv.
    K2(v) = v1/|v|^2; K1(v) = -v2/|v|^2 is minus the transpose of K2.

    Each cell integral is the corner second difference of a mixed
    antiderivative F (d2F/dx dy = integrand); every atan(a/b) is taken times
    b^2, so F is continuous across the axes the centre cells straddle."""
    e = np.arange(-_NEAR - 0.5, _NEAR + 1.0)
    x, y = np.meshgrid(e, e, indexing="ij")
    xx, yy, xy = x * x, y * y, x * y
    L = np.log(xx + yy)
    ax, ay = np.arctan(y / x), np.arctan(x / y)

    def cells(F):
        return np.diff(np.diff(F, axis=0), axis=1)

    log = cells(0.5 * (xy * L - 3.0 * xy + xx * ax + yy * ay))  # log|v|
    inv = cells(x * ax + 0.5 * y * L - y)  # x/|v|^2
    xinv = cells(0.5 * (xy + xx * ax - yy * ay))  # x^2/|v|^2
    yinv = cells(0.25 * ((xx + yy) * L - yy))  # xy/|v|^2
    xlog = cells(xx * x * ax / 3.0 - 7.0 * xx * y / 12.0 - yy * y / 18.0
                 + y * (3.0 * xx + yy) * L / 12.0)  # x log|v|
    # first moments: int_cell (x - i) K = cells(x K) - i cells(K)
    c = np.arange(-_NEAR, _NEAR + 1.0)
    i, j = c[:, None], c[None, :]
    LX = xlog - i * log
    # the log moment along the second axis is the transpose of the first
    return log, _fold(LX, LX.T), inv, _fold(xinv - i * inv, yinv - j * inv)


def _table(M: int, far, cells: np.ndarray, fold: np.ndarray) -> np.ndarray:
    """(2M-1)^2 table over the grid offsets d at unit spacing: far(d1, |d|^2)
    (the midpoint value), the 5x5 exact cell averages at the centre, minus
    the 9x9 folded moment correction."""
    d = np.arange(-(M - 1), M, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        T = far(d[:, None], d[:, None] ** 2 + d[None, :] ** 2)
    c, r, q = M - 1, _NEAR, fold.shape[0] // 2
    T[c - r : c + r + 1, c - r : c + r + 1] = cells
    T[c - q : c + q + 1, c - q : c + q + 1] -= fold
    return T


class _SpectrumCache:
    """Thread-safe LRU of tuples of arrays, bounded by their total bytes (the
    newest entry is always kept). Entries are built under the lock, so
    concurrent first calls on one grid build its spectra once."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._items: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key, build):
        with self._lock:
            value = self._items.get(key)
            if value is not None:
                self._items.move_to_end(key)
                return value
            value = build()
            self._items[key] = value
            self.nbytes += sum(a.nbytes for a in value)
            while self.nbytes > self.max_bytes and len(self._items) > 1:
                _, old = self._items.popitem(last=False)
                self.nbytes -= sum(a.nbytes for a in old)
            return value


_SPECTRA = _SpectrumCache(_CACHE_BYTES)


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n (scipy's next_fast_len rule for real input)."""
    best, p5 = 2 * n, 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power of two times p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


# bytes of one column-block buffer, and of the real row-block buffer; at
# M = 128 one block holds all N/2+1 spectrum columns (256 x 129 complex, 516 KiB)
_BLOCK_BYTES = 2**20

# each thread's KernelPlan.workspace buffers (and the M they were made for)
_WORK = threading.local()


class KernelPlan:
    """Free-space FFT convolution on one grid's doubled grid. Cheap to make:
    the table spectra come from the shared cache, built on first use."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.N = _fast_len(2 * grid.M - 1)

    def workspace(self):
        """This thread's buffers for this grid: two M x (N/2+1) complex row
        buffers, two complex column-block buffers of N x B entries and one
        real row-block buffer of R x N, B and R set by _BLOCK_BYTES."""
        M, N = self.grid.M, self.N
        if getattr(_WORK, "M", None) != M:
            _WORK.M = _WORK.buffers = None  # free the old set first
            B = min(N // 2 + 1, max(1, _BLOCK_BYTES // (16 * N)))
            R = min(M, max(1, _BLOCK_BYTES // (8 * N)))
            _WORK.buffers = (np.empty((M, N // 2 + 1), complex),
                             np.empty((M, N // 2 + 1), complex),
                             np.empty(N * B, complex), np.empty(N * B, complex),
                             np.empty((R, N)))
            _WORK.M = M
        return _WORK.buffers

    def _spectrum(self, table: np.ndarray) -> np.ndarray:
        """2-D real transform of a table zero-padded to N x N, as a fresh
        array: the row pass runs on the rows that hold data only."""
        N, m = self.N, table.shape[0]
        out = np.empty((N, N // 2 + 1), complex)
        np.fft.rfft(table, n=N, axis=1, out=out[:m])
        out[m:] = 0.0
        return np.fft.fft(out, axis=0, out=out)

    def convolve(self, inputs, spectra, scale: float) -> list[np.ndarray]:
        """scale times the M x M window (rows and columns M-1..2M-2) of the
        inverse transforms of spectrum products, as fresh arrays. One M x M
        input gives one output per spectrum; two inputs give one output, of
        the sum of input i's transform times spectra[i] (in that order).
        The steps are those of the module docstring; output k is assembled
        in row buffer k, whose block columns were read before they are
        overwritten."""
        M, N = self.grid.M, self.N
        *rows, ca, cb, back = self.workspace()
        width, B = N // 2 + 1, ca.size // N
        w = slice(M - 1, 2 * M - 1)
        for v, r in zip(inputs, rows):
            np.fft.rfft(v, n=N, axis=1, out=r)
        n_out = len(spectra) if len(inputs) == 1 else 1
        for a in range(0, width, B):
            c = slice(a, min(a + B, width))
            # contiguous N x (block width) views of the column buffers
            X = [buf[: N * (c.stop - a)].reshape(N, -1) for buf in (ca, cb)]
            for r, x in zip(rows[: len(inputs)], X):
                x[:M] = r[:, c]
                x[M:] = 0.0
                np.fft.fft(x, axis=0, out=x)
            for k in range(n_out):
                if len(inputs) == 1:
                    p = np.multiply(X[0], spectra[k][:, c], out=X[1])
                else:
                    p = np.multiply(X[0], spectra[0][:, c], out=X[0])
                    p += np.multiply(X[1], spectra[1][:, c], out=X[1])
                np.fft.ifft(p, axis=0, out=p)
                rows[k][:, c] = p[w]
        outs = [np.empty((M, M)) for _ in range(n_out)]
        R = back.shape[0]
        for r, out in zip(rows, outs):
            for a in range(0, M, R):
                b = min(a + R, M)
                np.fft.irfft(r[a:b], n=N, axis=1, out=back[: b - a])
                np.multiply(back[: b - a, w], scale, out=out[a:b])
        return outs

    def log_spectrum(self):
        """(log-table spectrum, log(|y|+1) weight). At spacing h a cell
        average of log is log h plus its unit-spacing value; the fold is 1/h."""
        g = self.grid

        def build():
            cells, fold, _, _ = _near_tables()
            T = _table(g.M, lambda d1, r2: 0.5 * np.log(r2), cells, fold / g.h)
            X, Y = g.mesh()
            return self._spectrum(T + np.log(g.h)), np.log(np.hypot(X, Y) + 1.0)

        return _SPECTRA.get(("log", g.M, g.h), build)

    def a_spectra(self):
        """Spectra of the unit-spacing K1 and K2 tables; the kernel and its
        fold are homogeneous of degree -1, so they scale by h afterwards."""

        def build():
            _, _, cells, fold = _near_tables()
            K2 = _table(self.grid.M, lambda d1, r2: d1 / r2, cells, fold)
            return self._spectrum(-K2.T), self._spectrum(K2)

        return _SPECTRA.get(("inv", self.grid.M), build)


def _real(f: GridField, what: str) -> np.ndarray:
    """f's values as float64, refusing an imaginary part above 1e-12."""
    v = f.values
    if np.iscomplexobj(v):
        if np.max(np.abs(v.imag)) > 1e-12:
            raise ValueError(f"{what} must be real")
        v = v.real
    return np.asarray(v, dtype=float)


def _check_density(rho: GridField) -> np.ndarray:
    v = _real(rho, "density")
    if v.min() < -1e-12:
        raise ValueError("negative density entries")
    return v


def _log_conv(g: Grid, values: np.ndarray):
    """(log-table convolution of values, log(|y|+1) weight) on grid g."""
    plan = KernelPlan(g)
    S, weight = plan.log_spectrum()
    return plan.convolve([values], [S], g.h**2)[0], weight


def superpotential(rho: GridField) -> GridField:
    """Phi[rho](x) = int (log|x-y| - log(|y|+1)) rho(y) dy on the grid."""
    v = _check_density(rho)
    conv, weight = _log_conv(rho.grid, v)
    conv -= float(np.sum(weight * v) * rho.grid.h**2)
    return GridField._own(rho.grid, conv)


def log_convolution(f: GridField) -> GridField:
    """int log|x-y| f(y) dy for a (possibly signed) real field; no
    -log(|y|+1) renormalization."""
    return GridField._own(f.grid, _log_conv(f.grid, _real(f, "field"))[0])


def vector_potential(rho: GridField):
    """A[rho](x) = PV int (x-y)^perp/|x-y|^2 rho(y) dy, componentwise.

    One forward transform of rho, one inverse per component; the near-zone
    first-moment corrections are folded into the tables.
    """
    v = _check_density(rho)
    g = rho.grid
    plan = KernelPlan(g)
    return tuple(GridField._own(g, a) for a in plan.convolve([v], plan.a_spectra(), g.h))


def a_star(F1: GridField, F2: GridField) -> GridField:
    """A*[F](x) = PV int (x-y)^perp/|x-y|^2 . F(y) dy (scalar output).

    The two products are summed in frequency space: one inverse transform.
    """
    g = F1.grid
    if F2.grid != g:
        raise ValueError("component grids differ")
    v1, v2 = _real(F1, "F1"), _real(F2, "F2")
    plan = KernelPlan(g)
    return GridField._own(g, plan.convolve([v1, v2], plan.a_spectra(), g.h)[0])
