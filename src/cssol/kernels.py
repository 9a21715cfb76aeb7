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
remainder.) The folded A table is odd (exactly, as below), so the discrete A
and A* are exact negative adjoints of each other.

Evaluation is the free-space convolution on the doubled grid (Hockney &
Eastwood, Computer Simulation Using Particles) with numpy.fft, at the period
N >= 2M-1, the smallest 5-smooth size. Each table sits zero-centred in the
period: offset d goes to index d mod N, so the offsets -(M-1)..M-1 never
wrap onto each other and the M x M output window is rows and columns
0..M-1. Only the M x M quarter of each table, d1, d2 >= 0, is built; the
rest follows by parity, exact by construction: the log table is even in
both offsets, the K2 table odd in d1 (its d1 = 0 row exact zero) and even
in d2, and K1 = -K2^T. So the log spectrum is real and the K2 spectrum i
times real, each even or odd in each frequency, and the cache keeps one real
(N/2+1)^2 quarter per table, k1, k2 in [0, N/2]: the rfft of the table's
even or odd extension along each axis, with the part that is zero up to
rounding dropped. The K1 quarter is minus the transpose of K2's, so A keeps
one array (8 MiB at M = 1024). The A quarter depends on M alone; the log
quarter on (M, h). One process-wide LRU cache, bounded by bytes, holds the
quarters.

KernelPlan.convolve transforms each input's M rows into an M x (N/2+1) row
buffer. Then, one block of spectrum columns at a time (about _BLOCK_BYTES of
them: one block of all 129 columns at M = 128, 33 blocks of 32 at
M = 1024), it zero-pads the block to N rows and transforms the columns. It
multiplies rows 0..N/2 by the quarter's rows and rows N/2+1..N-1 by its
mirrored rows (row N-k by quarter row k, a reversed view signed by the
parity; an odd N has no Nyquist row), transforms back unnormalized and
writes the window rows 0..M-1, times the scale (which carries the A
spectra's common -i and the 1/N^2), over the block's columns. Last, the
rows go back, unnormalized, in row blocks straight into the M x M outputs.
The work runs in place in a workspace of two row buffers, two column-block
buffers and one real row-block buffer (1.8 MiB at M = 128, 11 MiB at 512,
35 MiB at 1024). The process keeps it for the last grid size it used while
it fits in _WORK_BYTES, so up to M = 512 a call allocates only its M x M
outputs, which never alias it; a larger grid's is made for the call. The
kept workspace and the spectrum cache are unguarded module state: the
kernels are not thread-safe.

All 25 near-zone cell averages and first moments, the singular cell's
included, are corner second differences of closed-form mixed
antiderivatives, with no numerical quadrature.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from .grid import _D1, Grid, GridField

# offsets within this Chebyshev radius of the singular cell get exact
# cell-averaged kernel values
_NEAR = 2

# total size of the cached spectra: one M=1024 grid holds 24 MiB (the A and
# log quarters, 8 MiB each, and the 8 MiB log(|y|+1) weight)
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
    """M x M quarter of the table over the grid offsets d >= 0 at unit
    spacing: far(d1, |d|^2) (the midpoint value), the 3x3 corner of the exact
    cell averages, minus the 5x5 corner of the folded moment correction."""
    d = np.arange(M, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        T = far(d[:, None], d[:, None] ** 2 + d[None, :] ** 2)
    r, q = _NEAR, fold.shape[0] // 2
    T[: r + 1, : r + 1] = cells[r:, r:]
    T[: q + 1, : q + 1] -= fold[q:, q:]
    return T


class _SpectrumCache:
    """LRU of tuples of arrays, bounded by their total bytes (the newest
    entry is always kept)."""

    def __init__(self, max_bytes: int):
        self.max_bytes = max_bytes
        self.nbytes = 0
        self._items: OrderedDict = OrderedDict()

    def get(self, key, build):
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

# the kept KernelPlan.workspace: (M, buffers) for the last grid size used,
# kept between calls only up to _WORK_BYTES (M <= 512), so no large grid's
# workspace sits idle; a larger grid's is made for each call
_WORK: tuple[int, tuple] | None = None
_WORK_BYTES = 16 * 2**20


class KernelPlan:
    """Free-space FFT convolution on one grid's doubled grid. Cheap to make:
    the table spectra come from the shared cache, built on first use."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.N = _fast_len(2 * grid.M - 1)

    def workspace(self):
        """Buffers for this grid, the kept set or a new one: two M x (N/2+1)
        complex row buffers, two complex N x B column-block buffers and one
        real R x N row-block buffer, B and R set by _BLOCK_BYTES."""
        global _WORK
        M, N = self.grid.M, self.N
        if _WORK is not None and _WORK[0] == M:
            return _WORK[1]
        _WORK = None  # free the old set first
        B = min(N // 2 + 1, max(1, _BLOCK_BYTES // (16 * N)))
        R = min(M, max(1, _BLOCK_BYTES // (8 * N)))
        buffers = (np.empty((M, N // 2 + 1), complex), np.empty((M, N // 2 + 1), complex),
                   np.empty(N * B, complex), np.empty(N * B, complex), np.empty((R, N)))
        if sum(b.nbytes for b in buffers) <= _WORK_BYTES:
            _WORK = M, buffers
        return buffers

    def _spectrum(self, T: np.ndarray, sign: float) -> np.ndarray:
        """The real (N/2+1)^2 quarter of the spectrum of the N-periodic table
        whose offset d sits at d mod N, from T, its d >= 0 quarter: even in
        d2, and even (sign 1) or odd (sign -1, with T's d1 = 0 row zero) in
        d1. Each axis is the rfft of the even or odd extension of T over the
        period; the spectrum is then real, or i times real, and the other
        part, zero up to rounding, is dropped."""
        N = self.N
        for s in (1.0, sign):  # along d2, then along d1
            m = T.shape[1]
            E = np.zeros((T.shape[0], N))
            E[:, :m] = T
            np.multiply(T[:, :0:-1], s, out=E[:, N - m + 1 :])
            del T  # each pass frees its input, extension and transform early
            E = np.fft.rfft(E, axis=1)
            T = np.ascontiguousarray((E.real if s > 0 else E.imag).T)
            del E
        return T

    def convolve(self, inputs, spectra, scale: complex) -> list[np.ndarray]:
        """The M x M window (rows and columns 0..M-1) of the inverse
        transforms of scale times spectrum products, as fresh arrays. Each
        spectrum is a triple (quarter, top sign, mirror sign): its rows
        0..N/2 are top sign times the (N/2+1)^2 real quarter, and its row
        N-k, for 0 < k < N-N/2, is mirror sign times quarter row k. One
        M x M input gives one output per spectrum; two inputs give one
        output, of the sum of input i's transform times spectra[i] (in that
        order; the first spectrum's signs must be 1). The steps are those of
        the module docstring; output k is assembled in row buffer k, whose
        block columns were read before they are overwritten."""
        M, N = self.grid.M, self.N
        *rows, ca, cb, back = self.workspace()
        width, B = N // 2 + 1, ca.size // N
        slabs = ((slice(0, width), slice(None)), (slice(width, N), slice(N - width, 0, -1)))
        scale /= N * N  # the inverse transforms run unnormalized
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
                    # the signed spectrum, cast into X[1], times the transform
                    (Q, *signs), p = spectra[k], X[1]
                    for (rs, qs), s in zip(slabs, signs):
                        np.multiply(Q[qs, c], s, out=p[rs])
                    np.multiply(p, X[0], out=p)
                else:
                    (Q0, *_), (Q1, *signs), p = *spectra, X[0]
                    for (rs, qs), s in zip(slabs, signs):
                        np.multiply(p[rs], Q0[qs, c], out=p[rs])
                        y = np.multiply(X[1][rs], Q1[qs, c], out=X[1][rs])
                        (np.add if s > 0 else np.subtract)(p[rs], y, out=p[rs])
                np.fft.ifft(p, axis=0, out=p, norm="forward")
                np.multiply(p[:M], scale, out=rows[k][:, c])
        outs = [np.empty((M, M)) for _ in range(n_out)]
        R = back.shape[0]
        for r, out in zip(rows, outs):
            for a in range(0, M, R):
                b = min(a + R, M)
                np.fft.irfft(r[a:b], n=N, axis=1, out=back[: b - a], norm="forward")
                out[a:b] = back[: b - a, :M]
        return outs

    def log_spectrum(self):
        """((log-table quarter, 1, 1), log(|y|+1) weight). At spacing h a cell
        average of log is log h plus its unit-spacing value; the fold is 1/h."""
        g = self.grid

        def build():
            cells, fold, _, _ = _near_tables()
            T = _table(g.M, lambda d1, r2: 0.5 * np.log(r2), cells, fold / g.h)
            ax = g.axis
            return self._spectrum(T + np.log(g.h), 1.0), np.log(np.hypot(ax[:, None], ax) + 1.0)

        Q, weight = _SPECTRA.get(("log", g.M, g.h), build)
        return (Q, 1, 1), weight

    def a_spectra(self):
        """The K1 and K2 spectra as -i times real spectra, from the one cached
        quarter Q of K2 (odd in d1, so its spectrum is i Q): K2 is -Q on the
        top rows and Q mirrored, and K1 = -K2^T, even in d1, is Q^T on both.
        The unit-spacing kernel and its fold are homogeneous of degree -1,
        so they scale by h afterwards."""

        def build():
            _, _, cells, fold = _near_tables()
            K2 = _table(self.grid.M, lambda d1, r2: d1 / r2, cells, fold)
            K2[0] = 0.0  # exactly odd: the fold leaves a 2e-18 residue at d = 0
            return (self._spectrum(K2, -1.0),)

        (Q,) = _SPECTRA.get(("inv", self.grid.M), build)
        return (Q.T, 1, 1), (Q, -1, 1)


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
    conv -= float(np.vdot(weight, v) * rho.grid.h**2)
    return GridField._own(rho.grid, conv)


def vector_potential(rho: GridField):
    """A[rho](x) = PV int (x-y)^perp/|x-y|^2 rho(y) dy, componentwise.

    One forward transform of rho, one inverse per component; the near-zone
    first-moment corrections are folded into the tables.
    """
    v = _check_density(rho)
    g = rho.grid
    plan = KernelPlan(g)
    return tuple(GridField._own(g, a) for a in plan.convolve([v], plan.a_spectra(), -1j * g.h))


def a_star(F1: GridField, F2: GridField) -> GridField:
    """A*[F](x) = PV int (x-y)^perp/|x-y|^2 . F(y) dy (scalar output).

    The two products are summed in frequency space: one inverse transform.
    """
    g = F1.grid
    if F2.grid != g:
        raise ValueError("component grids differ")
    v1, v2 = _real(F1, "F1"), _real(F2, "F2")
    plan = KernelPlan(g)
    return GridField._own(g, plan.convolve([v1, v2], plan.a_spectra(), -1j * g.h)[0])
