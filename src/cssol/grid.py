"""Uniform square grids on [-L,L]^2: sampling, finite differences, quadrature,
and flat-binary field I/O.

Grid.sample(fn) evaluates fn one block of about BLOCK_NODES nodes (whole
rows) at a time into one preallocated M x M array, so fn's temporaries stay
in cache and no full-grid z or temporary is built. fn must act pointwise on
an array of z: each value depends only on the z at the same place, and the
result has the shape of its argument; the samples are then the same bits as
fn(zmesh()). The closed forms of the soliton module share its blocks of rows
(Grid.row_blocks) but evaluate their polynomials on them by a matrix product.

A central stencil runs in one pass as antisymmetric (first derivative) or
symmetric (second derivative) pairs c_j (v[i+j] -+ v[i-j]) / h^k summed in
place, one cache-sized block of the flattened array at a time, with
2nd-order one-sided stencils on the boundary ring of width r; the Laplacian
is the sum of one such second derivative per axis."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# central second-derivative stencils by accuracy order
_D2 = {
    2: (np.array([1.0, -2.0, 1.0]), 1),
    4: (np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0, 2),
    6: (np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0, 3),
    8: (
        np.array([-9.0, 128.0, -1008.0, 8064.0, -14350.0, 8064.0, -1008.0, 128.0, -9.0])
        / 5040.0,
        4,
    ),
}

# central first-derivative stencils by accuracy order
_D1 = {
    2: (np.array([-0.5, 0.0, 0.5]), 1),
    4: (np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0, 2),
    6: (np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0, 3),
    8: (np.array([3.0, -32.0, 168.0, -672.0, 0.0, 672.0, -168.0, 32.0, -3.0]) / 840.0, 4),
}


# nodes per Grid.sample block and per stencil block: 16,384 complex nodes
# are 256 KiB, so a closed form's or a stencil's few temporaries of that size
# fit in a core's L2 cache
BLOCK_NODES = 16384


@dataclass(frozen=True, slots=True)
class Grid:
    """M x M nodes spanning [-L, L]^2, spacing h = 2L/(M-1); equal by (L, M)."""

    L: float
    M: int
    h: float = field(init=False, repr=False, compare=False)
    axis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        L, M = self.L, self.M
        if M < 16:
            raise ValueError("grid size M must be >= 16")
        if M % 2 != 0:
            raise ValueError("grid size M must be even")
        if not 0.0 < L < np.inf:
            raise ValueError("extent L must be positive and finite")
        object.__setattr__(self, "L", float(L))
        object.__setattr__(self, "M", int(M))
        object.__setattr__(self, "h", 2.0 * L / (M - 1))
        object.__setattr__(self, "axis", np.linspace(-L, L, M))

    def mesh(self):
        """(X, Y) with row index = x, column index = y."""
        return np.meshgrid(self.axis, self.axis, indexing="ij")

    def zmesh(self) -> np.ndarray:
        """z = x + iy at every node (row index = x), in one allocation."""
        return self._zrows(0, self.M)

    def _zrows(self, a: int, b: int) -> np.ndarray:
        """z on the rows a:b."""
        z = np.empty((b - a, self.M), dtype=complex)
        z.real = self.axis[a:b, None]
        z.imag = self.axis
        return z

    def row_blocks(self):
        """(a, b) of each block of the whole rows a:b of about BLOCK_NODES nodes."""
        rows = max(1, BLOCK_NODES // self.M)
        return ((a, min(a + rows, self.M)) for a in range(0, self.M, rows))

    def sample(self, fn) -> "GridField":
        """Sample fn, a pointwise function of an array z = x + iy.

        fn is called on blocks of whole rows of about BLOCK_NODES nodes and
        must return an array of its argument's shape; each block is written
        into one M x M array whose dtype is the first block's. ValueError on
        a result of another shape (a scalar included), on a later block that
        does not cast to that dtype within its kind (complex into real), and
        on a non-finite value."""
        M = self.M
        out = None
        for a, b in self.row_blocks():
            v = np.asarray(fn(self._zrows(a, b)))
            if v.shape != (b - a, M):
                raise ValueError(f"values shape {v.shape} of rows {a}:{b} does not "
                                 f"match grid {self}")
            if out is None:
                out = np.empty((M, M), dtype=v.dtype)
            elif not np.can_cast(v.dtype, out.dtype, "same_kind"):
                raise ValueError(f"rows {a}:{b} give dtype {v.dtype}, which does not "
                                 f"cast to {out.dtype} of the first rows")
            out[a:b] = v
        return GridField._own(self, out)


@dataclass(frozen=True, slots=True, eq=False)
class GridField:
    """Samples of a scalar field on a Grid (complex or real)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self._freeze(self.grid, np.array(self.values, order="C"))

    @classmethod
    def _own(cls, grid: Grid, values: np.ndarray) -> "GridField":
        """Wrap an array that nothing writes afterwards: checked and frozen, not copied."""
        out = cls.__new__(cls)
        out._freeze(grid, values)
        return out

    def _freeze(self, grid: Grid, v: np.ndarray) -> None:
        if v.shape != (grid.M, grid.M):
            raise ValueError(f"values shape {v.shape} does not match grid {grid}")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite field values")
        v.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", v)

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values)

    def map(self, fn) -> "GridField":
        return GridField(self.grid, fn(self.values))

    def __repr__(self):
        return f"GridField({self.grid}, dtype={self.values.dtype})"


# -- finite differences ----------------------------------------------------


def _cut(axis: int, a: int, b: int):
    """Index of the slab a:b along axis of a 2-D array."""
    return (slice(a, b),) if axis == 0 else (slice(None), slice(a, b))


def _ring(v: np.ndarray, axis: int, r: int, k: int, h: float):
    """(low, high) 2nd-order one-sided k-th derivative on the r end nodes of axis."""
    n, w = v.shape[axis], (-1.5, 2.0, -0.5) if k == 1 else (2.0, -5.0, 4.0, -1.0)
    lo = sum(c * v[_cut(axis, i, i + r)] for i, c in enumerate(w))
    hi = sum((-1) ** k * c * v[_cut(axis, n - r - i, n - i)] for i, c in enumerate(w))
    return lo / h**k, hi / h**k


def _axis_deriv(v: np.ndarray, axis: int, k: int, order: int, h: float) -> np.ndarray:
    """k-th derivative (k = 1, 2) along axis: the central stencil in one pass of
    (anti)symmetric pairs, the 2nd-order one-sided one on the ring of that axis.

    The pairs run on the flattened array, shifted by multiples of the axis's
    stride s (the row length for axis 0, 1 for axis 1), over the flat range
    r s .. n - r s, one block of BLOCK_NODES nodes at a time, so the scratch
    is one block. Along axis 1 the pairs that straddle a row end land only
    on the ring columns, which _ring overwrites."""
    coeffs, r = (_D1 if k == 1 else _D2)[order]
    n, m, s = v.size, v.shape[axis], v.shape[1] if axis == 0 else 1
    combine = np.subtract if k == 1 else np.add
    f = v.reshape(-1)
    out = np.empty(v.shape, np.result_type(v, np.float64))
    flat = out.reshape(-1)
    scratch = np.empty(min(BLOCK_NODES, n), out.dtype)
    for a in range(r * s, n - r * s, BLOCK_NODES):
        b = min(a + BLOCK_NODES, n - r * s)
        o, tmp = flat[a:b], scratch[: b - a]
        for j in range(1, r + 1):
            pair = combine(f[a + j * s : b + j * s], f[a - j * s : b - j * s],
                           out=o if j == 1 else tmp)
            pair *= coeffs[r + j] / h**k
            if j > 1:
                o += pair
        if k == 2:  # the centre term
            o += np.multiply(f[a:b], coeffs[r] / h**2, out=tmp)
    out[_cut(axis, 0, r)], out[_cut(axis, m - r, m)] = _ring(v, axis, r, k, h)
    return out


def deriv(field: GridField, axis: int, order: int = 4) -> GridField:
    """Partial derivative along axis (0 = x, 1 = y)."""
    return GridField._own(field.grid, _axis_deriv(field.values, axis, 1, order, field.grid.h))


def gradient(field: GridField, order: int = 4):
    return deriv(field, 0, order), deriv(field, 1, order)


def laplacian(field: GridField, order: int = 4) -> GridField:
    """Sum of the second derivatives along x and y, each with its own
    one-sided ring, so an edge node keeps the central term along the edge."""
    v, h = field.values, field.grid.h
    out = _axis_deriv(v, 0, 2, order, h)
    out += _axis_deriv(v, 1, 2, order, h)
    return GridField._own(field.grid, out)


def _pair_sum(op, F: GridField, G: GridField, order: int) -> GridField:
    """op(d1 F, d2 G), into d1 F's array unless G's complex values promote
    it; the result is non-finite exactly when one of the two terms is, so it
    alone is checked."""
    h = F.grid.h
    a = _axis_deriv(F.values, 0, 1, order, h)
    b = _axis_deriv(G.values, 1, 1, order, h)
    return GridField._own(F.grid, op(a, b, out=a if np.can_cast(b.dtype, a.dtype) else None))


def curl(F1: GridField, F2: GridField, order: int = 4) -> GridField:
    """Scalar curl of a planar vector field: d1 F2 - d2 F1."""
    return _pair_sum(np.subtract, F2, F1, order)


def divergence(F1: GridField, F2: GridField, order: int = 4) -> GridField:
    return _pair_sum(np.add, F1, F2, order)


def interior_mask(grid: Grid, margin: int) -> np.ndarray:
    m = np.zeros((grid.M, grid.M), dtype=bool)
    m[margin:-margin, margin:-margin] = True
    return m


# -- quadrature ------------------------------------------------------------


def _trap_weights(M: int) -> np.ndarray:
    w = np.ones(M)
    w[0] = w[-1] = 0.5
    return w


def integrate(field: GridField) -> complex | float:
    """Composite 2-D trapezoid integral of the raw (signed/complex) values."""
    w = _trap_weights(field.grid.M)
    total = w @ field.values @ w
    total *= field.grid.h ** 2
    return float(total.real) if field.is_real else complex(total)


def quadrature(field: GridField, p: float) -> float:
    """Composite trapezoid of |values|^p."""
    w = _trap_weights(field.grid.M)
    a = np.abs(field.values)
    a **= p
    return float((w @ a @ w) * field.grid.h ** 2)


# -- field I/O -------------------------------------------------------------


def save_field(field: GridField, path: str) -> None:
    """Flat little-endian f64 (re, im) pairs, row-major, + JSON sidecar."""
    np.ascontiguousarray(field.values, dtype="<c16").tofile(path)
    kind = "real" if field.is_real else "complex"
    with open(path + ".json", "w") as fh:
        json.dump({"L": field.grid.L, "M": field.grid.M, "kind": kind}, fh)


def _read_sidecar(path: str) -> tuple[Grid, bool]:
    """The grid and the real flag of PATH.json; ValueError naming the file
    unless it is a JSON object with a finite number L, an integral M that
    makes a valid grid, and kind "real" or "complex"."""
    side = path + ".json"

    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    try:
        with open(side) as fh:
            meta = json.load(fh)
        if not isinstance(meta, dict):
            raise ValueError("sidecar is not a JSON object")
        L, M, kind = meta.get("L"), meta.get("M"), meta.get("kind")
        if not (number(L) and np.isfinite(L)):
            raise ValueError(f"extent L must be a finite number, got {L!r}")
        if not (number(M) and float(M).is_integer()):
            raise ValueError(f"grid size M must be an integer, got {M!r}")
        if kind not in ("real", "complex"):
            raise ValueError(f"kind must be 'real' or 'complex', got {kind!r}")
        return Grid(L, int(M)), kind == "real"
    except ValueError as exc:  # json.JSONDecodeError included
        raise ValueError(f"{side}: {exc}") from None


def load_field(path: str) -> GridField:
    """Read a field written by save_field; ValueError unless the sidecar is
    valid (see _read_sidecar), the file holds 16*M^2 bytes and, if marked
    "real", a zero imaginary part."""
    if not os.path.isfile(path):  # checked first, so the error names PATH, not PATH.json
        raise FileNotFoundError(f"{path}: no such field data file")
    grid, real = _read_sidecar(path)
    M = grid.M
    size = os.path.getsize(path)
    if size != 16 * M * M:
        raise ValueError(f"{path}: {size} bytes, expected 16*M^2 = {16 * M * M} for M = {M}")
    values = np.fromfile(path, dtype="<c16").reshape(M, M)
    if real:
        if np.any(values.imag != 0.0):
            raise ValueError(f"{path}: field marked real has a nonzero imaginary part")
        values = np.ascontiguousarray(values.real)
    return GridField._own(grid, values)
