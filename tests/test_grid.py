"""Desk grids: stencil accuracy, quadrature, masks, and field file I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cssol import grid, poly
from cssol.grid import (
    _D1,
    _D2,
    Grid,
    GridField,
    deriv,
    gradient,
    integrate,
    interior_mask,
    laplacian,
    load_field,
    quadrature,
    save_field,
    trapezoid,
)
from cssol.kernels import a_star, superpotential, vector_potential
from cssol.sampling import _separated_roots, haar_su2
from cssol.soliton import LiouvilleSolution, Soliton
from cssol.wronskian_pairs import WronskianPair


def test_grid_geometry():
    g = Grid(8.0, 256)
    assert g.h == pytest.approx(16.0 / 255)
    assert len(g.axis) == 256
    assert g.axis[0] == -8.0 and g.axis[-1] == 8.0
    X, Y = g.mesh()
    assert X.shape == (256, 256)
    assert np.allclose(g.zmesh(), X + 1j * Y)


def _deg4_pair(seed=4):
    rng = np.random.default_rng(seed)
    P0 = poly.from_roots(_separated_roots(rng, 4))
    P, Q = poly.act(haar_su2(rng), (P0, poly.ComplexPolynomial([3.0j])))
    return WronskianPair(P, Q)


@pytest.mark.parametrize("M", [16, 130, 1024])
def test_sample_is_bit_identical_to_the_full_mesh(M):
    # 130 rows are not a whole number of blocks
    g = Grid(12.0, M)
    pair = _deg4_pair()
    sol = LiouvilleSolution(pair)
    for fn in (Soliton(pair).u, sol.rhs, sol.psi):
        got, want = g.sample(fn), GridField(g, fn(g.zmesh()))
        assert got.values.dtype == want.values.dtype
        assert np.array_equal(got.values, want.values)
        assert not got.values.flags.writeable


def test_zmesh_is_bit_identical_to_x_plus_iy():
    g = Grid(8.0, 130)
    X, Y = g.mesh()
    assert np.array_equal(g.zmesh(), X + 1j * Y)


def test_sample_keeps_real_and_complex_dtypes():
    g = Grid(8.0, 130)
    assert g.sample(np.abs).is_real
    assert not g.sample(np.conj).is_real
    assert g.sample(np.conj).values.dtype == complex


@pytest.mark.parametrize("fn", [lambda z: 1.0, lambda z: z[:, :-1], lambda z: z.ravel()],
                         ids=["scalar", "short rows", "flat"])
def test_sample_rejects_a_result_of_another_shape(fn):
    with pytest.raises(ValueError, match="shape"):
        Grid(8.0, 130).sample(fn)


def test_sample_rejects_complex_blocks_after_real_ones():
    # a later block that turns complex is not truncated to the first block's reals
    with pytest.raises(ValueError, match="dtype"):
        Grid(8.0, 1024).sample(lambda z: z if np.any(z.real > 0) else np.abs(z))


def test_sample_rejects_non_finite_values():
    with pytest.raises(ValueError, match="non-finite"):
        Grid(8.0, 1024).sample(lambda z: np.where(z.real > 7.0, np.inf, z.real))


def test_sample_keeps_temporaries_to_a_block(traced_peak):
    # the sampled soliton needs its 16 MiB output and block-sized scratch,
    # not full-grid temporaries
    g, pair = Grid(40.0, 1024), _deg4_pair()
    u, peak = traced_peak(lambda: Soliton(pair).sample(g))
    assert peak < u.values.nbytes + 4 * 2**20


def test_liouville_sample_keeps_temporaries_to_a_block(traced_peak):
    g, pair = Grid(40.0, 1024), _deg4_pair()
    (psi, rhs), peak = traced_peak(lambda: LiouvilleSolution(pair).sample(g))
    assert peak < psi.values.nbytes + rhs.values.nbytes + 4 * 2**20


@pytest.mark.parametrize("which", ["rhs", "u"])
def test_pointwise_sample_keeps_temporaries_to_a_block(traced_peak, which):
    # the pointwise closed forms run on one block of rows at a time
    g, pair = Grid(40.0, 1024), _deg4_pair()
    fn = LiouvilleSolution(pair).rhs if which == "rhs" else Soliton(pair).u
    out, peak = traced_peak(lambda: g.sample(fn))
    assert peak < out.values.nbytes + 4 * 2**20


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(-1.0, 64)
    with pytest.raises(ValueError):
        Grid(8.0, 0)


@pytest.mark.parametrize("L", [float("nan"), float("inf")])
def test_grid_rejects_non_finite_extent(L):
    with pytest.raises(ValueError, match="extent"):
        Grid(L, 64)


def test_grid_equality_hash():
    assert Grid(8.0, 64) == Grid(8.0, 64)
    assert Grid(8.0, 64) != Grid(8.0, 128)
    assert hash(Grid(8.0, 64)) == hash(Grid(8.0, 64))


def _gaussian(g):
    X, Y = g.mesh()
    return GridField(g, np.exp(-(X**2 + Y**2) / 2.0))


def test_deriv_orders_converge():
    g = Grid(8.0, 256)
    X, _ = g.mesh()
    f = GridField(g, np.sin(X))
    want = np.cos(X)
    mask = interior_mask(g, 6)
    errs = []
    for order in (2, 4, 6, 8):
        got = deriv(f, 0, order).values
        errs.append(np.max(np.abs(got - want)[mask]))
    assert errs[0] > errs[1] > errs[2]
    assert errs[3] < 1e-10


def test_laplacian_of_quadratic():
    # every stencil, the one-sided ones too, is exact on quadratics, so every
    # node reads 8: the edges of the boundary ring keep the central term
    # along the edge
    g = Grid(6.0, 64)
    X, Y = g.mesh()
    f = GridField(g, X**2 + 3.0 * Y**2)
    for order in (2, 4, 6, 8):
        lap = laplacian(f, order).values
        assert np.max(np.abs(lap - 8.0)) < 1e-8


def test_gradient_curl_divergence_identities():
    g = Grid(6.0, 128)
    f = _gaussian(g)
    g1, g2 = gradient(f, 4)
    mask = interior_mask(g, 6)
    # curl grad = d1 g2 - d2 g1 = 0; div grad = d1 g1 + d2 g2 = laplacian
    c = deriv(g2, 0, 4).values - deriv(g1, 1, 4).values
    assert np.max(np.abs(c[mask])) < 1e-6
    # composed first-derivative stencils and the direct second-derivative
    # stencil agree to their shared truncation order
    d = deriv(g1, 0, 4).values + deriv(g2, 1, 4).values
    lap = laplacian(f, 4).values
    assert np.max(np.abs((d - lap)[mask])) < 5e-4


def test_integrate_gaussian_mass():
    g = Grid(10.0, 256)
    assert integrate(_gaussian(g)) == pytest.approx(2.0 * np.pi, rel=1e-8)


def test_quadrature_powers():
    g = Grid(10.0, 256)
    f = _gaussian(g)
    assert quadrature(f, 2) == pytest.approx(np.pi, rel=1e-8)
    assert quadrature(f, 4) == pytest.approx(np.pi / 2.0, rel=1e-8)


def _fsum_trapezoid(grid: Grid, values: np.ndarray):
    """The trapezoid of values summed exactly (math.fsum), real and imaginary parts apart."""
    w = np.ones(grid.M)
    w[0] = w[-1] = 0.5
    terms = np.outer(w, w) * values
    re = math.fsum(terms.real.ravel()) * grid.h**2
    return complex(re, math.fsum(terms.imag.ravel()) * grid.h**2) if np.iscomplexobj(values) else re


def _fsum_quadrature(field: GridField, p: float) -> float:
    """The trapezoid of |values|^p summed exactly (math.fsum)."""
    return _fsum_trapezoid(field.grid, np.abs(field.values) ** p)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
def test_quadrature_matches_an_exact_sum(p, complex_values):
    # 130 rows are not a whole number of row blocks
    g = Grid(6.0, 130)
    X, Y = g.mesh()
    v = np.exp(-(X**2 + Y**2) / 4.0) * (1.0 + 0.5 * np.sin(2.0 * X) - 0.3 * Y)
    if complex_values:
        v = v * np.exp(1j * (X - 0.5 * Y))
    f = GridField(g, v)
    want = _fsum_quadrature(f, p)
    assert abs(quadrature(f, p) - want) <= 1e-13 * want
    assert quadrature(GridField(g, 0.0 * v), p) == 0.0


@pytest.mark.parametrize("complex_values", [False, True], ids=["real", "complex"])
def test_trapezoid_matches_an_exact_sum(complex_values):
    """integrate and a two-array trapezoid integrand agree with an exact sum
    on 130 rows, not a whole number of row blocks, to 1e-13 relative."""
    g = Grid(6.0, 130)
    X, Y = g.mesh()
    v = np.exp(-(X**2 + Y**2) / 4.0) * (1.0 + 0.5 * np.sin(2.0 * X) - 0.3 * Y)
    if complex_values:
        v = v * np.exp(1j * (X - 0.5 * Y))
    got = integrate(GridField(g, v))
    assert type(got) is (complex if complex_values else float)
    want = _fsum_trapezoid(g, v)
    assert abs(got - want) <= 1e-13 * abs(want)
    c = np.cos(Y)
    got = trapezoid(g, lambda a, b: a * b, v, c)
    want = _fsum_trapezoid(g, v * c)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_trapezoid_rejects_a_non_finite_integrand():
    g = Grid(6.0, 130)
    v = np.ones((g.M, g.M))

    def one_nan(x):
        x = x.copy()
        x[0, 3] = np.nan
        return x

    with pytest.raises(ValueError, match="^non-finite field values$"):
        trapezoid(g, one_nan, v)


def test_map_keeps_the_field_only_for_its_own_array():
    """np.real of a real field is the field itself, not a copy; of a complex
    field a new real field; a function's result is copied and checked."""
    g = Grid(4.0, 16)
    X, Y = g.mesh()
    f = GridField(g, X + Y)
    assert f.map(np.real) is f
    z = GridField(g, X + 1j * Y)
    r = z.map(np.real)
    assert r is not z and r.is_real and np.array_equal(r.values, X)
    doubled = f.map(lambda v: 2.0 * v)
    assert np.array_equal(doubled.values, 2.0 * (X + Y)) and not doubled.values.flags.writeable
    mine = np.array(f.values)
    copied = f.map(lambda v: mine)
    assert copied.values is not mine and np.array_equal(copied.values, mine)
    with pytest.raises(ValueError, match="non-finite"):
        f.map(lambda v: v + np.inf)


def test_quadrature_keeps_temporaries_to_a_block(traced_peak):
    # no |values| copy of the 16 MiB field, only block-sized scratch
    g = Grid(40.0, 1024)
    u = Soliton(_deg4_pair()).sample(g)
    for p in (2, 4):
        _, peak = traced_peak(lambda: quadrature(u, p))
        assert peak < 2**20


def integrate_disk(field: GridField, radius: float) -> float:
    """Plain cell-sum integral restricted to |z| <= radius."""
    X, Y = field.grid.mesh()
    mask = X * X + Y * Y <= radius * radius
    return float(np.sum(field.values.real[mask]) * field.grid.h ** 2)


def test_integrate_disk():
    g = Grid(10.0, 512)
    X, Y = g.mesh()
    one = GridField(g, np.ones_like(X))
    assert integrate_disk(one, 2.0) == pytest.approx(np.pi * 4.0, rel=5e-3)


def test_interior_mask_counts():
    g = Grid(4.0, 16)
    m = interior_mask(g, 3)
    assert m.sum() == (16 - 6) ** 2
    assert not m[0, 0] and m[8, 8]


def test_field_io_roundtrip(tmp_path):
    g = Grid(5.0, 32)
    rng = np.random.default_rng(1)
    f = GridField(g, rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32)))
    path = str(tmp_path / "field.npz")
    save_field(f, path)
    back = load_field(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_field_file_is_interleaved_little_endian_pairs(tmp_path):
    """The file is the (re, im) <f8 pairs of each node in row-major order, a
    real field's with zero imaginary parts, and reads back bit for bit
    (signed zeros included)."""
    g = Grid(5.0, 16)
    rng = np.random.default_rng(2)
    re, im = rng.normal(size=(2, 16, 16))
    im[0, :3] = (0.0, -0.0, 0.0)
    z = np.empty((16, 16), complex)  # re + 1j * im would turn -0.0 into 0.0
    z.real, z.imag = re, im
    for values, want_im in ((z, im), (re, np.zeros_like(re))):
        path = str(tmp_path / "field.f8")
        save_field(GridField(g, values), path)
        pairs = np.stack([re, want_im], axis=-1).astype("<f8")
        with open(path, "rb") as fh:
            assert fh.read() == pairs.tobytes()
        back = load_field(path).values
        assert back.dtype == values.dtype and back.tobytes() == values.tobytes()


def test_field_io_holds_one_copy_of_a_complex_field(tmp_path, traced_peak):
    """Saving or loading an M = 256 complex field allocates at most 1.1 of
    its 16 M^2 bytes: no interleave buffer and no conversion copy."""
    M = 256
    g = Grid(10.0, M)
    rng = np.random.default_rng(3)
    f = GridField(g, rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M)))
    path = str(tmp_path / "field.f8")
    _, save_peak = traced_peak(lambda: save_field(f, path))
    back, load_peak = traced_peak(lambda: load_field(path))
    assert np.array_equal(back.values, f.values)
    assert max(save_peak, load_peak) <= 1.1 * 16 * M * M


def test_load_field_rejects_wrong_byte_length(tmp_path):
    g = Grid(5.0, 32)
    path = str(tmp_path / "field.f8")
    save_field(GridField(g, np.ones((32, 32))), path)
    with open(path, "r+b") as fh:
        fh.truncate(16 * 32 * 32 - 8)
    with pytest.raises(ValueError, match="bytes"):
        load_field(path)


def test_load_field_rejects_imaginary_part_in_real_file(tmp_path):
    g = Grid(5.0, 32)
    path = str(tmp_path / "field.f8")
    save_field(GridField(g, np.ones((32, 32))), path)
    raw = np.fromfile(path, dtype="<f8")
    raw[1] = 1e-3  # imaginary part of the first node
    raw.tofile(path)
    with pytest.raises(ValueError, match="imaginary"):
        load_field(path)


@pytest.mark.parametrize("meta, match", [
    ({"L": 4.0}, "grid size M"),
    ([4.0, 16], "not a JSON object"),
    ({"L": 4.0, "M": 16.7, "kind": "real"}, "grid size M"),
    ({"L": 4.0, "M": "16", "kind": "real"}, "grid size M"),
    ({"L": "4", "M": 16, "kind": "real"}, "extent"),
    ({"L": 4.0, "M": 16, "kind": "reel"}, "kind"),
    ({"L": 4.0, "M": 16}, "kind"),
    ({"L": 4.0, "M": 17, "kind": "real"}, "even"),
])
def test_load_field_rejects_bad_sidecar(tmp_path, meta, match):
    path = str(tmp_path / "field.f8")
    save_field(GridField(Grid(4.0, 16), np.ones((16, 16))), path)
    with open(path + ".json", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(ValueError, match=match) as err:
        load_field(path)
    assert path in str(err.value)


def test_load_field_checks_the_size_before_building_the_grid(tmp_path, traced_peak):
    """The sidecar's M costs nothing before the file's size is checked: a
    16-byte file whose sidecar says M = 2^22 is refused for its size without
    the grid's 32 MiB node axis."""
    path = str(tmp_path / "field.f8")
    np.zeros(1, "<c16").tofile(path)
    with open(path + ".json", "w") as fh:
        json.dump({"L": 4.0, "M": 2**22, "kind": "complex"}, fh)

    def load():
        with pytest.raises(ValueError, match="bytes") as err:
            load_field(path)
        return err

    err, peak = traced_peak(load)
    assert path in str(err.value)
    assert peak < 2**20


def test_load_field_rejects_non_finite_extent(tmp_path):
    path = str(tmp_path / "field.f8")
    save_field(GridField(Grid(5.0, 32), np.ones((32, 32))), path)
    with open(path + ".json", "w") as fh:
        json.dump({"L": float("nan"), "M": 32, "kind": "real"}, fh)
    with pytest.raises(ValueError, match="extent"):
        load_field(path)


def test_field_shape_validation():
    with pytest.raises(ValueError):
        GridField(Grid(4.0, 16), np.zeros((8, 8)))


def test_one_sided_boundary_not_nan():
    g = Grid(4.0, 64)
    f = _gaussian(g)
    for order in (2, 4, 6, 8):
        assert np.all(np.isfinite(deriv(f, 1, order).values))


def test_field_copies_and_freezes_its_input():
    g = Grid(4.0, 16)
    raw = np.ones((16, 16))
    f = GridField(g, raw)
    raw[0, 0] = 5.0
    assert f.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        f.values[0, 0] = 2.0
    raw[1, 1] = np.nan
    with pytest.raises(ValueError, match="non-finite field values"):
        GridField(g, raw)


def test_computed_fields_are_read_only_and_do_not_alias_inputs():
    g = Grid(6.0, 64)
    f = _gaussian(g)
    outs = [deriv(f, 0), deriv(f, 1), laplacian(f), superpotential(f),
            *vector_potential(f), a_star(f, f)]
    for out in outs:
        assert out.grid == g and out.values.shape == (64, 64)
        assert not out.values.flags.writeable
        assert not np.shares_memory(out.values, f.values)
        with pytest.raises(ValueError):
            out.values[0, 0] = 1.0


def test_stencil_overflow_is_rejected():
    # alternating +-1e308: the interior pairs cancel, the one-sided ring
    # stencil overflows to -inf
    g = Grid(4.0, 16)
    f = GridField(g, 1e308 * (-1.0) ** np.add.outer(np.arange(16), np.arange(16)))
    with np.errstate(over="ignore", invalid="ignore"):
        for axis in (0, 1):
            with pytest.raises(ValueError, match="non-finite field values"):
                deriv(f, axis)
        with pytest.raises(ValueError, match="non-finite field values"):
            laplacian(f)


def _slab_axis_deriv(v, axis, k, order, h):
    """The slab form of grid._axis_deriv: the pairs on 2-D slabs cut along
    axis, before the stencil ran on the flattened array."""
    def cut(a, b):
        return (slice(a, b),) if axis == 0 else (slice(None), slice(a, b))

    coeffs, r = (_D1 if k == 1 else _D2)[order]
    n, combine = v.shape[axis], np.subtract if k == 1 else np.add
    out = np.empty(v.shape, np.result_type(v, np.float64))
    o = out[cut(r, n - r)]
    tmp = np.empty_like(o)
    for j in range(1, r + 1):
        pair = combine(v[cut(r + j, n - r + j)], v[cut(r - j, n - r - j)],
                       out=o if j == 1 else tmp)
        pair *= coeffs[r + j] / h**k
        if j > 1:
            o += pair
    if k == 2:
        o += np.multiply(v[cut(r, n - r)], coeffs[r] / h**2, out=tmp)
    out[cut(0, r)], out[cut(n - r, n)] = grid._ring(v, axis, r, k, h)
    return out


# (130, 256) runs in three blocks of BLOCK_NODES nodes, the last one short
@pytest.mark.parametrize("shape", [(16, 16), (24, 40), (40, 24), (128, 128), (130, 256)])
@pytest.mark.parametrize("complex_values", [False, True])
def test_axis_deriv_equals_the_slab_form(shape, complex_values):
    """Along axis 1 the flattened stencil mixes values across row ends only
    on the ring columns, which the one-sided stencil overwrites, and the
    blocks split no pair: every node has the slab form's bits, for both
    axes, k = 1, 2 and orders 2-8."""
    rng = np.random.default_rng(shape[0] * shape[1])
    v = rng.normal(size=shape)
    if complex_values:
        v = v + 1j * rng.normal(size=shape)
    for axis in (0, 1):
        for k in (1, 2):
            for order in (2, 4, 6, 8):
                got = grid._axis_deriv(v, axis, k, order, 0.37)
                want = _slab_axis_deriv(v, axis, k, order, 0.37)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)


# -- the stencils as applied term by term, kept as the reference -------------


def _ref_apply_1d(values, coeffs, radius, axis):
    """Apply a centered stencil along an axis; boundary ring left at zero."""
    out = np.zeros_like(values, dtype=complex if np.iscomplexobj(values) else float)
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    n = v.shape[0]
    for k, ck in enumerate(coeffs):
        s = k - radius
        if ck != 0.0:
            o[radius : n - radius] += ck * v[radius + s : n - radius + s]
    return out


def _ref_one_sided_d1(values, h, axis, out, radius):
    """2nd-order one-sided first derivative on the boundary ring."""
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    n = v.shape[0]
    for i in list(range(radius)) + list(range(n - radius, n)):
        if i < radius:
            o[i] = (-1.5 * v[i] + 2.0 * v[i + 1] - 0.5 * v[i + 2]) / h
        else:
            o[i] = (1.5 * v[i] - 2.0 * v[i - 1] + 0.5 * v[i - 2]) / h


def _ref_one_sided_d2(values, h, axis, out, radius):
    """2nd-order one-sided second derivative on the boundary ring."""
    v = np.moveaxis(values, axis, 0)
    o = np.moveaxis(out, axis, 0)
    n = v.shape[0]
    for i in list(range(radius)) + list(range(n - radius, n)):
        if i < radius:
            o[i] = (2.0 * v[i] - 5.0 * v[i + 1] + 4.0 * v[i + 2] - v[i + 3]) / h**2
        else:
            o[i] = (2.0 * v[i] - 5.0 * v[i - 1] + 4.0 * v[i - 2] - v[i - 3]) / h**2


def _ref_deriv(field, axis, order):
    coeffs, r = _D1[order]
    out = _ref_apply_1d(field.values, coeffs, r, axis) / field.grid.h
    _ref_one_sided_d1(field.values, field.grid.h, axis, out, r)
    return out


def _ref_second(field, axis, order):
    """Second derivative along axis, one-sided on that axis' ring."""
    coeffs, r = _D2[order]
    out = _ref_apply_1d(field.values, coeffs, r, axis) / field.grid.h ** 2
    _ref_one_sided_d2(field.values, field.grid.h, axis, out, r)
    return out


def _ref_laplacian(field, order):
    return _ref_second(field, 0, order) + _ref_second(field, 1, order)


def _ring_mask(M, r, axes):
    """Nodes within r of either end of any of the axes."""
    ring = np.zeros((M, M), dtype=bool)
    for axis in axes:
        band = np.zeros(M, dtype=bool)
        band[:r] = band[M - r :] = True
        ring |= band[:, None] if axis == 0 else band[None, :]
    return ring


STENCIL_SETTINGS = settings(max_examples=40, deadline=None)


@st.composite
def stencil_cases(draw):
    """(grid, order, axis, random field) with M in [16, 64]."""
    M = 2 * draw(st.integers(8, 32))
    g = Grid(draw(st.floats(1.0, 20.0)), M)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=(M, M)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    if draw(st.booleans()):
        values = values + 1j * rng.normal(size=(M, M))
    return g, draw(st.sampled_from([2, 4, 6, 8])), draw(st.sampled_from([0, 1])), values


@STENCIL_SETTINGS
@given(stencil_cases())
def test_stencils_match_term_by_term_reference(case):
    """Nodes with a central term agree to rounding; the nodes that are one-sided
    along every axis the operator differentiates agree exactly."""
    g, order, axis, values = case
    f = GridField(g, values)
    scale = np.max(np.abs(values))
    r = _D1[order][1]
    corners = _ring_mask(g.M, r, (0,)) & _ring_mask(g.M, r, (1,))
    for got, want, ring, k in (
        (deriv(f, axis, order), _ref_deriv(f, axis, order), _ring_mask(g.M, r, (axis,)), 1),
        (laplacian(f, order), _ref_laplacian(f, order), corners, 2),
    ):
        assert got.values.dtype == want.dtype
        assert np.array_equal(got.values[ring], want[ring])
        assert np.max(np.abs(got.values - want)[~ring]) <= 1e-14 * scale / g.h**k


COEFFICIENTS = st.floats(0.25, 3.0) | st.floats(-3.0, -0.25)


@STENCIL_SETTINGS
@given(stencil_cases(), COEFFICIENTS, COEFFICIENTS)
def test_stencils_are_linear(case, a, b):
    g, order, axis, values = case
    f, w = GridField(g, values), GridField(g, np.roll(values, 3, axis=axis) ** 2)
    both = GridField(g, a * f.values + b * w.values)
    scale = abs(a) * np.max(np.abs(f.values)) + abs(b) * np.max(np.abs(w.values))
    for op, k in ((lambda u: deriv(u, axis, order), 1), (lambda u: laplacian(u, order), 2)):
        combo = a * op(f).values + b * op(w).values
        assert np.max(np.abs(op(both).values - combo)) <= 1e-13 * scale / g.h**k


@STENCIL_SETTINGS
@given(stencil_cases())
def test_central_first_derivative_sums_by_parts(case):
    """sum f D1 g = -sum g D1 f for f, g vanishing on a border of width 2r."""
    g, order, axis, values = case
    r = _D1[order][1]
    inner = ~_ring_mask(g.M, 2 * r, (0, 1))
    f = GridField(g, np.where(inner, values, 0.0))
    w = GridField(g, np.where(inner, np.roll(values, 5, axis=1 - axis) ** 2, 0.0))
    df, dw = deriv(f, axis, order).values, deriv(w, axis, order).values
    scale = np.sum(np.abs(f.values * dw)) + np.sum(np.abs(w.values * df))
    assert abs(np.sum(f.values * dw) + np.sum(w.values * df)) <= 1e-14 * scale
