"""Desk grids: stencil accuracy, quadrature, masks, and field file I/O."""

import numpy as np
import pytest

from cssol.grid import (
    Grid,
    GridField,
    curl,
    deriv,
    divergence,
    gradient,
    integrate,
    integrate_disk,
    interior_mask,
    laplacian,
    load_field,
    quadrature,
    save_field,
)


def test_grid_geometry():
    g = Grid(8.0, 256)
    assert g.h == pytest.approx(16.0 / 255)
    assert len(g.axis) == 256
    assert g.axis[0] == -8.0 and g.axis[-1] == 8.0
    X, Y = g.mesh()
    assert X.shape == (256, 256)
    assert np.allclose(g.zmesh(), X + 1j * Y)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(-1.0, 64)
    with pytest.raises(ValueError):
        Grid(8.0, 0)


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
    g = Grid(6.0, 128)
    X, Y = g.mesh()
    f = GridField(g, X**2 + 3.0 * Y**2)
    lap = laplacian(f, 4).values
    mask = interior_mask(g, 4)
    assert np.max(np.abs(lap[mask] - 8.0)) < 1e-8


def test_gradient_curl_divergence_identities():
    g = Grid(6.0, 128)
    f = _gaussian(g)
    g1, g2 = gradient(f, 4)
    mask = interior_mask(g, 6)
    # curl grad = 0; div grad = laplacian
    c = curl(g1, g2, 4).values
    assert np.max(np.abs(c[mask])) < 1e-6
    # composed first-derivative stencils and the direct second-derivative
    # stencil agree to their shared truncation order
    d = divergence(g1, g2, 4).values
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


def test_field_shape_validation():
    with pytest.raises(ValueError):
        GridField(Grid(4.0, 16), np.zeros((8, 8)))


def test_one_sided_boundary_not_nan():
    g = Grid(4.0, 64)
    f = _gaussian(g)
    for order in (2, 4, 6, 8):
        assert np.all(np.isfinite(deriv(f, 1, order).values))
