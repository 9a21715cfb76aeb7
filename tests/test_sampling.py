"""Seeded random ensembles: reproducibility and structural guarantees."""

import numpy as np
import pytest

from cssol import poly
from cssol.grid import Grid, quadrature
from cssol.sampling import (
    haar_su2,
    normalized,
    random_pair,
    random_smooth_field,
)


def test_haar_su2_is_special_unitary():
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert haar_su2(rng).is_special_unitary(1e-12)


def test_random_pair_structure():
    rng = np.random.default_rng(1)
    for _ in range(10):
        pair = random_pair(rng, max_degree=4)
        assert 1 <= pair.max_degree <= 4
        assert poly.coprime(pair.P, pair.Q) and not pair.W.is_zero


def test_random_pair_reproducible():
    p1 = random_pair(np.random.default_rng(42))
    p2 = random_pair(np.random.default_rng(42))
    assert (p1.P - p2.P).norm() == 0.0
    assert (p1.Q - p2.Q).norm() == 0.0


def test_random_smooth_field_decay_and_seeding():
    g = Grid(16.0, 256)
    u1 = random_smooth_field(g, np.random.default_rng(5))
    u2 = random_smooth_field(g, np.random.default_rng(5))
    assert np.array_equal(u1.values, u2.values)
    # supported well inside the box: boundary ring is tiny
    edge = np.abs(np.concatenate([u1.values[0], u1.values[-1],
                                  u1.values[:, 0], u1.values[:, -1]]))
    assert edge.max() < 1e-3 * np.abs(u1.values).max()


def _mesh_smooth_field(grid, rng, min_width=1.0):
    """The sampler as written on the whole z mesh, one complex exp per node
    and bump, with its draws in the sampler's order."""
    Z = grid.zmesh()
    u = np.zeros_like(Z)
    for _ in range(4):
        center = grid.L / 4.0 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        width = rng.uniform(min_width, 2.5)
        amp = rng.standard_normal() + 1j * rng.standard_normal()
        k = 0.5 * (rng.standard_normal() + 1j * rng.standard_normal())
        d = Z - center
        u += amp * np.exp(-np.abs(d) ** 2 / (2.0 * width**2)
                          + 1j * (k.real * d.real + k.imag * d.imag))
    return u


@pytest.mark.parametrize("M", [256, 384])
def test_random_smooth_field_is_the_mesh_formula(M):
    """The outer products of the axis vectors are the bumps sampled on the
    whole mesh to within 1e-14 of max |u|, and the sampler leaves the rng
    where the mesh formula does."""
    g = Grid(16.0, M)
    for seed in range(6):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_smooth_field(g, rng, min_width=1.2).values
        want = _mesh_smooth_field(g, ref_rng, min_width=1.2)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_random_smooth_field_temporaries_are_bounded(traced_peak):
    """One field at 16,384 allocates at most 2.25 complex M x M fields,
    measured 2.12: the sum and one bump's outer product, plus the finite
    check's mask. The mesh formula held z, the sum, z - c and the
    exponent's temporaries: 5.06."""
    g = Grid(16.0, 384)
    random_smooth_field(g, np.random.default_rng(0))
    field, peak = traced_peak(lambda: random_smooth_field(g, np.random.default_rng(1)))
    assert peak <= 2.25 * field.values.nbytes


def test_normalized_unit_mass():
    g = Grid(16.0, 256)
    u = normalized(random_smooth_field(g, np.random.default_rng(6)))
    assert quadrature(u, 2) == pytest.approx(1.0, rel=1e-12)


def test_normalized_rejects_zero():
    g = Grid(8.0, 64)
    from cssol.grid import GridField

    with pytest.raises(ValueError):
        normalized(GridField(g, np.zeros((64, 64))))


def test_normalized_is_a_fresh_frozen_quotient():
    """normalized returns a new C-contiguous read-only array with the bits
    of v / sqrt(mass)."""
    g = Grid(16.0, 256)
    u = random_smooth_field(g, np.random.default_rng(7))
    got = normalized(u).values
    assert np.array_equal(got, u.values / np.sqrt(quadrature(u, 2)))
    assert not np.shares_memory(got, u.values)
    assert got.flags.c_contiguous and not got.flags.writeable
