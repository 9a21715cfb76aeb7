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


def test_normalized_unit_mass():
    g = Grid(16.0, 256)
    u = normalized(random_smooth_field(g, np.random.default_rng(6)))
    assert quadrature(u, 2) == pytest.approx(1.0, rel=1e-12)


def test_normalized_rejects_zero():
    g = Grid(8.0, 64)
    from cssol.grid import GridField

    with pytest.raises(ValueError):
        normalized(GridField(g, np.zeros((64, 64))))
