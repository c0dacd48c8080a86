"""Tests for CrystalLattice geometry and minimum-image kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.containers.tinyvector import TinyVector
from repro.lattice.cell import CrystalLattice


class TestConstruction:
    def test_cubic(self):
        lat = CrystalLattice.cubic(4.0)
        assert lat.periodic
        assert lat.volume == pytest.approx(64.0)

    def test_orthorhombic(self):
        lat = CrystalLattice.orthorhombic(2, 3, 4)
        assert lat.volume == pytest.approx(24.0)

    def test_open(self):
        lat = CrystalLattice.open_bc()
        assert not lat.periodic
        assert lat.volume == math.inf

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            CrystalLattice([[1, 0, 0], [2, 0, 0], [0, 0, 1]])

    def test_bad_shape_raises(self):
        with pytest.raises(ValueError):
            CrystalLattice([[1, 0], [0, 1]])


class TestCoordinates:
    def test_frac_cart_roundtrip(self):
        lat = CrystalLattice([[4, 0.5, 0], [0, 5, 0.2], [0.1, 0, 6]])
        r = np.array([[1.0, 2.0, 3.0], [0.1, 0.2, 0.3]])
        assert np.allclose(lat.to_cart(lat.to_frac(r)), r)

    def test_wrap_into_cell(self):
        lat = CrystalLattice.cubic(5.0)
        r = np.array([[7.0, -1.0, 12.5]])
        w = lat.wrap(r)
        s = lat.to_frac(w)
        assert np.all(s >= 0) and np.all(s < 1)
        # Wrapping preserves the point modulo lattice vectors.
        assert np.allclose(lat.min_image_disp(w - r), 0, atol=1e-9)

    def test_open_cell_wrap_identity(self):
        lat = CrystalLattice.open_bc()
        r = np.array([[100.0, -50.0, 3.0]])
        assert np.allclose(lat.wrap(r), r)

    def test_open_cell_frac_raises(self):
        lat = CrystalLattice.open_bc()
        with pytest.raises(ValueError):
            lat.to_frac(np.zeros(3))

    def test_reciprocal_orthogonality(self):
        lat = CrystalLattice([[4, 1, 0], [0, 5, 1], [1, 0, 6]])
        # a_i . b_j = 2 pi delta_ij
        prod = lat.axes @ lat.reciprocal.T
        assert np.allclose(prod, 2 * np.pi * np.eye(3))


class TestMinimumImage:
    def test_halfcell_maximum(self):
        lat = CrystalLattice.cubic(4.0)
        d = lat.min_image_disp(np.array([3.9, 0.0, 0.0]))
        assert d[0] == pytest.approx(-0.1)

    def test_dist_symmetric(self):
        lat = CrystalLattice.cubic(4.0)
        dr = np.array([1.7, -2.3, 3.1])
        assert lat.min_image_dist(dr) == pytest.approx(
            lat.min_image_dist(-dr))

    def test_vector_batch(self):
        lat = CrystalLattice.cubic(4.0)
        rng = np.random.default_rng(0)
        drs = rng.uniform(-10, 10, (20, 3))
        dists = lat.min_image_dist(drs)
        assert dists.shape == (20,)
        assert np.all(dists <= math.sqrt(3) * 2.0 + 1e-12)

    def test_open_cell_identity(self):
        lat = CrystalLattice.open_bc()
        dr = np.array([10.0, 20.0, 30.0])
        assert np.allclose(lat.min_image_disp(dr), dr)

    def test_scalar_matches_vector(self):
        lat = CrystalLattice([[4, 0, 0], [0, 5, 0], [0, 0, 6]])
        rng = np.random.default_rng(1)
        for _ in range(25):
            dr = rng.uniform(-12, 12, 3)
            vec = lat.min_image_disp(dr)
            scal = lat.min_image_disp_scalar(TinyVector(dr))
            assert np.allclose(vec, scal.x, atol=1e-12)
            assert lat.min_image_dist(dr) == pytest.approx(scal.norm())

    @settings(max_examples=50)
    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=3))
    def test_image_shorter_than_original(self, dr):
        lat = CrystalLattice.cubic(7.0)
        dr = np.array(dr)
        assert lat.min_image_dist(dr) <= np.linalg.norm(dr) + 1e-9

    @settings(max_examples=50)
    @given(st.lists(st.floats(-50, 50), min_size=3, max_size=3))
    def test_image_invariant_under_lattice_shift(self, dr):
        lat = CrystalLattice.cubic(7.0)
        dr = np.array(dr)
        shifted = dr + 7.0 * np.array([1, -2, 3])
        assert lat.min_image_dist(dr) == pytest.approx(
            lat.min_image_dist(shifted), abs=1e-9)

    def test_wigner_seitz_radius_cubic(self):
        assert CrystalLattice.cubic(4.0).wigner_seitz_radius == \
            pytest.approx(2.0)

    def test_wigner_seitz_radius_orthorhombic(self):
        assert CrystalLattice.orthorhombic(2, 6, 8).wigner_seitz_radius == \
            pytest.approx(1.0)
