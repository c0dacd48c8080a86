"""Tests for VectorSoaContainer — the paper's central SoA container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.containers.aligned import padded_size
from repro.containers.tinyvector import TinyVector
from repro.containers.vsc import VectorSoaContainer


class TestConstruction:
    def test_shape_and_padding(self):
        v = VectorSoaContainer(10, 3, np.float64)
        assert v.n == 10
        assert v.np == padded_size(10, np.float64)
        assert v.data.shape == (3, v.np)

    def test_padding_zeroed(self):
        v = VectorSoaContainer(5, 3, np.float64)
        assert np.all(v.data[:, 5:] == 0)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            VectorSoaContainer(-1, 3)
        with pytest.raises(ValueError):
            VectorSoaContainer(4, 0)


class TestAccess:
    def test_roundtrip_aos_ndarray(self):
        rng = np.random.default_rng(0)
        aos = rng.normal(size=(7, 3))
        v = VectorSoaContainer(7, 3).copy_in(aos)
        assert np.allclose(v.data[:, :7].T, aos)

    def test_roundtrip_tinyvectors(self):
        tvs = [TinyVector([i, i + 0.5, -i]) for i in range(4)]
        v = VectorSoaContainer(4, 3).copy_in(tvs)
        for i, tv in enumerate(tvs):
            assert np.allclose(v[i], tv.x)

    def test_getitem_setitem(self):
        v = VectorSoaContainer(3, 3)
        v.copy_in(np.zeros((3, 3)))
        v[1] = [1.0, 2.0, 3.0]
        assert np.allclose(v[1], [1, 2, 3])
        assert np.allclose(v[0], 0)

    def test_index_bounds(self):
        v = VectorSoaContainer(3, 3)
        with pytest.raises(IndexError):
            v[3]
        with pytest.raises(IndexError):
            v[-4] = [0, 0, 0]

    def test_row_excludes_padding(self):
        v = VectorSoaContainer(5, 3)
        v.copy_in(np.ones((5, 3)))
        assert v.row(0).shape == (5,)

    def test_rows_are_views(self):
        v = VectorSoaContainer(5, 3)
        v.copy_in(np.zeros((5, 3)))
        v.row(2)[0] = 7.0
        assert v[0][2] == 7.0

    def test_shape_mismatch_raises(self):
        v = VectorSoaContainer(5, 3)
        with pytest.raises(ValueError):
            v.copy_in(np.zeros((4, 3)))
        with pytest.raises(ValueError):
            v.copy_in([TinyVector.zeros(3)] * 4)


class TestTransforms:
    def test_astype(self):
        rng = np.random.default_rng(1)
        aos = rng.normal(size=(6, 3))
        v = VectorSoaContainer(6, 3).copy_in(aos)
        w = v.astype(np.float32)
        assert w.dtype == np.float32
        assert np.allclose(w.data[:, :6].T, aos, atol=1e-6)

    def test_copy_independent(self):
        v = VectorSoaContainer(4, 3)
        v.copy_in(np.ones((4, 3)))
        w = v.copy()
        w[0] = [9, 9, 9]
        assert np.allclose(v[0], 1)

    def test_nbytes_includes_padding(self):
        v = VectorSoaContainer(5, 3, np.float64)
        assert v.nbytes == 3 * v.np * 8

    @settings(max_examples=25)
    @given(st.integers(1, 64), st.integers(1, 4))
    def test_roundtrip_property(self, n, d):
        rng = np.random.default_rng(n * 10 + d)
        aos = rng.normal(size=(n, d))
        v = VectorSoaContainer(n, d).copy_in(aos)
        assert np.allclose(v.data[:, :n].T, aos)
        for i in range(0, n, max(1, n // 5)):
            assert np.allclose(v[i], aos[i])
