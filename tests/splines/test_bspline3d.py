"""Tests for the periodic tricubic multi-orbital B-spline."""

import numpy as np
import pytest

from repro.lattice.cell import CrystalLattice
from repro.splines.bspline3d import BSpline3D, fit_periodic_coefs_1d


def _plane_wave_table(cell, grid, ks, phases):
    nx, ny, nz = grid
    fx, fy, fz = (np.arange(m) / m for m in grid)
    FX, FY, FZ = np.meshgrid(fx, fy, fz, indexing="ij")
    vals = np.stack(
        [np.cos(2 * np.pi * (k[0] * FX + k[1] * FY + k[2] * FZ) + p)
         for k, p in zip(ks, phases)], axis=-1)
    return vals


@pytest.fixture
def spline_setup():
    cell = np.diag([4.0, 5.0, 6.0])
    grid = (14, 16, 18)
    ks = np.array([[0, 0, 0], [1, 0, 0], [0, 1, -1], [2, 1, 0]])
    phases = np.array([0.0, 0.3, 0.7, 1.1])
    vals = _plane_wave_table(cell, grid, ks, phases)
    sp = BSpline3D.fit(vals, np.linalg.inv(cell), dtype=np.float64)
    return cell, grid, ks, phases, vals, sp


class TestFitting:
    def test_1d_periodic_interpolation_exact(self):
        n = 16
        data = np.sin(2 * np.pi * np.arange(n) / n) + 0.2
        c = fit_periodic_coefs_1d(data)
        # Interpolation relation: (c[j-1] + 4 c[j] + c[j+1]) / 6 == data[j].
        recon = (np.roll(c, 1) + 4 * c + np.roll(c, -1)) / 6.0
        assert np.allclose(recon, data, atol=1e-12)

    def test_grid_point_exactness(self, spline_setup):
        cell, grid, ks, phases, vals, sp = spline_setup
        fx, fy, fz = (np.arange(m) / m for m in grid)
        for (i, j, k) in [(0, 0, 0), (3, 7, 11), (13, 15, 17)]:
            r = np.array([fx[i], fy[j], fz[k]]) @ cell
            assert np.allclose(sp.multi_v(r), vals[i, j, k], atol=1e-9)

    def test_offgrid_accuracy(self, spline_setup):
        cell, grid, ks, phases, vals, sp = spline_setup
        rng = np.random.default_rng(3)
        for _ in range(10):
            r = rng.uniform(0, 1, 3) @ cell
            frac = r @ np.linalg.inv(cell)
            exact = np.cos(2 * np.pi * (ks @ frac) + phases)
            assert np.allclose(sp.multi_v(r), exact, atol=2e-2)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            BSpline3D(np.zeros((4, 4, 4)), np.eye(3))
        with pytest.raises(ValueError):
            BSpline3D(np.zeros((2, 4, 4, 3)), np.eye(3))

    def test_table_bytes_precision(self, spline_setup):
        cell, grid, ks, phases, vals, _ = spline_setup
        inv = np.linalg.inv(cell)
        s32 = BSpline3D.fit(vals, inv, dtype=np.float32)
        s64 = BSpline3D.fit(vals, inv, dtype=np.float64)
        assert s64.table_bytes == 2 * s32.table_bytes


class TestDerivatives:
    def test_gradient_matches_fd(self, spline_setup):
        cell, grid, ks, phases, vals, sp = spline_setup
        r = np.array([1.234, 2.345, 3.456])
        v0, g, h = sp.multi_vgh(r)
        eps = 1e-5
        for d in range(3):
            dr = np.zeros(3)
            dr[d] = eps
            fd = (sp.multi_v(r + dr) - sp.multi_v(r - dr)) / (2 * eps)
            assert np.allclose(g[:, d], fd, atol=1e-5)

    def test_hessian_matches_fd(self, spline_setup):
        cell, grid, ks, phases, vals, sp = spline_setup
        r = np.array([1.234, 2.345, 3.456])
        v0, g, h = sp.multi_vgh(r)
        eps = 1e-4
        for d in range(3):
            dr = np.zeros(3)
            dr[d] = eps
            fd = (sp.multi_v(r + dr) - 2 * v0 + sp.multi_v(r - dr)) / eps ** 2
            assert np.allclose(h[:, d, d], fd, atol=1e-3)

    def test_hessian_symmetric(self, spline_setup):
        *_, sp = spline_setup
        _, _, h = sp.multi_vgh(np.array([0.5, 1.5, 2.5]))
        assert np.allclose(h, np.transpose(h, (0, 2, 1)))

    def test_vgl_is_trace(self, spline_setup):
        *_, sp = spline_setup
        r = np.array([0.9, 1.1, 0.4])
        v, g, lap = sp.multi_vgl(r)
        v2, g2, h = sp.multi_vgh(r)
        assert np.allclose(lap, np.trace(h, axis1=1, axis2=2))

    def test_nonorthorhombic_gradient(self):
        cell = np.array([[4.0, 0.8, 0.0], [0.0, 5.0, 0.5], [0.3, 0.0, 6.0]])
        grid = (12, 12, 12)
        ks = np.array([[1, 0, 0], [0, 1, 1]])
        vals = _plane_wave_table(cell, grid, ks, np.zeros(2))
        sp = BSpline3D.fit(vals, np.linalg.inv(cell), dtype=np.float64)
        r = np.array([1.0, 2.0, 3.0])
        _, g, _ = sp.multi_vgh(r)
        eps = 1e-5
        for d in range(3):
            dr = np.zeros(3)
            dr[d] = eps
            fd = (sp.multi_v(r + dr) - sp.multi_v(r - dr)) / (2 * eps)
            assert np.allclose(g[:, d], fd, atol=1e-5)


class TestLayoutEquivalence:
    def test_ref_v_matches_multi_v(self, spline_setup):
        *_, sp = spline_setup
        rng = np.random.default_rng(5)
        for _ in range(5):
            r = rng.uniform(0, 4, 3)
            assert np.allclose(sp.ref_v(r), sp.multi_v(r), atol=1e-12)

    def test_ref_vgh_matches_multi_vgh(self, spline_setup):
        *_, sp = spline_setup
        r = np.array([2.2, 3.3, 4.4])
        v1, g1, h1 = sp.ref_vgh(r)
        v2, g2, h2 = sp.multi_vgh(r)
        assert np.allclose(v1, v2, atol=1e-12)
        assert np.allclose(g1, g2, atol=1e-12)
        assert np.allclose(h1, h2, atol=1e-12)

    def test_single_v(self, spline_setup):
        *_, sp = spline_setup
        r = np.array([0.1, 0.2, 0.3])
        full = sp.multi_v(r)
        for m in range(sp.norb):
            assert sp.single_v(r, m) == pytest.approx(full[m], abs=1e-12)

    def test_periodic_wrap(self, spline_setup):
        cell, grid, ks, phases, vals, sp = spline_setup
        r = np.array([1.0, 2.0, 3.0])
        shifted = r + cell[0] * 2 - cell[2]
        assert np.allclose(sp.multi_v(r), sp.multi_v(shifted), atol=1e-9)


@pytest.fixture(scope="module")
def skewed_fp32():
    """A non-orthogonal cell and a single-precision table: the chain
    rule mixes axes, and the fp64 contraction reads fp32 coefficients."""
    cell = np.array([[4.0, 0.8, 0.0], [0.0, 5.0, 0.5], [0.3, 0.0, 6.0]])
    ks = np.array([[0, 0, 0], [1, 0, 0], [0, 1, -1], [1, 1, 1], [2, 0, 1]])
    vals = _plane_wave_table(cell, (14, 16, 18), ks, 0.4 * np.arange(5))
    return cell, BSpline3D.fit(vals, np.linalg.inv(cell), dtype=np.float32)


class TestStencilGemm:
    """The GEMM kernels: ``multi_vgl`` folds the Laplacian into its
    stencil weights instead of forming Hessians."""

    POINTS = np.random.default_rng(11).uniform(-3.0, 9.0, (6, 3))

    def test_vgl_is_trace_of_vgh(self, skewed_fp32):
        _, sp = skewed_fp32
        for r in self.POINTS:
            v, g, lap = sp.multi_vgl(r)
            v2, g2, h = sp.multi_vgh(r)
            trace = np.trace(h, axis1=1, axis2=2)
            scale = np.max(np.abs(trace))
            np.testing.assert_allclose(lap, trace, rtol=1e-12,
                                       atol=1e-12 * scale)
            np.testing.assert_allclose(v, v2, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(g, g2, rtol=1e-12, atol=1e-13)

    def test_vgl_laplacian_matches_fd(self, skewed_fp32):
        _, sp = skewed_fp32
        eps = 1e-3
        for r in self.POINTS[:3]:
            v0, _, lap = sp.multi_vgl(r)
            fd = sum(sp.multi_v(r + eps * e) - 2 * v0 + sp.multi_v(r - eps * e)
                     for e in np.eye(3)) / eps ** 2
            np.testing.assert_allclose(lap, fd, atol=1e-4)

    def test_vgl_gradient_matches_fd(self, skewed_fp32):
        _, sp = skewed_fp32
        eps = 1e-5
        r = self.POINTS[0]
        _, g, _ = sp.multi_vgl(r)
        for d, e in enumerate(np.eye(3)):
            fd = (sp.multi_v(r + eps * e) - sp.multi_v(r - eps * e)) / (2 * eps)
            np.testing.assert_allclose(g[:, d], fd, atol=1e-6)

    def test_multi_v_matches_ref_v(self, skewed_fp32):
        _, sp = skewed_fp32
        for r in self.POINTS:
            np.testing.assert_allclose(sp.multi_v(r), sp.ref_v(r),
                                       rtol=1e-12, atol=1e-14)

    def test_vgh_matches_ref_vgh(self, skewed_fp32):
        _, sp = skewed_fp32
        r = self.POINTS[1]
        for got, want in zip(sp.multi_vgh(r), sp.ref_vgh(r)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_batched_values_match_per_point(self, skewed_fp32):
        """The NLPP slab's batched matmul against per-point ``multi_v``
        on an fp32 table: the same stencil rows, the same fp64 GEMM."""
        from repro.backend.numpy_backend import NumpyBackend
        _, sp = skewed_fp32
        r = np.random.default_rng(12).uniform(-3.0, 9.0, (40, 3))
        v = NumpyBackend().spline3d_v(sp.coefs, sp.cell_inverse,
                                      (sp.nx, sp.ny, sp.nz), r)
        assert v.dtype == np.float64 and v.shape == (40, sp.norb)
        for w in range(r.shape[0]):
            np.testing.assert_allclose(v[w], sp.multi_v(r[w]), rtol=1e-12,
                                       atol=1e-14)
