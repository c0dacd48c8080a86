"""Walker-batched B-spline SPO kernels — bitwise contracts.

``spline3d_v``/``spline3d_vgl``/``spline3d_vgh`` are the per-walker
``BSpline3D.multi_v``/``multi_vgl``/``multi_vgh`` stencil GEMMs with a
walker axis: the same locate, weights, vgl fold and chain rule, and per
walker the same (k, 64) @ (64, m) product.  So each walker's row equals
the per-point call **bitwise**, on fp64 and fp32 tables and skewed
cells, and does not depend on the batch it rides in.
"""

import numpy as np
import pytest

from repro.backend import use_backend
from repro.backend.numpy_backend import NumpyBackend
from repro.batched.spo import (batched_multi_v, batched_multi_vgh,
                               batched_multi_vgl)
from repro.metrics.registry import METRICS
from repro.splines.bspline3d import BSpline3D

CELLS = {
    "orthorhombic": np.diag([4.0, 5.0, 6.0]),
    "skewed": np.array([[4.0, 0.0, 0.0], [0.3, 5.0, 0.0], [0.0, 0.2, 6.0]]),
}
KERNELS = {"v": (batched_multi_v, "multi_v"),
           "vgl": (batched_multi_vgl, "multi_vgl"),
           "vgh": (batched_multi_vgh, "multi_vgh")}


def _spline(norb, cell="skewed", dtype=np.float64, seed=13):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(6, 7, 8, norb))
    return BSpline3D.fit(vals, np.linalg.inv(CELLS[cell]), dtype=dtype)


def _points(W, seed=14):
    return np.random.default_rng(seed).uniform(-2.0, 8.0, (W, 3))


def _outputs(kernel, spline, r):
    out = KERNELS[kernel][0](spline, r)
    return out if isinstance(out, tuple) else (out,)


@pytest.fixture(scope="module")
def spline():
    return _spline(10)


@pytest.fixture(scope="module")
def points():
    return _points(7)


class TestBatchedEqualsPerPoint:
    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    @pytest.mark.parametrize("norb", [10, 37])
    @pytest.mark.parametrize("W", [1, 7, 32])
    @pytest.mark.parametrize("cell", sorted(CELLS))
    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["fp64", "fp32"])
    def test_bitwise(self, kernel, norb, W, cell, dtype):
        sp = _spline(norb, cell, dtype)
        r = _points(W)
        batched = _outputs(kernel, sp, r)
        per_point = getattr(sp, KERNELS[kernel][1])
        for w in range(W):
            want = per_point(r[w])
            want = want if isinstance(want, tuple) else (want,)
            for got, exp in zip(batched, want):
                np.testing.assert_array_equal(got[w], exp)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_batch_width_independence(self, spline, kernel):
        r = _points(32)
        full = _outputs(kernel, spline, r)
        for lo, hi in ((0, 16), (16, 32), (5, 6), (3, 29)):
            for a, b in zip(full, _outputs(kernel, spline, r[lo:hi])):
                np.testing.assert_array_equal(a[lo:hi], b)

    @pytest.mark.parametrize("kernel", sorted(KERNELS))
    def test_ops_totals_equal_per_point_calls(self, spline, points, kernel):
        """One W-point call records the flops and bytes of W per-point
        calls on the open scope."""
        with METRICS.profile_run("batched") as batched:
            _outputs(kernel, spline, points)
        with METRICS.profile_run("per-point") as per_point:
            for r in points:
                getattr(spline, KERNELS[kernel][1])(r)
        assert batched.ops["Other"].flops > 0
        assert batched.ops == per_point.ops


class TestDerivativeRelations:
    def test_value_and_gradient_match_vgl_bitwise(self, spline, points):
        """The value channel is the same stencil row in both kernels;
        the vgl gradient comes from the fold, which carries the grid
        scaling and the cell rotation in its weights, so it agrees with
        the vgh chain rule to rounding only."""
        v, g, _ = batched_multi_vgh(spline, points)
        lv, lg, _ = batched_multi_vgl(spline, points)
        np.testing.assert_array_equal(v, lv)
        np.testing.assert_allclose(g, lg, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(g)))

    def test_laplacian_is_hessian_trace(self, spline, points):
        _, _, h = batched_multi_vgh(spline, points)
        _, _, lap = batched_multi_vgl(spline, points)
        np.testing.assert_allclose(np.trace(h, axis1=2, axis2=3), lap,
                                   rtol=1e-12, atol=1e-12)

    def test_hessian_is_symmetric(self, spline, points):
        # h[i,j] and h[j,i] rotate the same grid-frame Hessian in a
        # different summation order: symmetric to rounding
        _, _, h = batched_multi_vgh(spline, points)
        np.testing.assert_allclose(h, np.swapaxes(h, 2, 3),
                                   rtol=1e-12, atol=1e-12)


class TestBackendDispatch:
    def test_active_backend_used(self, spline, points):
        # batched_multi_vgh goes through the seam, not a direct call
        class Seen(NumpyBackend):
            calls = 0

            def spline3d_vgh(self, *args):
                Seen.calls += 1
                return super().spline3d_vgh(*args)

        with use_backend(Seen()):
            v, _, _ = batched_multi_vgh(spline, points)
        assert Seen.calls == 1
        for w in range(points.shape[0]):
            np.testing.assert_array_equal(v[w],
                                          spline.multi_vgh(points[w])[0])
