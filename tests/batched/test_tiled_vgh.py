"""Tile-blocked batched vgh kernel — bitwise exactness contracts.

The tentpole claim of docs/spline_memory.md: the tile-blocked
``spline3d_vgh_tiled`` kernel walks each 4x4x4 neighborhood once per
orbital tile and is **bitwise identical** to the flat per-channel path
(:func:`repro.backend.numpy_backend.flat_spline3d_vgh`) at every tile
size — the stacked-channel contraction keeps the per-element i,j,k
summation order and the (a*b)*c weight-product order of the flat
einsums exactly.
"""

import numpy as np
import pytest

from repro.backend import use_backend
from repro.backend.numpy_backend import NumpyBackend, flat_spline3d_vgh
from repro.batched.spo import (batched_multi_vgh, batched_multi_vgh_flat,
                               batched_multi_vgl)
from repro.splines.bspline3d import BSpline3D

NORB = 10
W = 7


@pytest.fixture(scope="module")
def spline():
    rng = np.random.default_rng(13)
    vals = rng.normal(size=(6, 7, 8, NORB))
    cell = np.array([[4.0, 0.0, 0.0], [0.3, 5.0, 0.0], [0.0, 0.2, 6.0]])
    return BSpline3D.fit(vals, np.linalg.inv(cell), dtype=np.float64)


@pytest.fixture(scope="module")
def points(spline):
    rng = np.random.default_rng(14)
    return rng.uniform(-2.0, 8.0, (W, 3))


class TestBitwiseExactness:
    @pytest.mark.parametrize("tile", [1, 2, 3, NORB, NORB + 5, 0, None])
    def test_tiled_equals_flat_for_every_tile_size(self, spline, points,
                                                   tile):
        fv, fg, fh = batched_multi_vgh_flat(spline, points)
        tv, tg, th = batched_multi_vgh(spline, points, tile=tile)
        np.testing.assert_array_equal(tv, fv)  # bitwise: no tolerance
        np.testing.assert_array_equal(tg, fg)
        np.testing.assert_array_equal(th, fh)

    def test_value_and_gradient_match_vgl_bitwise(self, spline, points):
        v, g, _ = batched_multi_vgh(spline, points, tile=4)
        lv, lg, _ = batched_multi_vgl(spline, points)
        np.testing.assert_array_equal(v, lv)
        np.testing.assert_array_equal(g, lg)

    def test_laplacian_is_hessian_trace(self, spline, points):
        _, _, h = batched_multi_vgh(spline, points, tile=4)
        _, _, lap = batched_multi_vgl(spline, points)
        np.testing.assert_allclose(np.trace(h, axis1=2, axis2=3), lap,
                                   rtol=1e-12, atol=1e-12)

    def test_hessian_is_symmetric(self, spline, points):
        # symmetric up to summation order: h[i,j] and h[j,i] contract
        # the same terms in different order (same as the flat path)
        _, _, h = batched_multi_vgh(spline, points, tile=3)
        np.testing.assert_allclose(h, np.swapaxes(h, 2, 3),
                                   rtol=1e-12, atol=1e-12)

    def test_matches_per_walker_reference(self, spline, points):
        _, _, h = batched_multi_vgh(spline, points, tile=3)
        for w in range(W):
            _, _, hw = spline.multi_vgh(points[w])
            np.testing.assert_allclose(h[w], hw, rtol=1e-10, atol=1e-10)


class TestBackendDispatch:
    def test_numpy_backend_direct_call(self, spline, points):
        be = NumpyBackend()
        out = be.spline3d_vgh_tiled(
            spline.coefs, spline.cell_inverse,
            (spline.nx, spline.ny, spline.nz), points, 3)
        ref = flat_spline3d_vgh(spline.coefs, spline.cell_inverse,
                                (spline.nx, spline.ny, spline.nz), points)
        for got, exp in zip(out, ref):
            np.testing.assert_array_equal(got, exp)

    def test_active_backend_used(self, spline, points):
        # batched_multi_vgh goes through the seam, not a direct call
        class Seen(NumpyBackend):
            calls = 0

            def spline3d_vgh_tiled(self, *args):
                Seen.calls += 1
                return super().spline3d_vgh_tiled(*args)

        with use_backend(Seen()):
            v, _, _ = batched_multi_vgh(spline, points, tile=2)
        assert Seen.calls == 1
        fv, _, _ = batched_multi_vgh_flat(spline, points)
        np.testing.assert_array_equal(v, fv)
