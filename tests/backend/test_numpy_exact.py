"""The numpy backend is a faithful extraction of the pre-backend code.

These tests pin the bitwise-extraction claim against *independent*
references — the scalar Ref kernels, the per-point spline evaluators,
brute-force minimum-image loops and libm — so a "cleanup" of the numpy
backend that reorders floating-point ops fails here, not three suites
downstream in a flipped Metropolis trace.
"""

import math

import numpy as np
import pytest

from repro.backend import get_backend
from repro.distances.base import BIG_DISTANCE
from repro.jastrow.functor import BsplineFunctor
from repro.lattice.cell import CrystalLattice
from repro.splines.bspline3d import BSpline3D
from repro.splines.cubic1d import CubicBSpline1D

from kernel_cases import LATTICES

B = get_backend()


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


class TestExpRows:
    def test_bitwise_matches_libm(self, rng):
        x = rng.normal(scale=3.0, size=64)
        out = B.exp_rows(x)
        ref = np.array([math.exp(v) for v in x])
        assert np.array_equal(out, ref)


class TestAcceptMask:
    def test_matches_scalar_metropolis(self, rng):
        rho = rng.normal(loc=0.9, scale=0.4, size=128)
        log_t = rng.normal(scale=0.3, size=128)
        uniforms = rng.uniform(size=128)
        acc = np.asarray(B.accept_mask(rho, log_t, uniforms))
        for w in range(128):
            A = min(1.0, rho[w] * rho[w] * math.exp(log_t[w]))
            assert acc[w] == (uniforms[w] < A and rho[w] != 0.0)

    def test_no_drift_branch(self, rng):
        rho = rng.normal(loc=0.9, scale=0.4, size=64)
        uniforms = rng.uniform(size=64)
        acc = np.asarray(B.accept_mask(rho, None, uniforms))
        ref = (uniforms < np.minimum(1.0, rho * rho)) & (rho != 0.0)
        assert np.array_equal(acc, ref)

    def test_node_touch_is_always_rejected(self):
        rho = np.array([0.0, 0.0])
        uniforms = np.array([0.0, 1e-300])  # would accept any A > 0
        acc = np.asarray(B.accept_mask(rho, None, uniforms))
        assert not acc.any()


class TestDistanceKernels:
    @pytest.mark.parametrize("key", sorted(LATTICES))
    def test_aa_row_matches_bruteforce(self, rng, key):
        lattice = LATTICES[key]
        W, n, k = 4, 7, 2
        soa = rng.uniform(0, 6, (W, 3, n))
        rk = rng.uniform(0, 6, (W, 3))
        r, dr = B.aa_row(soa, rk, lattice, self_index=k)
        for w in range(W):
            for i in range(n):
                if i == k:
                    assert r[w, i] == BIG_DISTANCE
                    assert np.array_equal(dr[w, :, i], np.zeros(3))
                    continue
                d = soa[w, :, i] - rk[w]
                if lattice.periodic:
                    d = lattice.min_image_disp(d[None, :])[0]
                np.testing.assert_allclose(dr[w, :, i], d, atol=1e-13)
                np.testing.assert_allclose(
                    r[w, i], math.sqrt(float(d @ d)), rtol=1e-14)

    # The all-pairs kernels and the row kernels are one body: bitwise
    # on every cell, the skewed 27-image scan included.
    @pytest.mark.parametrize("key", sorted(LATTICES))
    def test_aa_pairs_rows_match_aa_row(self, rng, key):
        lattice = LATTICES[key]
        W, n = 3, 6
        R = rng.uniform(0, 6, (W, n, 3))
        dist, disp = B.aa_pairs(R, lattice)
        assert dist.shape == (W, n, n) and disp.shape == (W, n, 3, n)
        soa = np.transpose(R, (0, 2, 1)).copy()
        for k in range(n):
            r, dr = B.aa_row(soa, R[:, k].copy(), lattice, self_index=k)
            assert np.array_equal(dist[:, k], r)
            assert np.array_equal(disp[:, k], dr)
            assert np.all(dist[:, k, k] == BIG_DISTANCE)
            assert np.all(disp[:, k, :, k] == 0.0)

    @pytest.mark.parametrize("key", sorted(LATTICES))
    def test_ab_pairs_rows_match_ab_row(self, rng, key):
        lattice = LATTICES[key]
        W, n, ns = 3, 5, 4
        src_R = rng.uniform(0, 6, (ns, 3))
        R = rng.uniform(0, 6, (W, n, 3))
        dist, disp = B.ab_pairs(src_R, R, lattice)
        assert dist.shape == (W, n, ns) and disp.shape == (W, n, 3, ns)
        src_soa = src_R.T.copy()
        for k in range(n):
            r, dr = B.ab_row(src_soa, R[:, k].copy(), lattice)
            assert np.array_equal(dist[:, k], r)
            assert np.array_equal(disp[:, k], dr)

    def test_pairs_do_not_mutate_positions(self, rng):
        R = rng.uniform(0, 6, (2, 5, 3))
        src_R = rng.uniform(0, 6, (3, 3))
        R0, src0 = R.copy(), src_R.copy()
        B.aa_pairs(R, LATTICES["cubic"])
        B.ab_pairs(src_R, R, LATTICES["skewed"])
        assert np.array_equal(R, R0) and np.array_equal(src_R, src0)


class TestTableEvaluate:
    """The batched tables' from-scratch pass over the SoA pair kernels."""

    def test_storage_rows_are_row_kernel_rows(self, rng):
        from repro.batched.distances import BatchedDistTableAA
        from repro.batched.walkerbatch import WalkerBatch
        lattice = LATTICES["orthorhombic"]
        W, n = 3, 7
        batch = WalkerBatch.from_positions(rng.uniform(0, 6, (W, n, 3)))
        table = BatchedDistTableAA(W, n, lattice)
        table.evaluate(batch)
        soa = np.transpose(batch.R, (0, 2, 1)).copy()
        assert table.distances.dtype == np.float64
        for k in range(n):
            r, dr = B.aa_row(soa, batch.R[:, k].copy(), lattice, k)
            assert np.array_equal(table.dist_rows(k), r)
            assert np.array_equal(table.disp_rows(k), dr)
        # padding columns keep their sentinels
        assert np.all(table.distances[:, :, n:] == BIG_DISTANCE)
        assert np.all(table.displacements[:, :, :, n:] == 0)

    def test_otf_row_refresh_reproduces_evaluate_on_skewed_cell(self, rng):
        """Every row the compute-on-the-fly table serves from unchanged
        positions — the ``set_active`` refresh, a move's temporaries,
        the measure stream — is the from-scratch row, bit for bit, on a
        cell where the AoS and SoA minimum images round differently."""
        from repro.batched.distances import BatchedDistTableAAOtf
        from repro.batched.walkerbatch import WalkerBatch
        from repro.distances.aa_otf import DistanceTableAAOtf
        from repro.particles.particleset import ParticleSet
        lattice = LATTICES["skewed"]
        W, n = 3, 10
        batch = WalkerBatch.from_positions(rng.uniform(0, 6, (W, n, 3)))
        table = BatchedDistTableAAOtf(W, n, lattice)
        table.evaluate(batch)
        # the from-scratch rows, padded as a stored (W, n, Np) table
        dist = np.full((W, n, table.np_), BIG_DISTANCE)
        disp = np.zeros((W, n, 3, table.np_))
        dist[:, :, :n], disp[:, :, :, :n] = B.aa_pairs(batch.R, lattice)
        for k in range(n):
            table.set_active(batch, k)
            assert np.array_equal(table.dist_rows(k), dist[:, k, :n])
            assert np.array_equal(table.disp_rows(k), disp[:, k, :, :n])
            table.move(batch, batch.R[:, k], k)
            assert np.array_equal(table.temp_rows(), dist[:, k, :n])
            assert np.array_equal(table.temp_disp_rows(), disp[:, k, :, :n])
        for k, (r, dr) in enumerate(table.rows(batch)):
            assert np.array_equal(r, dist[:, k, :n])
            assert np.array_equal(dr, disp[:, k, :, :n])

        P = ParticleSet("e", batch.R[0], lattice, layout="both")
        scalar = DistanceTableAAOtf(n, lattice)
        P.add_table(scalar)
        P.update_tables()
        assert np.array_equal(scalar.distances, dist[0])
        assert np.array_equal(scalar.displacements, disp[0])
        for k in range(n):
            scalar.move(P, P.R[k], k)
        assert np.array_equal(scalar.distances, dist[0])
        assert np.array_equal(scalar.displacements, disp[0])

    def test_evaluate_peak_memory_below_eight_blocks(self, rng):
        """No (W,n,n,3) -> GEMM -> rint -> GEMM chain: the peak of one
        AA evaluate stays under 8 (W, n, n) float64 blocks (the AoS
        min-image body peaked above 9)."""
        import tracemalloc
        from repro.batched.distances import BatchedDistTableAA
        from repro.batched.walkerbatch import WalkerBatch
        W, n = 16, 96
        batch = WalkerBatch.from_positions(rng.uniform(0, 9, (W, n, 3)))
        table = BatchedDistTableAA(W, n, CrystalLattice.cubic(9.0))
        table.evaluate(batch)  # warm: imports, lazy singletons
        tracemalloc.start()
        try:
            table.evaluate(batch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * W * n * n * 8


def _poly_point(poly, x0, h, r, rcut=None):
    """(v, dv, d2v) of the monomial table at one point, in pure Python:
    the op sequence the vector 1D kernels must reproduce bit for bit."""
    n = poly.shape[1] - 1
    t = (r - x0) / h
    if rcut is None:
        i = min(max(math.floor(t), 0), n - 1)
    else:
        t = float(n) if r >= rcut else min(max(t, 0.0), float(n))
        i = math.floor(t)
    u = t - i
    a0, a1, a2, a3 = (float(poly[k, i]) for k in range(4))
    return (a0 + u * (a1 + u * (a2 + u * a3)),
            (a1 + u * (2.0 * a2 + 3.0 * a3 * u)) / h,
            (2.0 * a2 + 6.0 * a3 * u) / (h * h))


class TestSplineKernels:
    @pytest.fixture
    def functor(self):
        return BsplineFunctor.from_shape(rcut=2.5, cusp=-0.25)

    @pytest.fixture
    def rough(self, rng):
        """O(1) random coefficients, so every monomial term reaches the
        last bit of the sum (a smooth functor's a3 is ~1e-4 of a0 and
        hides reorderings of its terms); 7 intervals on [0, 2.3] make
        ``(rcut - x0) / h`` round below n."""
        rcut = 2.3
        return BsplineFunctor(CubicBSpline1D(0.0, rcut, rng.normal(size=10)),
                              rcut)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_functor_bitwise_matches_per_point_table(self, rng, rough,
                                                     dtype):
        s = rough.spline
        r = rng.uniform(0, 4.0, (3, 11))  # straddles rcut
        r[0, 0] = BIG_DISTANCE  # the masked AA diagonal
        r[1, 1] = rough.rcut
        r = r.astype(dtype)[:, ::2]  # a strided storage-precision view
        args = (s.poly, s.x0, s.h, rough.rcut, r)
        v = B.functor_v(*args)
        vgl = B.functor_vgl(*args)
        assert v.shape == r.shape and all(c.shape == r.shape for c in vgl)
        for idx in np.ndindex(r.shape):
            ref = _poly_point(s.poly, s.x0, s.h, float(r[idx]), rough.rcut)
            assert v[idx] == ref[0]
            assert tuple(c[idx] for c in vgl) == ref

    def test_bspline1d_bitwise_matches_per_point_table(self, rng, rough):
        s = rough.spline
        # both ends extrapolate from their end intervals
        r = rng.uniform(-0.3, s.x1 + 0.3, 33)
        v = B.bspline1d_v(s.poly, s.x0, s.h, r)
        vgl = B.bspline1d_vgl(s.poly, s.x0, s.h, r)
        assert np.any(r < 0) and np.any(r > s.x1)
        for j, rj in enumerate(r):
            ref = _poly_point(s.poly, s.x0, s.h, float(rj))
            assert v[j] == ref[0]
            assert tuple(c[j] for c in vgl) == ref

    def test_functor_exactly_zero_at_and_beyond_cutoff(self, rough):
        s = rough.spline
        rc = rough.rcut
        assert (rc - s.x0) / s.h < s.n  # only the r >= rcut test cuts here
        r = np.array([rc, np.nextafter(rc, np.inf), 2 * rc, BIG_DISTANCE])
        args = (s.poly, s.x0, s.h, rc)
        for channels in (B.functor_vgl(*args, r), B.functor_vg(*args, r),
                         (B.functor_v(*args, r),)):
            for c in channels:
                assert np.array_equal(c, np.zeros(4))
        # all-beyond-cutoff input
        far = np.full((2, 3), BIG_DISTANCE)
        assert not any(np.any(c) for c in B.functor_vgl(*args, far))
        # and just inside the cutoff the table is live
        inside = B.functor_vgl(*args, np.array([np.nextafter(rc, 0.0)]))
        assert all(c[0] != 0.0 for c in inside)

    def test_functor_vg_is_channels_0_1_of_vgl(self, rng, functor):
        s = functor.spline
        r = rng.uniform(0, 4.0, (3, 11))
        r[0, 0] = BIG_DISTANCE
        r[1, 1] = functor.rcut
        args = (s.poly, s.x0, s.h, functor.rcut)
        u, du = B.functor_vg(*args, r)
        uu, dd, _ = B.functor_vgl(*args, r)
        assert np.array_equal(u, uu) and np.array_equal(du, dd)
        assert np.all(du[r >= functor.rcut] == 0.0)

    def test_functor_within_rounding_of_scalar_ref(self, rng, functor):
        """The Ref keeps the B-spline basis: agreement is to rounding,
        ``1e-13 * max(1, |u|)`` per channel, not bitwise."""
        s = functor.spline
        r = rng.uniform(0, 4.0, (4, 25))
        r[0, :3] = (functor.rcut, BIG_DISTANCE, 0.0)
        vgl = B.functor_vgl(s.poly, s.x0, s.h, functor.rcut, r)
        for idx in np.ndindex(r.shape):
            ref = functor.evaluate_vgl_scalar(float(r[idx]))
            for got, want in zip((c[idx] for c in vgl), ref):
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_bspline1d_within_rounding_of_scalar_ref(self, rng, functor):
        s = functor.spline
        r = rng.uniform(0, functor.rcut, 33)
        vgl = B.bspline1d_vgl(s.poly, s.x0, s.h, r)
        for j, rj in enumerate(r):
            ref = s.evaluate_vgl_scalar(float(rj))
            for got, want in zip((c[j] for c in vgl), ref):
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    def test_poly_reproduces_basis_values_at_the_knots(self, rough):
        """Interval i's polynomial at u = 0 and u = 1 is the B-spline
        basis sum at knots i and i + 1; the tail column is zero."""
        from repro.splines.cubic1d import _A
        s = rough.spline
        c = s.coefs
        assert s.poly.shape == (4, s.n + 1) and not s.poly.flags.writeable
        assert np.array_equal(s.poly[:, s.n], np.zeros(4))
        for i in range(s.n):
            for u in (0.0, 1.0):
                basis = sum(c[i + k] * (_A[k] @ [1.0, u, u * u, u ** 3])
                            for k in range(4))
                mono = s.poly[:, i] @ [1.0, u, u * u, u ** 3]
                assert abs(mono - basis) <= 1e-14 * max(1.0, abs(basis))

    def test_spline3d_matches_per_point_evaluators(self, rng):
        vals = rng.normal(size=(6, 6, 6, 4))
        cell = np.diag([4.0, 5.0, 6.0])
        sp = BSpline3D.fit(vals, np.linalg.inv(cell), dtype=np.float64)
        r = rng.uniform(-2, 8, (5, 3))
        dims = (sp.nx, sp.ny, sp.nz)
        v = B.spline3d_v(sp.coefs, sp.cell_inverse, dims, r)
        vgl = B.spline3d_vgl(sp.coefs, sp.cell_inverse, dims, r)
        vgh = B.spline3d_vgh(sp.coefs, sp.cell_inverse, dims, r)
        for w in range(r.shape[0]):
            np.testing.assert_array_equal(v[w], sp.multi_v(r[w]))
            for got, want in zip(vgl, sp.multi_vgl(r[w])):
                np.testing.assert_array_equal(got[w], want)
            for got, want in zip(vgh, sp.multi_vgh(r[w])):
                np.testing.assert_array_equal(got[w], want)


class TestDetKernels:
    def test_det_ratio_bitwise(self, rng):
        phi = rng.normal(size=12)
        col = rng.normal(size=12)
        assert B.det_ratio(phi, col) == float(phi @ col)

    def test_det_ratios_vp_matches_per_point_dots(self, rng):
        phi = rng.normal(size=(6, 12))
        cols = rng.normal(size=(12, 6))
        out = np.asarray(B.det_ratios_vp(phi, cols))
        ref = np.array([phi[m] @ cols[:, m] for m in range(6)])
        np.testing.assert_allclose(out, ref, rtol=1e-14)
