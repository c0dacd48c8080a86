"""Kernel-level differential tests: each batched kernel, sliced at one
walker, must reproduce the per-walker kernel — bitwise for the Metropolis
path (distances, Jastrow) and for the SPO contraction."""

import numpy as np
import pytest

from repro.batched import (JastrowSystemSpec, WalkerBatch, batched_multi_v,
                           batched_multi_vgl)
from repro.particles.walker import Walker
from repro.splines.bspline3d import BSpline3D

W = 4
N = 12


def _stored(table):
    """A table's stored distances: the whole block, or the
    compute-on-the-fly table's one active row."""
    return getattr(table, "distances", getattr(table, "row_r", None))


def _pair(flavor, seed=5, dtype=np.float64):
    """(spec, positions, batch, batched tables/components, scalar parts)."""
    spec = JastrowSystemSpec(n=N, seed=seed, aa_flavor=flavor)
    positions = spec.initial_positions(W)
    batch = WalkerBatch.from_positions(positions)
    tables, comps, ham = spec.build_batched(W)
    for t in tables:
        assert _stored(t).dtype == dtype
        t.evaluate(batch)
    P, twf, ham_s = spec.build_scalar()
    return spec, positions, batch, tables, comps, ham, P, twf, ham_s


def _load(P, positions, w):
    P.load_walker(Walker.from_positions(positions[w]))
    P.update_tables()


@pytest.mark.parametrize("flavor", ["soa", "otf"])
class TestDistanceRows:
    def test_evaluate_rows_bitwise(self, flavor):
        _, positions, batch, tables, *_, P, twf, ham_s = _pair(flavor)
        for w in range(W):
            _load(P, positions, w)
            aa_s, ab_s = P.distance_tables
            for k in range(N):
                for t in tables:
                    t.set_active(batch, k)
                assert np.array_equal(tables[0].dist_rows(k)[w],
                                      aa_s.distances[k, :N])
                assert np.array_equal(tables[0].disp_rows(k)[w],
                                      aa_s.displacements[k, :, :N])
                assert np.array_equal(tables[1].dist_rows(k)[w],
                                      ab_s.distances[k, :tables[1].ns])

    def test_move_temporaries_bitwise(self, flavor):
        _, positions, batch, tables, *_, P, twf, ham_s = _pair(flavor)
        rng = np.random.default_rng(17)
        k = 3
        rnew = positions[:, k] + rng.normal(scale=0.3, size=(W, 3))
        for t in tables:
            t.set_active(batch, k)
            t.move(batch, rnew, k)
        for w in range(W):
            _load(P, positions, w)
            P.make_move(k, rnew[w])
            aa_s, ab_s = P.distance_tables
            assert np.array_equal(tables[0].temp_rows()[w],
                                  aa_s.temp_r[:N])
            assert np.array_equal(tables[0].temp_disp_rows()[w],
                                  aa_s.temp_dr[:, :N])
            assert np.array_equal(tables[1].temp_rows()[w],
                                  ab_s.temp_r[:tables[1].ns])
            P.reject_move(k)

    def test_update_commits_accepted_subset(self, flavor):
        _, positions, batch, tables, *_ = _pair(flavor)
        rng = np.random.default_rng(18)
        k = 2
        rnew = positions[:, k] + rng.normal(scale=0.3, size=(W, 3))
        for t in tables:
            t.set_active(batch, k)
            t.move(batch, rnew, k)
        acc = np.array([True, False, True, False])
        before = _stored(tables[0]).copy()
        for t in tables:
            t.update(k, acc)
        batch.commit(k, rnew, acc)
        assert np.array_equal(tables[0].dist_rows(k)[acc],
                              tables[0].temp_rows()[acc])
        assert np.array_equal(_stored(tables[0])[~acc], before[~acc])


def _assert_close(a, b, exact=False):
    """``exact=True`` demands bitwise equality — the contract for the
    np.sum/math.exp ratio path that gates acceptance.  Gradient/Laplacian
    reductions go through BLAS, where batched-gemm vs per-walker-gemv
    kernel selection costs a few ulps, so they get a tolerance instead."""
    if exact:
        assert np.array_equal(a, b)
    else:
        tol = 1e4 * np.finfo(np.float64).eps
        np.testing.assert_allclose(a, b, rtol=tol, atol=tol)


@pytest.mark.parametrize("flavor", ["soa", "otf"])
# one value, the batched tables' one storage dtype; the id names it
@pytest.mark.parametrize("dtype", [pytest.param(np.float64, id="fp64")])
class TestJastrowKernels:
    def test_ratio_and_grad(self, flavor, dtype):
        (_, positions, batch, tables, comps, _,
         P, twf, _) = _pair(flavor, dtype=dtype)
        rng = np.random.default_rng(19)
        k = 5
        rnew = positions[:, k] + rng.normal(scale=0.3, size=(W, 3))
        for t in tables:
            t.set_active(batch, k)
            t.move(batch, rnew, k)
        rho_b = np.ones(W)
        g_b = np.zeros((W, 3))
        for c in comps:
            r, g = c.ratio_grad(tables, k)
            rho_b *= r
            g_b += g
        grad_old = np.stack([c.grad(tables, k) for c in comps]).sum(axis=0)
        for w in range(W):
            _load(P, positions, w)
            g_old_s = twf.grad(P, k)
            P.make_move(k, rnew[w])
            rho_s, g_s = twf.ratio_grad(P, k)
            _assert_close(rho_b[w], rho_s, exact=True)
            _assert_close(g_b[w], g_s)
            _assert_close(grad_old[w], g_old_s)
            P.reject_move(k)

    def test_evaluate_log(self, flavor, dtype):
        (_, positions, batch, tables, comps, _,
         P, twf, _) = _pair(flavor, dtype=dtype)
        G = np.zeros((W, N, 3))
        L = np.zeros((W, N))
        logpsi = np.zeros(W)
        for c in comps:
            logpsi += c.evaluate_log(batch, tables, G, L)
        for w in range(W):
            _load(P, positions, w)
            lp = twf.evaluate_log(P)
            _assert_close(logpsi[w], lp, exact=True)
            _assert_close(G[w], np.asarray(P.G))
            _assert_close(L[w], np.asarray(P.L))


class TestHamiltonian:
    @pytest.mark.parametrize("flavor", ["soa", "otf"])
    def test_local_energy(self, flavor):
        """Potential terms (pure np.sum over rows) agree bitwise; the
        kinetic term inherits the few-ulp BLAS noise of G/L."""
        (_, positions, batch, tables, comps, ham,
         P, twf, ham_s) = _pair(flavor)
        G = np.zeros((W, N, 3))
        L = np.zeros((W, N))
        j2, j1 = comps
        # the e-e sum rides on J2's stream over the AA rows
        j2.evaluate_log(batch, tables, G, L, on_row=ham.ee_row)
        j1.evaluate_log(batch, tables, G, L)
        el = ham.evaluate(batch, tables, G, L)
        for w in range(W):
            _load(P, positions, w)
            twf.evaluate_log(P)
            el_s = ham_s.evaluate(P, twf)
            assert el[w] == pytest.approx(el_s, rel=1e-12, abs=1e-12)
            assert (ham.last_components["ElecElec"][w]
                    == ham_s.last_components["ElecElec"])
            assert (ham.last_components["ElecIon"][w]
                    == ham_s.last_components["ElecIon"])
            assert ham.last_components["Kinetic"][w] == pytest.approx(
                ham_s.last_components["Kinetic"], rel=1e-12, abs=1e-12)


class TestBatchedSPO:
    """The walker-axis B-spline contraction is the per-walker stencil
    GEMM with a walker axis, so each walker's row is bitwise the
    per-walker kernel's (tests/batched/test_batched_spo.py covers the
    fp32, skewed-cell and batch-width cases)."""

    @pytest.fixture
    def spline(self):
        grid = (8, 8, 8)
        rng = np.random.default_rng(21)
        vals = rng.normal(size=grid + (5,))
        cell = np.diag([4.0, 5.0, 6.0])
        return BSpline3D.fit(vals, np.linalg.inv(cell), dtype=np.float64)

    def test_multi_v_matches_per_walker(self, spline):
        rng = np.random.default_rng(22)
        r = rng.uniform(-2, 8, (16, 3))
        batched = batched_multi_v(spline, r)
        for w in range(16):
            np.testing.assert_array_equal(batched[w], spline.multi_v(r[w]))

    def test_multi_vgl_matches_per_walker(self, spline):
        rng = np.random.default_rng(23)
        r = rng.uniform(-2, 8, (16, 3))
        v, g, lap = batched_multi_vgl(spline, r)
        for w in range(16):
            v_s, g_s, l_s = spline.multi_vgl(r[w])
            np.testing.assert_array_equal(v[w], v_s)
            np.testing.assert_array_equal(g[w], g_s)
            np.testing.assert_array_equal(lap[w], l_s)
