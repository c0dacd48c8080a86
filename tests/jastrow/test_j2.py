"""Tests for the two-body Jastrow, both flavors."""

import math

import numpy as np
import pytest

from repro.distances.factory import create_aa_table
from repro.jastrow import rows
from repro.jastrow.j2 import TwoBodyJastrowOtf
from repro.metrics.registry import METRICS
from repro.particles.particleset import ParticleSet
from repro.particles.species import SpeciesSet
from repro.precision.policy import FULL, MIXED


def _brute_logpsi_j2(setup):
    """Direct O(N^2) evaluation from positions."""
    P, lat = setup.P, setup.lat
    total = 0.0
    for i in range(setup.n):
        gi = 0 if i < setup.n // 2 else 1
        for j in range(i + 1, setup.n):
            gj = 0 if j < setup.n // 2 else 1
            d = lat.min_image_dist(P.R[j] - P.R[i])
            f = setup.j2f[(min(gi, gj), max(gi, gj))]
            total -= f.evaluate_v_scalar(float(d))
    return total


def _row_loop(j2, P):
    """The per-electron measure the spin-group blocks replace: one
    ``rows_vgl`` per stored table row, accumulated in electron order.
    Returns (logpsi, G, L) and the op count each row recorded."""
    table = P.distance_tables[j2.table_index]
    logpsi, G, L = 0.0, np.zeros((j2.n, 3)), np.zeros(j2.n)
    for i in range(j2.n):
        u, g, lap = rows.rows_vgl(rows.j2_groups(j2, j2.group_of[i]),
                                  table.dist_row(i)[None],
                                  table.disp_row(i)[None])
        logpsi -= 0.5 * float(u[0])
        G[i] += g[0]
        L[i] += float(lap[0])
    row_ops = (20.0 * j2.n, 32.0 * j2.n, 40.0)
    return logpsi, G, L, row_ops


def _j2_ops(run):
    """(flops, rbytes, wbytes) recorded on the J2 scope by ``run()``."""
    METRICS.enable()
    METRICS.reset()
    try:
        run()
        j2 = METRICS.flat()["J2"]
    finally:
        METRICS.disable()
        METRICS.reset()
    return j2["flops"], j2["rbytes"], j2["wbytes"]


@pytest.mark.parametrize("n", [10, 33])
@pytest.mark.parametrize("flavor", ["soa", "otf"])
@pytest.mark.parametrize("policy", [FULL, MIXED], ids=["full", "mixed"])
class TestSpinGroupBlocks:
    """The measure's one ``rows_vgl`` per spin group is the row loop bit
    for bit — logpsi, G and L — in every table precision and flavor,
    and records N times the per-row op count."""

    def _setup(self, jsetup, n, flavor, policy):
        rng = np.random.default_rng(5)
        ids = np.array([0] * (n // 2) + [1] * (n - n // 2))
        P = ParticleSet("e", rng.uniform(0, 6, (n, 3)), jsetup.lat,
                        SpeciesSet.electrons(), ids)
        P.add_table(create_aa_table(n, jsetup.lat, flavor,
                                    dtype=policy.value_dtype))
        P.update_tables()
        for k in rng.permutation(n)[: n // 2]:  # lived-in rows
            P.set_active(k)
            P.make_move(k, P.R[k] + rng.normal(scale=0.3, size=3))
            P.accept_move(k)
        j2 = TwoBodyJastrowOtf(n, list(P.group_ranges()), jsetup.j2f)
        return P, j2

    def test_evaluate_log(self, jsetup, n, flavor, policy):
        P, j2 = self._setup(jsetup, n, flavor, policy)
        want_lp, want_g, want_l, row_ops = _row_loop(j2, P)
        lp = j2.evaluate_log(P)
        assert lp == want_lp
        assert np.array_equal(P.G, want_g) and np.array_equal(P.L, want_l)
        P.G[...] = 0
        P.L[...] = 0
        assert _j2_ops(lambda: j2.evaluate_log(P)) == \
            tuple(n * x for x in row_ops)

    def test_evaluate_gl(self, jsetup, n, flavor, policy):
        P, j2 = self._setup(jsetup, n, flavor, policy)
        _, want_g, want_l, row_ops = _row_loop(j2, P)
        j2.evaluate_gl(P)
        assert np.array_equal(P.G, want_g) and np.array_equal(P.L, want_l)
        assert _j2_ops(lambda: j2.evaluate_gl(P)) == \
            tuple(n * x for x in row_ops)


class TestEvaluateLog:
    def test_otf_matches_brute_force(self, jsetup):
        jsetup.P.G[...] = 0
        jsetup.P.L[...] = 0
        lp = jsetup.j2_otf.evaluate_log(jsetup.P)
        assert lp == pytest.approx(_brute_logpsi_j2(jsetup), rel=1e-10)

    def test_ref_matches_otf(self, jsetup):
        P = jsetup.P
        P.G[...] = 0
        P.L[...] = 0
        lp_otf = jsetup.j2_otf.evaluate_log(P)
        g_otf, l_otf = P.G.copy(), P.L.copy()
        P.G[...] = 0
        P.L[...] = 0
        lp_ref = jsetup.j2_ref.evaluate_log(P)
        assert lp_ref == pytest.approx(lp_otf, rel=1e-10)
        assert np.allclose(P.G, g_otf, atol=1e-10)
        assert np.allclose(P.L, l_otf, atol=1e-10)

    def test_gradient_matches_fd(self, jsetup):
        """grad log Psi from evaluate_log vs finite differences."""
        P = jsetup.P
        k, eps = 2, 1e-6
        P.G[...] = 0
        P.L[...] = 0
        jsetup.j2_otf.evaluate_log(P)
        g = P.G[k].copy()
        for d in range(3):
            for sgn, store in ((1, "p"), (-1, "m")):
                P.R[k, d] += sgn * eps
                P.sync_layouts()
                P.update_tables()
                P.G[...] = 0
                P.L[...] = 0
                if sgn == 1:
                    lp_p = jsetup.j2_otf.evaluate_log(P)
                    P.R[k, d] -= eps
                else:
                    lp_m = jsetup.j2_otf.evaluate_log(P)
                    P.R[k, d] += eps
            assert g[d] == pytest.approx((lp_p - lp_m) / (2 * eps),
                                         abs=2e-5)
        P.sync_layouts()
        P.update_tables()

    def test_laplacian_matches_fd(self, jsetup):
        P = jsetup.P
        k, eps = 4, 1e-4
        P.G[...] = 0
        P.L[...] = 0
        lp0 = jsetup.j2_otf.evaluate_log(P)
        lap = P.L[k]
        fd = 0.0
        for d in range(3):
            for sgn in (1, -1):
                P.R[k, d] += sgn * eps
                P.sync_layouts()
                P.update_tables()
                P.G[...] = 0
                P.L[...] = 0
                fd += jsetup.j2_otf.evaluate_log(P)
                P.R[k, d] -= sgn * eps
        P.sync_layouts()
        P.update_tables()
        fd = (fd - 6 * lp0) / eps ** 2
        # L holds lap(log psi); compare without the |grad|^2 term.
        assert lap == pytest.approx(fd, abs=5e-3)


class TestRatios:
    @pytest.mark.parametrize("flavor", ["otf", "ref"])
    def test_ratio_matches_recompute(self, jsetup, flavor):
        P = jsetup.P
        j2 = jsetup.j2_otf if flavor == "otf" else jsetup.j2_ref
        P.G[...] = 0
        P.L[...] = 0
        lp_old = j2.evaluate_log(P)
        k = 3
        rnew = jsetup.lat.wrap(P.R[k] + jsetup.rng.normal(0, 0.3, 3))
        P.make_move(k, rnew)
        rho = j2.ratio(P, k)
        j2.reject_move(P, k)
        P.reject_move(k)
        # brute force: recompute logpsi at moved configuration
        old = P.R[k].copy()
        P.R[k] = rnew
        P.sync_layouts()
        P.update_tables()
        P.G[...] = 0
        P.L[...] = 0
        fresh = type(j2)(jsetup.n, list(P.group_ranges()), jsetup.j2f,
                         j2.table_index)
        lp_new = fresh.evaluate_log(P)
        P.R[k] = old
        P.sync_layouts()
        P.update_tables()
        assert rho == pytest.approx(math.exp(lp_new - lp_old), rel=1e-8)

    @pytest.mark.parametrize("flavor", ["otf", "ref"])
    def test_ratio_grad_consistent_with_ratio(self, jsetup, flavor):
        P = jsetup.P
        j2 = jsetup.j2_otf if flavor == "otf" else jsetup.j2_ref
        P.G[...] = 0
        P.L[...] = 0
        j2.evaluate_log(P)
        k = 6
        rnew = jsetup.lat.wrap(P.R[k] + jsetup.rng.normal(0, 0.3, 3))
        P.make_move(k, rnew)
        rho1 = j2.ratio(P, k)
        j2.reject_move(P, k)
        rho2, grad = j2.ratio_grad(P, k)
        j2.reject_move(P, k)
        P.reject_move(k)
        assert rho1 == pytest.approx(rho2, rel=1e-12)
        assert grad.shape == (3,)

    def test_flavors_agree_through_walk(self, jsetup):
        """ratio + accept keeps both flavors in lockstep."""
        P = jsetup.P
        P.G[...] = 0
        P.L[...] = 0
        lp_otf = jsetup.j2_otf.evaluate_log(P)
        P.G[...] = 0
        P.L[...] = 0
        lp_ref = jsetup.j2_ref.evaluate_log(P)
        for step in range(12):
            k = int(jsetup.rng.integers(jsetup.n))
            rnew = jsetup.lat.wrap(P.R[k] + jsetup.rng.normal(0, 0.4, 3))
            P.set_active(k)
            P.make_move(k, rnew)
            r_otf, g_otf = jsetup.j2_otf.ratio_grad(P, k)
            r_ref, g_ref = jsetup.j2_ref.ratio_grad(P, k)
            assert r_ref == pytest.approx(r_otf, rel=1e-8)
            assert np.allclose(g_ref, g_otf, atol=1e-8)
            if jsetup.rng.uniform() < 0.7:
                jsetup.j2_otf.accept_move(P, k)
                jsetup.j2_ref.accept_move(P, k)
                P.accept_move(k)
            else:
                jsetup.j2_otf.reject_move(P, k)
                jsetup.j2_ref.reject_move(P, k)
                P.reject_move(k)

    def test_grad_matches_stored(self, jsetup):
        P = jsetup.P
        P.G[...] = 0
        P.L[...] = 0
        jsetup.j2_otf.evaluate_log(P)
        P.G[...] = 0
        P.L[...] = 0
        jsetup.j2_ref.evaluate_log(P)
        for k in range(0, jsetup.n, 3):
            assert np.allclose(jsetup.j2_otf.grad(P, k),
                               jsetup.j2_ref.grad(P, k), atol=1e-8)


class TestStorageAndBuffer:
    def test_storage_scaling(self, jsetup):
        # Ref: 5 N^2 doubles; OTF: 5 N doubles (Sec. 7.5).
        n = jsetup.n
        assert jsetup.j2_ref.storage_bytes == 5 * n * n * 8
        assert jsetup.j2_otf.storage_bytes == 5 * n * 8

    def test_ref_buffer_roundtrip(self, jsetup):
        from repro.containers.buffer import WalkerBuffer
        P = jsetup.P
        P.G[...] = 0
        P.L[...] = 0
        jsetup.j2_ref.evaluate_log(P)
        buf = WalkerBuffer()
        jsetup.j2_ref.register_data(P, buf)
        buf.seal()
        buf.rewind()
        jsetup.j2_ref.update_buffer(P, buf)
        saved = jsetup.j2_ref.Umat.copy()
        jsetup.j2_ref.Umat[...] = 0
        buf.rewind()
        jsetup.j2_ref.copy_from_buffer(P, buf)
        assert np.allclose(jsetup.j2_ref.Umat, saved)
