"""Tests for the delayed-update Dirac determinant (Sec. 8.4 integrated)."""

import math

import numpy as np
import pytest

from repro.determinant.dirac import DiracDeterminant
from repro.determinant.dirac_delayed import DiracDeterminantDelayed
from repro.lattice.cell import CrystalLattice
from repro.particles.particleset import ParticleSet
from repro.spo.sposet import PlaneWaveSPOSet


@pytest.fixture
def setup(rng):
    lat = CrystalLattice.cubic(6.0)
    n = 8
    P = ParticleSet("e", rng.uniform(0, 6, (2 * n, 3)), lat)
    spo = PlaneWaveSPOSet(lat, n)
    eager = DiracDeterminant(spo, 0, n)
    delayed = DiracDeterminantDelayed(spo, 0, n, delay=3)
    eager.recompute(P)
    delayed.recompute(P)
    return P, spo, eager, delayed, rng


class TestDelayedDeterminant:
    def test_lockstep_random_walk(self, setup):
        """Delayed and eager determinants agree on every ratio and
        gradient through a long accept/reject stream spanning several
        flush boundaries."""
        P, spo, eager, delayed, rng = setup
        for step in range(25):
            k = int(rng.integers(eager.nel))
            P.make_move(k, P.R[k] + rng.normal(0, 0.25, 3))
            r_e, g_e = eager.ratio_grad(P, k)
            r_d, g_d = delayed.ratio_grad(P, k)
            assert r_d == pytest.approx(r_e, rel=1e-8)
            assert np.allclose(g_d, g_e, atol=1e-8)
            if rng.uniform() < 0.6 and abs(r_e) > 0.05:
                eager.accept_move(P, k)
                delayed.accept_move(P, k)
                P.accept_move(k)
            else:
                eager.reject_move(P, k)
                delayed.reject_move(P, k)
                P.reject_move(k)
        assert delayed.log_abs_det == pytest.approx(eager.log_abs_det,
                                                    rel=1e-8)

    def test_evaluate_gl_flushes(self, setup):
        P, spo, eager, delayed, rng = setup
        for _ in range(4):  # leaves a partial pending block (delay=3)
            k = int(rng.integers(delayed.nel))
            P.make_move(k, P.R[k] + rng.normal(0, 0.2, 3))
            delayed.ratio_grad(P, k)
            delayed.accept_move(P, k)
            P.accept_move(k)
        P.G[...] = 0
        P.L[...] = 0
        delayed.evaluate_gl(P)
        G1, L1 = P.G.copy(), P.L.copy()
        P.G[...] = 0
        P.L[...] = 0
        delayed.evaluate_log(P)  # from-scratch recompute
        assert np.allclose(G1, P.G, atol=1e-8)
        assert np.allclose(L1, P.L, atol=1e-7)

    def test_plain_ratio_path(self, setup):
        P, spo, eager, delayed, rng = setup
        k = 2
        P.make_move(k, P.R[k] + rng.normal(0, 0.2, 3))
        r_e = eager.ratio(P, k)
        r_d = delayed.ratio(P, k)
        assert r_d == pytest.approx(r_e, rel=1e-10)
        delayed.accept_move(P, k)
        eager.accept_move(P, k)
        P.accept_move(k)
        # grad after accept agrees (engine column path).
        assert np.allclose(delayed.grad(P, k), eager.grad(P, k), atol=1e-8)

    def test_buffer_roundtrip_materializes(self, setup):
        from repro.containers.buffer import WalkerBuffer
        P, spo, eager, delayed, rng = setup
        k = 1
        P.make_move(k, P.R[k] + rng.normal(0, 0.2, 3))
        delayed.ratio_grad(P, k)
        delayed.accept_move(P, k)
        P.accept_move(k)
        buf = WalkerBuffer()
        delayed.register_data(P, buf)
        buf.seal()
        buf.rewind()
        delayed.update_buffer(P, buf)  # must flush pending updates
        stored = delayed.psiM_inv.copy()
        delayed.psiM_inv[...] = 0
        buf.rewind()
        delayed.copy_from_buffer(P, buf)
        assert np.allclose(delayed.psiM_inv, stored)

    def test_usable_in_full_wavefunction(self, rng):
        """Swap delayed determinants into a full system and sweep."""
        from repro.core.system import QmcSystem
        from repro.core.version import CodeVersion
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=2,
                                       with_nlpp=False)
        parts = sys_.build(CodeVersion.CURRENT, value_dtype=np.float64)
        # Replace the two eager determinants with delayed ones.
        n = parts.n_electrons
        half = n // 2
        d_up = DiracDeterminantDelayed(parts.spo_up, 0, half, delay=4)
        d_dn = DiracDeterminantDelayed(parts.spo_dn, half, n, delay=4)
        parts.twf.components[2] = d_up
        parts.twf.components[3] = d_dn
        lp0 = parts.twf.evaluate_log(parts.electrons)
        assert np.isfinite(lp0)
        P = parts.electrons
        logpsi = lp0
        for _ in range(12):
            k = int(rng.integers(n))
            P.set_active(k)
            P.make_move(k, P.lattice.wrap(P.R[k] + rng.normal(0, 0.2, 3)))
            rho, _ = parts.twf.ratio_grad(P, k)
            if abs(rho) > 0.05:
                parts.twf.accept_move(P, k, math.log(abs(rho)))
                P.accept_move(k)
                logpsi += math.log(abs(rho))
            else:
                parts.twf.reject_move(P, k)
                P.reject_move(k)
        P.update_tables()
        assert parts.twf.evaluate_log(P) == pytest.approx(logpsi,
                                                          rel=1e-7)


class TestVirtualMovesReadTheWindow:
    """``ratio_at``/``ratios_vp`` with accepted rows still pending in the
    Woodbury window must read the effective inverse, not the stale
    stored one (NiO-32 x0.25, delay=4, two accepted moves)."""

    @pytest.fixture(scope="class")
    def pending(self):
        from repro.workloads.builder import build_system
        from repro.workloads.catalog import NIO32
        parts = build_system(NIO32, scale=0.25, seed=21, delay=4)
        P, twf = parts.electrons, parts.twf
        P.update_tables()
        twf.evaluate_log(P)
        det = twf.components[2]
        rng = np.random.default_rng(0)
        for k in (0, 1):
            P.set_active(k)
            P.make_move(k, P.R[k] + rng.normal(0, 0.1, 3))
            det.ratio_grad(P, k)
            det.accept_move(P, k)
            P.accept_move(k)
        assert det._engine.pending == 2
        fresh = DiracDeterminant(det.spo, det.first, det.last)
        fresh.recompute(P)
        return P, det, fresh

    def test_ratio_at(self, pending):
        P, det, fresh = pending
        r5 = P.R[5] + np.array([0.3, -0.2, 0.1])
        assert det.ratio_at(P, 5, r5) == pytest.approx(
            fresh.ratio_at(P, 5, r5), rel=1e-10)

    def test_ratios_vp(self, pending):
        P, det, fresh = pending
        owners = np.array([5, 5, 0, 1])
        pos = P.R[owners] + np.array([[0.3, -0.2, 0.1], [0.1, 0.2, 0.0],
                                      [0.2, 0.0, -0.1], [0.0, 0.1, 0.2]])
        np.testing.assert_allclose(det.ratios_vp(P, owners, pos),
                                   fresh.ratios_vp(P, owners, pos),
                                   rtol=1e-10)
        assert det._engine.pending == 2  # a read, not a flush
