"""Tests for the composed TrialWaveFunction.

The heavyweight checks here are the paper-relevant ones: ratio
consistency (Eq. 4's factorization), gradient/Laplacian correctness via
finite differences of the *full* log Psi, and state integrity through
accept/reject sequences.
"""

import math

import numpy as np
import pytest

from repro.core.system import QmcSystem
from repro.core.version import CodeVersion


@pytest.fixture(scope="module")
def small_parts():
    sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=5,
                                   with_nlpp=False)
    # float64 throughout so finite differences are clean
    return sys_.build(CodeVersion.CURRENT, value_dtype=np.float64,
                      spline_dtype=np.float64)


class TestEvaluateLog:
    def test_deterministic(self, small_parts):
        P, twf = small_parts.electrons, small_parts.twf
        lp1 = twf.evaluate_log(P)
        lp2 = twf.evaluate_log(P)
        assert lp1 == pytest.approx(lp2, rel=1e-14)

    def test_components_sum(self, small_parts):
        P, twf = small_parts.electrons, small_parts.twf
        total = twf.evaluate_log(P)
        parts = 0.0
        for c in twf.components:
            P.G[...] = 0
            P.L[...] = 0
            parts += c.evaluate_log(P)
        assert total == pytest.approx(parts, rel=1e-12)

    def test_gradient_fd(self, small_parts):
        P, twf = small_parts.electrons, small_parts.twf
        twf.evaluate_log(P)
        k = 5
        g = P.G[k].copy()
        eps = 1e-6
        for d in range(3):
            vals = []
            for sgn in (1, -1):
                P.R[k, d] += sgn * eps
                P.sync_layouts()
                P.update_tables()
                vals.append(twf.evaluate_log(P))
                P.R[k, d] -= sgn * eps
            P.sync_layouts()
            P.update_tables()
            fd = (vals[0] - vals[1]) / (2 * eps)
            assert g[d] == pytest.approx(fd, abs=5e-5)
        twf.evaluate_log(P)

    def test_laplacian_fd(self, small_parts):
        P, twf = small_parts.electrons, small_parts.twf
        lp0 = twf.evaluate_log(P)
        k = 2
        lap = P.L[k]
        eps = 3e-5
        acc = 0.0
        for d in range(3):
            for sgn in (1, -1):
                P.R[k, d] += sgn * eps
                P.sync_layouts()
                P.update_tables()
                acc += twf.evaluate_log(P)
                P.R[k, d] -= sgn * eps
        P.sync_layouts()
        P.update_tables()
        twf.evaluate_log(P)
        fd = (acc - 6 * lp0) / eps ** 2
        assert lap == pytest.approx(fd, rel=2e-2, abs=5e-2)


class TestRatios:
    def test_ratio_equals_log_difference(self, small_parts):
        P, twf = small_parts.electrons, small_parts.twf
        rng = np.random.default_rng(17)
        lp_old = twf.evaluate_log(P)
        k = 7
        rnew = P.lattice.wrap(P.R[k] + rng.normal(0, 0.2, 3))
        P.make_move(k, rnew)
        rho = twf.ratio(P, k)
        twf.reject_move(P, k)
        P.reject_move(k)
        old = P.R[k].copy()
        P.R[k] = rnew
        P.sync_layouts()
        P.update_tables()
        lp_new = twf.evaluate_log(P)
        P.R[k] = old
        P.sync_layouts()
        P.update_tables()
        twf.evaluate_log(P)
        assert abs(rho) == pytest.approx(math.exp(lp_new - lp_old),
                                         rel=1e-6)

    def test_ratio_grad_matches_ratio(self, small_parts):
        P, twf = small_parts.electrons, small_parts.twf
        rng = np.random.default_rng(18)
        twf.evaluate_log(P)
        k = 11
        P.make_move(k, P.lattice.wrap(P.R[k] + rng.normal(0, 0.2, 3)))
        r1 = twf.ratio(P, k)
        twf.reject_move(P, k)
        r2, g = twf.ratio_grad(P, k)
        twf.reject_move(P, k)
        P.reject_move(k)
        assert r1 == pytest.approx(r2, rel=1e-10)

    def test_grad_equals_evaluate_log_grad(self, small_parts):
        P, twf = small_parts.electrons, small_parts.twf
        twf.evaluate_log(P)
        for k in (0, 9, 20):
            assert np.allclose(twf.grad(P, k), P.G[k], atol=1e-8)

    def test_accept_reject_state_integrity(self, small_parts):
        """A run of accepts/rejects leaves internal state equal to a fresh
        evaluation (the correctness criterion for all caching)."""
        P, twf = small_parts.electrons, small_parts.twf
        rng = np.random.default_rng(19)
        logpsi = twf.evaluate_log(P)
        for _ in range(20):
            k = int(rng.integers(P.n))
            P.set_active(k)
            P.make_move(k, P.lattice.wrap(P.R[k] + rng.normal(0, 0.25, 3)))
            rho, _ = twf.ratio_grad(P, k)
            if rng.uniform() < 0.6 and abs(rho) > 1e-12:
                twf.accept_move(P, k, math.log(abs(rho)))
                P.accept_move(k)
                logpsi += math.log(abs(rho))
            else:
                twf.reject_move(P, k)
                P.reject_move(k)
        P.update_tables()
        fresh = twf.evaluate_log(P)
        assert logpsi == pytest.approx(fresh, rel=1e-7, abs=1e-6)

    def test_evaluate_gl_matches_evaluate_log(self, small_parts):
        P, twf = small_parts.electrons, small_parts.twf
        twf.evaluate_log(P)
        G1, L1 = P.G.copy(), P.L.copy()
        twf.evaluate_gl(P)
        assert np.allclose(P.G, G1, atol=1e-9)
        assert np.allclose(P.L, L1, atol=1e-8)


class TestBuffers:
    def test_buffer_roundtrip_preserves_ratios(self, small_parts):
        from repro.containers.buffer import WalkerBuffer
        P, twf = small_parts.electrons, small_parts.twf
        rng = np.random.default_rng(23)
        twf.evaluate_log(P)
        buf = WalkerBuffer()
        twf.register_data(P, buf)
        twf.update_buffer(P, buf)
        # Perturb component state, then restore from the buffer.
        k = 4
        P.make_move(k, P.lattice.wrap(P.R[k] + rng.normal(0, 0.2, 3)))
        rho_before = twf.ratio(P, k)
        twf.reject_move(P, k)
        P.reject_move(k)
        twf.copy_from_buffer(P, buf)
        # Same proposed move gives the same ratio after restore.
        P.make_move(k, P.lattice.wrap(P.R[k] + 0.1))
        r1 = twf.ratio(P, k)
        twf.reject_move(P, k)
        P.reject_move(k)
        twf.copy_from_buffer(P, buf)
        P.make_move(k, P.lattice.wrap(P.R[k] + 0.1))
        r2 = twf.ratio(P, k)
        twf.reject_move(P, k)
        P.reject_move(k)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_storage_bytes_positive(self, small_parts):
        assert small_parts.twf.storage_bytes > 0

    def test_empty_components_rejected(self):
        from repro.wavefunction.trialwf import TrialWaveFunction
        with pytest.raises(ValueError):
            TrialWaveFunction([])
