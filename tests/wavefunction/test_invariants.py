"""Wavefunction-level invariants: reversibility and translation symmetry."""

import math

import numpy as np
import pytest

from repro.core.system import QmcSystem
from repro.core.version import CodeVersion


@pytest.fixture(scope="module")
def parts():
    sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=5,
                                   with_nlpp=False)
    return sys_.build(CodeVersion.CURRENT, value_dtype=np.float64,
                      spline_dtype=np.float64)


class TestReversibility:
    def test_forward_backward_ratio_product_is_one(self, parts):
        """rho(R->R') * rho(R'->R) = 1 — the detailed-balance identity
        every accept/reject decision relies on."""
        P, twf = parts.electrons, parts.twf
        rng = np.random.default_rng(3)
        twf.evaluate_log(P)
        for trial in range(6):
            k = int(rng.integers(P.n))
            old = P.R[k].copy()
            rnew = P.lattice.wrap(old + rng.normal(0, 0.3, 3))
            P.make_move(k, rnew)
            rho_fwd, _ = twf.ratio_grad(P, k)
            twf.accept_move(P, k, math.log(abs(rho_fwd)))
            P.accept_move(k)
            # Propose the exact reverse move.
            P.make_move(k, old)
            rho_back, _ = twf.ratio_grad(P, k)
            twf.accept_move(P, k, math.log(abs(rho_back)))
            P.accept_move(k)
            assert rho_fwd * rho_back == pytest.approx(1.0, rel=1e-8)

    def test_null_move_ratio_is_one(self, parts):
        P, twf = parts.electrons, parts.twf
        twf.evaluate_log(P)
        for k in (0, 7, 23):
            P.make_move(k, P.R[k].copy())
            rho = twf.ratio(P, k)
            twf.reject_move(P, k)
            P.reject_move(k)
            assert rho == pytest.approx(1.0, rel=1e-9)


class TestTranslationInvariance:
    def test_lattice_vector_shift_preserves_tables(self, parts):
        """Shifting every particle by a whole lattice vector leaves all
        minimum-image distances (hence all tables) unchanged."""
        P = parts.electrons
        P.update_tables()
        aa = P.distance_tables[0]
        before = [np.asarray(aa.dist_row(i), dtype=np.float64).copy()
                  for i in range(P.n)]
        shift = P.lattice.axes[0] - 2 * P.lattice.axes[2]
        P.R[...] = P.R + shift
        P.sync_layouts()
        P.update_tables()
        for i in range(P.n):
            assert np.allclose(np.asarray(aa.dist_row(i),
                                          dtype=np.float64),
                               before[i], atol=1e-9)
        # restore
        P.R[...] = P.R - shift
        P.sync_layouts()
        P.update_tables()

    def test_rigid_shift_preserves_j2_logpsi(self, parts):
        """J2 depends only on relative coordinates: rigid translations
        (by any vector, with wrapping) leave it invariant."""
        P, twf = parts.electrons, parts.twf
        j2, = (c for c in twf.components if c.name == "J2")
        P.update_tables()
        P.G[...] = 0
        P.L[...] = 0
        lp0 = j2.evaluate_log(P)
        shift = np.array([0.37, -1.21, 2.9])
        saved = P.R.copy()
        P.R[...] = P.lattice.wrap(P.R + shift)
        P.sync_layouts()
        P.update_tables()
        P.G[...] = 0
        P.L[...] = 0
        lp1 = j2.evaluate_log(P)
        P.R[...] = saved
        P.sync_layouts()
        P.update_tables()
        assert lp1 == pytest.approx(lp0, rel=1e-10)
