"""Tests for the one-body Jastrow, both flavors."""

import math

import numpy as np
import pytest


def _brute_logpsi_j1(setup):
    total = 0.0
    for k in range(setup.n):
        for I in range(setup.ions.n):
            d = setup.lat.min_image_dist(setup.ions.R[I] - setup.P.R[k])
            f = setup.j1f[int(setup.ions.species_ids[I])]
            total -= f.evaluate_v_scalar(float(d))
    return total


class TestEvaluateLog:
    def test_otf_matches_brute_force(self, jsetup):
        jsetup.P.G[...] = 0
        jsetup.P.L[...] = 0
        lp = jsetup.j1_otf.evaluate_log(jsetup.P)
        assert lp == pytest.approx(_brute_logpsi_j1(jsetup), rel=1e-10)

    def test_ref_matches_otf(self, jsetup):
        P = jsetup.P
        P.G[...] = 0
        P.L[...] = 0
        lp_otf = jsetup.j1_otf.evaluate_log(P)
        g_otf, l_otf = P.G.copy(), P.L.copy()
        P.G[...] = 0
        P.L[...] = 0
        lp_ref = jsetup.j1_ref.evaluate_log(P)
        assert lp_ref == pytest.approx(lp_otf, rel=1e-10)
        assert np.allclose(P.G, g_otf, atol=1e-10)
        assert np.allclose(P.L, l_otf, atol=1e-10)

    def test_gradient_matches_fd(self, jsetup):
        P = jsetup.P
        k, eps = 1, 1e-6
        P.G[...] = 0
        P.L[...] = 0
        jsetup.j1_otf.evaluate_log(P)
        g = P.G[k].copy()
        for d in range(3):
            vals = []
            for sgn in (1, -1):
                P.R[k, d] += sgn * eps
                P.sync_layouts()
                P.update_tables()
                P.G[...] = 0
                P.L[...] = 0
                vals.append(jsetup.j1_otf.evaluate_log(P))
                P.R[k, d] -= sgn * eps
            assert g[d] == pytest.approx((vals[0] - vals[1]) / (2 * eps),
                                         abs=2e-5)
        P.sync_layouts()
        P.update_tables()


class TestRatios:
    @pytest.mark.parametrize("flavor", ["otf", "ref"])
    def test_ratio_matches_recompute(self, jsetup, flavor):
        P = jsetup.P
        j1 = jsetup.j1_otf if flavor == "otf" else jsetup.j1_ref
        P.G[...] = 0
        P.L[...] = 0
        lp_old = j1.evaluate_log(P)
        k = 2
        rnew = jsetup.lat.wrap(P.R[k] + jsetup.rng.normal(0, 0.4, 3))
        P.make_move(k, rnew)
        rho = j1.ratio(P, k)
        j1.reject_move(P, k)
        P.reject_move(k)
        old = P.R[k].copy()
        P.R[k] = rnew
        P.sync_layouts()
        P.update_tables()
        P.G[...] = 0
        P.L[...] = 0
        fresh = type(j1)(jsetup.n, jsetup.ions.species_ids, jsetup.j1f,
                         j1.table_index)
        lp_new = fresh.evaluate_log(P)
        P.R[k] = old
        P.sync_layouts()
        P.update_tables()
        assert rho == pytest.approx(math.exp(lp_new - lp_old), rel=1e-8)

    def test_flavors_agree_through_walk(self, jsetup):
        P = jsetup.P
        P.G[...] = 0
        P.L[...] = 0
        jsetup.j1_otf.evaluate_log(P)
        P.G[...] = 0
        P.L[...] = 0
        jsetup.j1_ref.evaluate_log(P)
        for _ in range(10):
            k = int(jsetup.rng.integers(jsetup.n))
            rnew = jsetup.lat.wrap(P.R[k] + jsetup.rng.normal(0, 0.4, 3))
            P.make_move(k, rnew)
            r_otf, g_otf = jsetup.j1_otf.ratio_grad(P, k)
            r_ref, g_ref = jsetup.j1_ref.ratio_grad(P, k)
            assert r_ref == pytest.approx(r_otf, rel=1e-9)
            assert np.allclose(g_ref, g_otf, atol=1e-9)
            if jsetup.rng.uniform() < 0.7:
                jsetup.j1_otf.accept_move(P, k)
                jsetup.j1_ref.accept_move(P, k)
                P.accept_move(k)
            else:
                jsetup.j1_otf.reject_move(P, k)
                jsetup.j1_ref.reject_move(P, k)
                P.reject_move(k)
        # ref stored state still matches a fresh otf evaluation
        P.G[...] = 0
        P.L[...] = 0
        lp_otf = jsetup.j1_otf.evaluate_log(P)
        assert float(-np.sum(jsetup.j1_ref.U)) == pytest.approx(lp_otf,
                                                                rel=1e-9)

    def test_species_resolved(self, jsetup):
        """Different ion species must use their own functors."""
        P = jsetup.P
        # Put one electron exactly between an A ion and a B ion won't be
        # equal contributions because the functors differ.
        fa = jsetup.j1f[0].evaluate_v_scalar(1.0)
        fb = jsetup.j1f[1].evaluate_v_scalar(1.0)
        assert fa != pytest.approx(fb)


class TestStorage:
    def test_storage_linear(self, jsetup):
        assert jsetup.j1_ref.storage_bytes == 5 * jsetup.n * 8
        assert jsetup.j1_otf.storage_bytes == 5 * jsetup.n * 8
