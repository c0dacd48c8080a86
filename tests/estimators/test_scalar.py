"""Tests for the scalar estimator framework."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.estimators.scalar import (
    EstimatorManager, ScalarEstimate, equilibration_index,
)


class TestEquilibration:
    def test_stationary_series_keeps_everything(self):
        x = np.random.default_rng(0).normal(size=500)
        assert equilibration_index(x) == 0

    def test_drifting_warmup_discarded(self):
        rng = np.random.default_rng(1)
        warm = np.linspace(10.0, 0.0, 150) + 0.1 * rng.normal(size=150)
        flat = 0.1 * rng.normal(size=850)
        x = np.concatenate([warm, flat])
        t0 = equilibration_index(x)
        assert t0 >= 100

    def test_short_series(self):
        assert equilibration_index(np.ones(4)) == 0


class TestEstimatorManager:
    def test_unweighted_mean(self):
        em = EstimatorManager()
        for v in (1.0, 2.0, 3.0, 4.0):
            em.accumulate("x", v)
        est = em.estimate("x", discard_equilibration=False)
        assert est.mean == pytest.approx(2.5)
        assert est.n_samples == 4

    def test_weighted_mean(self):
        em = EstimatorManager()
        em.accumulate("x", 1.0, weight=3.0)
        em.accumulate("x", 5.0, weight=1.0)
        est = em.estimate("x", discard_equilibration=False)
        assert est.mean == pytest.approx(2.0)

    def test_negative_weight_rejected(self):
        em = EstimatorManager()
        with pytest.raises(ValueError):
            em.accumulate("x", 1.0, weight=-1.0)

    def test_accumulate_block_equals_per_sample_accumulate(self):
        values = np.array([1.5, -2.0, 3.25])
        weights = np.array([1.0, 0.0, 2.5])
        block, loop = EstimatorManager(), EstimatorManager()
        block.accumulate("x", 9.0, 1.0)
        loop.accumulate("x", 9.0, 1.0)
        block.accumulate_block("x", values, weights)
        for v, w in zip(values, weights):
            loop.accumulate("x", float(v), float(w))
        assert block._samples == loop._samples
        assert block._weights == loop._weights
        with pytest.raises(ValueError):
            block.accumulate_block("x", values, np.array([1.0, -1.0, 1.0]))
        assert block._samples == loop._samples  # nothing appended

    def test_accumulate_many_and_names(self):
        em = EstimatorManager()
        em.accumulate_many({"a": 1.0, "b": 2.0})
        assert em.names() == ["a", "b"]
        assert em.series("a").tolist() == [1.0]

    def test_error_corrected_for_correlation(self):
        rng = np.random.default_rng(2)
        em_white = EstimatorManager()
        em_corr = EstimatorManager()
        x = rng.normal(size=2048)
        y = np.convolve(rng.normal(size=2300), np.ones(16) / 4.0,
                        mode="valid")[:2048]
        for v in x:
            em_white.accumulate("e", v)
        for v in y:
            em_corr.accumulate("e", v)
        err_w = em_white.estimate("e").error
        err_c = em_corr.estimate("e").error
        naive_c = np.std(y, ddof=1) / np.sqrt(y.size)
        assert err_c > 1.5 * naive_c  # blocking catches the correlation
        assert err_w < 2.5 * np.std(x, ddof=1) / np.sqrt(x.size)

    def test_single_sample(self):
        em = EstimatorManager()
        em.accumulate("x", 7.0)
        est = em.estimate("x")
        assert est.mean == 7.0
        assert np.isnan(est.error)

    def test_report_and_clear(self):
        em = EstimatorManager()
        for v in range(10):
            em.accumulate("E", float(v))
        text = em.report()
        assert "E:" in text
        em.clear()
        assert em.names() == []

    @settings(max_examples=20)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=50))
    def test_mean_within_range(self, values):
        em = EstimatorManager()
        for v in values:
            em.accumulate("x", v)
        est = em.estimate("x", discard_equilibration=False)
        assert min(values) - 1e-9 <= est.mean <= max(values) + 1e-9


class TestDriverIntegration:
    def test_vmc_collects_estimates(self):
        from repro.core.system import QmcSystem, run_vmc
        from repro.core.version import CodeVersion
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=6,
                                       with_nlpp=False)
        res = run_vmc(sys_, CodeVersion.CURRENT, walkers=2, steps=3,
                      seed=4)
        assert res.estimators is not None
        names = res.estimators.names()
        assert "LocalEnergy" in names
        assert "Kinetic" in names
        assert "ElecElec" in names
        est = res.estimators.estimate("LocalEnergy",
                                      discard_equilibration=False)
        assert est.n_samples == 6  # 2 walkers x 3 steps
        assert np.isfinite(est.mean)
