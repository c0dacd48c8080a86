"""Tests for the scalar estimators every run reports through.

A run's scalar estimators (E_L and each Hamiltonian term, per walker,
weighted) are one :class:`repro.stats.online.OnlineScalarStats` fed by
the run's :class:`repro.output.stream.StreamSet`; ``result.online`` is
that object, with or without a trace file.  ``TestEstimatorManager``
pins the estimator-manager contract on it: weighted means, corrected
error bars, rejected negative weights, row adds equal to per-sample
adds.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.online import OnlineScalarStats


def _states_equal(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    assert sorted(sa) == sorted(sb)
    for name in sa:
        for key in sa[name]:
            assert np.array_equal(sa[name][key], sb[name][key]), (name, key)


class TestEstimatorManager:
    def test_unweighted_mean(self):
        stats = OnlineScalarStats()
        for v in (1.0, 2.0, 3.0, 4.0):
            stats.add("x", v)
        est = stats.estimate("x")
        assert est.mean == pytest.approx(2.5)
        assert est.weighted_mean == pytest.approx(2.5)
        assert est.n == 4

    def test_weighted_mean(self):
        stats = OnlineScalarStats()
        stats.add("x", 1.0, weight=3.0)
        stats.add("x", 5.0, weight=1.0)
        assert stats.estimate("x").weighted_mean == pytest.approx(2.0)

    def test_negative_weight_rejected(self):
        stats = OnlineScalarStats()
        stats.add_array("E", [1.0, 2.0], [1.0, 0.5])
        with pytest.raises(ValueError, match="non-negative"):
            stats.add_array("E", [3.0, 4.0], np.array([1.0, -1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            stats.add("E", 5.0, weight=-0.5)
        with pytest.raises(ValueError, match="non-negative"):
            stats.add_array("F", [3.0], [-1.0])
        assert stats.count("E") == 2  # a rejected row adds nothing
        assert stats.names() == ["E"]

    def test_accumulate_block_equals_per_sample_accumulate(self):
        values = np.array([1.5, -2.0, 3.25])
        weights = np.array([1.0, 0.0, 2.5])
        block, loop = OnlineScalarStats(), OnlineScalarStats()
        block.add("x", 9.0, 1.0)
        loop.add("x", 9.0, 1.0)
        block.add_array("x", values, weights)
        for v, w in zip(values, weights):
            loop.add("x", float(v), float(w))
        _states_equal(block, loop)
        with pytest.raises(ValueError):
            block.add_array("x", values, np.array([1.0, -1.0, 1.0]))
        _states_equal(block, loop)  # nothing added

    def test_accumulate_many_and_names(self):
        stats = OnlineScalarStats()
        stats.add_array("b", [2.0, 3.0])
        stats.add_array("a", [1.0])
        assert stats.names() == ["a", "b"]
        assert (stats.count("a"), stats.count("b")) == (1, 2)

    def test_error_corrected_for_correlation(self):
        rng = np.random.default_rng(2)
        white, corr = OnlineScalarStats(), OnlineScalarStats()
        x = rng.normal(size=2048)
        y = np.convolve(rng.normal(size=2300), np.ones(16) / 4.0,
                        mode="valid")[:2048]
        white.add_array("e", x)
        corr.add_array("e", y)
        err_w = white.estimate("e").error
        err_c = corr.estimate("e").error
        naive_c = np.std(y, ddof=1) / np.sqrt(y.size)
        assert err_c > 1.5 * naive_c  # blocking catches the correlation
        assert err_w < 2.5 * np.std(x, ddof=1) / np.sqrt(x.size)

    def test_single_sample(self):
        stats = OnlineScalarStats()
        stats.add("x", 7.0)
        est = stats.estimate("x")
        assert est.mean == 7.0
        assert np.isnan(est.error)

    @settings(max_examples=20)
    @given(st.lists(st.floats(-100, 100), min_size=2, max_size=50))
    def test_mean_within_range(self, values):
        stats = OnlineScalarStats()
        stats.add_array("x", values)
        est = stats.estimate("x")
        assert min(values) - 1e-9 <= est.mean <= max(values) + 1e-9


class TestDriverIntegration:
    def test_vmc_collects_estimates(self):
        """Without a StreamSet a run still reports its estimators: an
        in-memory one collects them."""
        from repro.core.system import QmcSystem, run_vmc
        from repro.core.version import CodeVersion
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=6,
                                       with_nlpp=False)
        res = run_vmc(sys_, CodeVersion.CURRENT, walkers=2, steps=3,
                      seed=4)
        names = res.online.names()
        assert "LocalEnergy" in names
        assert "Kinetic" in names
        assert "ElecElec" in names
        est = res.online.estimate("LocalEnergy")
        assert est.n == 6  # 2 walkers x 3 steps
        assert np.isfinite(est.mean)
