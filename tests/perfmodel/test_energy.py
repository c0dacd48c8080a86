"""Tests for the energy model (Fig. 10's engine)."""

import numpy as np
import pytest

from repro.perfmodel.energy import EnergyModel, PowerTrace
from repro.perfmodel.hardware import KNL


class TestPowerTrace:
    def test_energy_integral(self):
        tr = PowerTrace(np.array([0.0, 10.0]), np.array([100.0, 100.0]))
        assert tr.energy_joules == pytest.approx(1000.0)

    def test_short_trace(self):
        tr = PowerTrace(np.array([0.0]), np.array([100.0]))
        assert tr.energy_joules == 0.0

    def test_mean(self):
        tr = PowerTrace(np.array([0.0, 1.0]), np.array([100.0, 200.0]))
        assert tr.mean_watts == 150.0


class TestEnergyModel:
    def test_dmc_band_is_flat(self):
        """The paper: power fluctuates within 210-215 W on KNL."""
        em = EnergyModel(KNL, sample_period_s=5.0)
        tr = em.trace(init_seconds=0.0, dmc_seconds=500.0)
        assert tr.watts.min() > KNL.power_watts * 0.98
        assert tr.watts.max() < KNL.power_watts * 1.02

    def test_init_draws_less_power(self):
        em = EnergyModel(KNL)
        tr = em.trace(init_seconds=100.0, dmc_seconds=100.0)
        early = tr.watts[tr.times < 100.0]
        late = tr.watts[tr.times >= 100.0]
        assert early.mean() < 0.7 * late.mean()

    def test_energy_ratio_equals_speedup(self):
        """Fig. 10's headline: excluding init, energy reduction ~ speedup."""
        em = EnergyModel(KNL)
        t_ref, t_cur = 600.0, 250.0  # 2.4x speedup
        tr_ref = em.trace(50.0, t_ref)
        tr_cur = em.trace(50.0, t_cur)
        ratio = EnergyModel.energy_ratio(tr_ref, tr_cur, init_ref=50.0,
                                         init_cur=50.0)
        assert ratio == pytest.approx(t_ref / t_cur, rel=0.06)
