"""Tests for the measure-and-project workflow."""

import pytest

from repro.core.version import CodeVersion
from repro.perfmodel.hardware import BDW, BGQ, KNL
from repro.perfmodel.projection import measure_workload


@pytest.fixture(scope="module")
def measurement():
    return measure_workload("NiO-32", CodeVersion.CURRENT, scale=0.125,
                            steps=1, seed=5)


class TestMeasureWorkload:
    def test_collects_everything(self, measurement):
        m = measurement
        assert m.workload == "NiO-32"
        assert m.n_electrons == 48
        assert m.seconds_per_sweep > 0
        assert m.throughput > 0
        assert "J2" in m.profile_seconds
        assert "DistTable-AA" in m.opcounts
        assert m.opcounts["DistTable-AA"].flops > 0

    def test_projection_positive_and_machine_dependent(self, measurement):
        t = {mach.name: measurement.project_time(mach)
             for mach in (BDW, KNL, BGQ)}
        assert all(v > 0 for v in t.values())
        # BG/Q node is the slowest of the three on any mix.
        assert t["BG/Q"] > t["KNL"]
        assert t["BG/Q"] > t["BDW"]

    def test_memory_mode_matters(self, measurement):
        flat = measurement.project_time(KNL, "flat")
        ddr = measurement.project_time(KNL, "ddr")
        assert ddr > flat
