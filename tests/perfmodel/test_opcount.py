"""Tests for the op counts kernels record on the ``METRICS`` scope tree —
the roofline model's input."""

import pytest

from repro.metrics.profile import KernelOps
from repro.metrics.registry import METRICS, MetricsRegistry


class TestOpCounter:
    def test_disabled_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.record(flops=100)
        with reg.profile_run("run"):
            pass
        reg.record(flops=100)
        assert reg.flat() == {}
        assert reg._merged_root().flops == 0

    def test_enabled_accumulates(self):
        reg = MetricsRegistry(enabled=True)
        with reg.scope("J2"):
            reg.record(flops=100, rbytes=40, wbytes=10)
            reg.record(flops=50)
        entry = reg.flat()["J2"]
        k = KernelOps(entry["flops"], entry["rbytes"], entry["wbytes"])
        assert k.flops == 150
        assert k.bytes_moved == 50

    def test_arithmetic_intensity(self):
        k = KernelOps(flops=100, rbytes=40, wbytes=10)
        assert k.arithmetic_intensity == pytest.approx(2.0)
        assert KernelOps().arithmetic_intensity == 0.0

    def test_totals_are_snapshots(self):
        reg = MetricsRegistry(enabled=True)
        with reg.profile_run("A") as prof:
            with reg.scope("J1"):
                reg.record(flops=1)
        with reg.scope("J1"):
            reg.record(flops=1)
        assert prof.ops["J1"].flops == 1
        assert reg.flat()["J1"]["flops"] == 1

    def test_reset(self):
        reg = MetricsRegistry(enabled=True)
        with reg.scope("A"):
            reg.record(flops=5)
        reg.reset()
        assert reg.flat() == {}
        assert reg._merged_root().flops == 0

    def test_enabled_scope(self):
        """``profile_run`` arms a disarmed registry for its block only."""
        reg = MetricsRegistry(enabled=False)
        with reg.profile_run("run") as prof:
            with reg.scope("DetUpdate"):
                reg.record(flops=3)
        with reg.scope("DetUpdate"):
            reg.record(flops=99)
        assert prof.ops == {"DetUpdate": KernelOps(flops=3)}
        assert not reg.enabled

    def test_global_counter_wired_to_kernels(self, rng):
        """A real kernel under its category scope records on that scope."""
        from repro.distances.factory import create_aa_table
        from repro.lattice.cell import CrystalLattice
        from repro.particles.particleset import ParticleSet
        lat = CrystalLattice.cubic(5.0)
        P = ParticleSet("e", rng.uniform(0, 5, (8, 3)), lat)
        t = create_aa_table(8, lat, "otf")
        with METRICS.profile_run("kernels") as prof:
            with METRICS.scope(t.category):
                t.evaluate(P)
                t.move(P, P.R[0] + 0.1, 0)
        assert set(prof.ops) == {"DistTable-AA"}
        assert prof.ops["DistTable-AA"].flops > 0
        assert prof.ops["DistTable-AA"].bytes_moved > 0
