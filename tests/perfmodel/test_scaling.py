"""Tests for the op-count scaling laws — validated against real runs."""

import pytest

from repro.core.version import CodeVersion
from repro.metrics.profile import KernelOps
from repro.perfmodel.projection import measure_workload
from repro.perfmodel.scaling import scale_opcounts, scale_ops


class TestScaleOps:
    def test_quadratic_category(self):
        ops = KernelOps(flops=100.0, rbytes=50.0, wbytes=25.0)
        out = scale_ops(ops, "J2", 2.0)
        assert out.flops == 400.0
        assert out.rbytes == 200.0

    def test_ion_coupled_category(self):
        ops = KernelOps(flops=100.0)
        # AB table: N moves x Nion sources; both double => 2^2 = 4x
        assert scale_ops(ops, "DistTable-AB", 2.0).flops == 400.0
        # fixed ion count: only the move loop doubles
        assert scale_ops(ops, "DistTable-AB", 2.0,
                         ions_scale=False).flops == 200.0

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            scale_ops(KernelOps(), "J2", 0.0)

    def test_scale_all(self):
        counts = {"J2": KernelOps(flops=1.0),
                  "DistTable-AA": KernelOps(flops=2.0)}
        out = scale_opcounts(counts, 3.0)
        assert out["J2"].flops == 9.0
        assert out["DistTable-AA"].flops == 18.0


class TestLawsAgainstMeasurements:
    def test_nio_pair_scaling(self):
        """Scaling the NiO-32 bench measurement (N=96) by 2 must predict
        the NiO-64 bench measurement (N=192) per dominant kernel within
        ~40% (constant factors and padding aside)."""
        m32 = measure_workload("NiO-32", CodeVersion.CURRENT, scale=0.25,
                               steps=1, seed=3)
        m64 = measure_workload("NiO-64", CodeVersion.CURRENT, scale=0.25,
                               steps=1, seed=3)
        ratio = m64.n_electrons / m32.n_electrons
        assert ratio == pytest.approx(2.0)
        predicted = scale_opcounts(m32.opcounts, ratio)
        for cat in ("DistTable-AA", "J2", "Bspline-vgh"):
            got = m64.opcounts[cat].flops
            pred = predicted[cat].flops
            assert got == pytest.approx(pred, rel=0.4), cat
