"""Tests for the roofline model and cross-platform projections."""

import pytest

from repro.perfmodel.hardware import BDW, BGQ, KNL
from repro.metrics.profile import KernelOps
from repro.perfmodel.roofline import RooflineModel, SIMD_EFFICIENCY


def _mem_bound_ops():
    # AI = 0.25 flops/byte: clearly under every machine's ridge point
    return KernelOps(flops=1e9, rbytes=3e9, wbytes=1e9)


def _compute_bound_ops():
    # AI = 100 flops/byte
    return KernelOps(flops=1e12, rbytes=8e9, wbytes=2e9)


class TestKernelTime:
    def test_memory_bound_kernel(self):
        m = RooflineModel(KNL)
        pt = m.kernel_point("DistTable-AA", _mem_bound_ops(), "current", 4)
        assert pt.bound == "memory"
        # time = bytes / bw
        assert pt.seconds == pytest.approx(4e9 / (KNL.mem_bw_gbs * 1e9))

    def test_compute_bound_kernel(self):
        m = RooflineModel(KNL)
        pt = m.kernel_point("DistTable-AA", _compute_bound_ops(),
                            "current", 4)
        assert pt.bound == "compute"

    def test_scalar_ref_much_slower_for_compute_bound(self):
        m = RooflineModel(KNL)
        ops = _compute_bound_ops()
        t_ref = m.kernel_time("DistTable-AA", ops, "ref", 8)
        t_cur = m.kernel_time("DistTable-AA", ops, "current", 8)
        # scalar vs 90% of 8-wide vector: ~7.2x
        assert t_ref / t_cur == pytest.approx(8 * 0.9, rel=1e-6)

    def test_sp_doubles_vector_speed(self):
        m = RooflineModel(BDW)
        ops = _compute_bound_ops()
        t_dp = m.kernel_time("J2", ops, "current", 8)
        t_sp = m.kernel_time("J2", ops, "current", 4)
        assert t_dp / t_sp == pytest.approx(2.0)

    def test_bspline_ref_partially_vectorized(self):
        """Ref B-spline kernels were already vectorized, so their Ref ->
        Current gain is modest (the paper's 1.3-1.7x vs 5-8x)."""
        m = RooflineModel(BDW)
        ops = _compute_bound_ops()
        gain_bspline = (m.kernel_time("Bspline-vgh", ops, "ref", 4)
                        / m.kernel_time("Bspline-vgh", ops, "current", 4))
        gain_dist = (m.kernel_time("DistTable-AA", ops, "ref", 4)
                     / m.kernel_time("DistTable-AA", ops, "current", 4))
        assert gain_bspline < gain_dist
        assert gain_bspline < 2.5


class TestProjection:
    def test_project_totals(self):
        m = RooflineModel(KNL)
        counts = {"J2": _mem_bound_ops(), "DetUpdate": _compute_bound_ops()}
        per = m.project_run(counts, "current", 4)
        assert set(per) == {"J2", "DetUpdate"}
        assert m.project_total(counts, "current", 4) == pytest.approx(
            sum(per.values()))

    def test_knl_vector_gain_exceeds_bdw(self):
        """KNL's wider SIMD gives a larger theoretical Ref->Current gain
        for compute-bound kernels (Sec. 8.1)."""
        ops = _compute_bound_ops()
        gain = {}
        for mach in (KNL, BDW):
            m = RooflineModel(mach)
            gain[mach.name] = (m.kernel_time("J2", ops, "ref", 8)
                               / m.kernel_time("J2", ops, "current", 4))
        assert gain["KNL"] > gain["BDW"]

    def test_ceilings(self):
        m = RooflineModel(BDW)
        c = m.ceilings(8)
        assert c["peak_gflops"] == pytest.approx(BDW.peak_dp_gflops)
        assert "cache_bw_gbs" in c
        c_knl = RooflineModel(KNL).ceilings(4)
        assert "cache_bw_gbs" not in c_knl

    def test_efficiency_tables_complete(self):
        cats = {"DistTable-AA", "DistTable-AB", "J1", "J2", "Bspline-v",
                "Bspline-vgh", "SPO-vgl", "DetUpdate", "NLPP", "Other"}
        for version in ("ref", "current"):
            assert cats <= set(SIMD_EFFICIENCY[version])

    def test_unknown_category_uses_other(self):
        m = RooflineModel(KNL)
        t = m.kernel_time("SomethingNew", _compute_bound_ops(), "current", 8)
        assert t > 0
