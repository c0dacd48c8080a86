"""Tests for the analytic memory model against the paper's numbers."""

import pytest

from repro.core.version import CodeVersion
from repro.memory.model import GB, MemoryModel
from repro.workloads.catalog import BE64, GRAPHITE, NIO32, NIO64, WORKLOADS


class TestTable1:
    @pytest.mark.parametrize("wl", list(WORKLOADS.values()),
                             ids=lambda w: w.name)
    def test_bspline_gb_matches_paper(self, wl):
        """Table 1's B-spline (GB) row, within 10%."""
        model = MemoryModel(wl)
        assert model.table1_bspline_gb() == pytest.approx(
            wl.bspline_gb_paper, rel=0.10)


class TestGamma:
    def test_gamma_min_is_60_bytes(self):
        """'the minimum is 60 bytes to store J2 and determinant objects in
        double precision' (Sec. 8.2)."""
        m = MemoryModel(NIO64)
        assert m.gamma_bytes(CodeVersion.REF) == pytest.approx(60.0,
                                                               rel=0.01)

    def test_mp_halves_gamma(self):
        m = MemoryModel(NIO64)
        assert m.gamma_bytes(CodeVersion.REF_MP) == pytest.approx(30.0,
                                                                  rel=0.01)

    def test_current_gamma_tiny(self):
        """Compute-on-the-fly deletes the J2 matrices: gamma drops to the
        determinant-only 10 bytes (2 spins x 5 x (N/2)^2 x 4B / N^2)."""
        m = MemoryModel(NIO64)
        assert m.gamma_bytes(CodeVersion.CURRENT) == pytest.approx(
            10.0, rel=0.05)


class TestFig8Fig9:
    def test_nio64_ref_to_current_saves_about_36gb(self):
        """Fig. 8: 'the memory usage has gone down dramatically as much as
        36 GB from Ref for the NiO-64 benchmark'."""
        m = MemoryModel(NIO64)
        ref = m.breakdown(CodeVersion.REF, 128, 1024).total_gb
        cur = m.breakdown(CodeVersion.CURRENT, 128, 1024).total_gb
        assert 28.0 < ref - cur < 42.0

    def test_nio64_current_fits_mcdram(self):
        """'the total memory footprint is less than 16 GB'."""
        m = MemoryModel(NIO64)
        assert m.breakdown(CodeVersion.CURRENT, 128, 1024).total_gb < 16.0

    def test_nio64_ref_exceeds_mcdram(self):
        m = MemoryModel(NIO64)
        assert m.breakdown(CodeVersion.REF, 128, 1024).total_gb > 16.0

    def test_ordering_ref_mp_current(self):
        for wl in WORKLOADS.values():
            m = MemoryModel(wl)
            ref = m.breakdown(CodeVersion.REF, 128, 1024).total_gb
            mp = m.breakdown(CodeVersion.REF_MP, 128, 1024).total_gb
            cur = m.breakdown(CodeVersion.CURRENT, 128, 1024).total_gb
            assert ref > mp > cur

    def test_memory_grows_with_problem_size(self):
        for v in CodeVersion:
            small = MemoryModel(NIO32).breakdown(v, 128, 1024).total_gb
            big = MemoryModel(NIO64).breakdown(v, 128, 1024).total_gb
            assert big > small

    def test_quadratic_walker_scaling(self):
        """Per-walker bytes scale ~N^2 between NiO-32 and NiO-64."""
        w32 = MemoryModel(NIO32).walker_bytes(CodeVersion.REF)
        w64 = MemoryModel(NIO64).walker_bytes(CodeVersion.REF)
        assert w64 / w32 == pytest.approx((768 / 384) ** 2, rel=0.02)

    def test_breakdown_formatting(self):
        b = MemoryModel(NIO32).breakdown(CodeVersion.REF, 64, 512)
        assert "GB" in b.format_row()
        assert b.total_bytes == pytest.approx(
            b.spline_table + 512 * b.per_walker + 64 * b.per_thread)
