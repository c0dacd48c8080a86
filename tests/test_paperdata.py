"""Cross-checks: the implementation agrees with the recorded paper data."""

import pytest

from repro import paperdata
from repro.core.version import CodeVersion
from repro.memory.model import MemoryModel
from repro.perfmodel.hardware import BDW, KNL
from repro.workloads.catalog import WORKLOADS


class TestCatalogAgreesWithPaper:
    @pytest.mark.parametrize("name", list(paperdata.TABLE1))
    def test_table1_counts(self, name):
        wl = WORKLOADS[name]
        t1 = paperdata.TABLE1[name]
        assert wl.n_electrons == t1["N"]
        assert wl.n_ions == t1["Nion"]
        assert wl.ions_per_cell == t1["ions_per_cell"]
        assert wl.n_cells == t1["cells"]
        assert wl.unique_spos == t1["unique_spos"]
        assert wl.fft_grid == t1["fft_grid"]
        assert wl.bspline_gb_paper == t1["bspline_gb"]

    @pytest.mark.parametrize("name", list(paperdata.TABLE1))
    def test_zstars(self, name):
        wl = WORKLOADS[name]
        for sp_name, z in paperdata.TABLE1[name]["zstar"].items():
            assert wl.species_by_name(sp_name).zstar == z


class TestModelsAgreeWithPaper:
    def test_smt_gains(self):
        assert BDW.smt2_gain == pytest.approx(
            paperdata.SEC82["smt2_gain"]["BDW"])
        assert KNL.smt2_gain == pytest.approx(
            paperdata.SEC82["smt2_gain"]["KNL"])

    def test_ddr_ratio_near_paper(self):
        ratio = KNL.effective_bw_gbs("flat") / KNL.effective_bw_gbs("ddr")
        assert ratio == pytest.approx(
            paperdata.SEC82["ddr_slowdown"]["NiO-64"], rel=0.1)

    def test_gamma_min(self):
        m = MemoryModel(WORKLOADS["NiO-64"])
        assert m.gamma_bytes(CodeVersion.REF) == pytest.approx(
            paperdata.MEMORY["gamma_min_bytes"], rel=0.01)

    def test_j2_message_reduction(self):
        n = WORKLOADS["NiO-64"].n_electrons
        mb = (5 * n * n * 8 - 5 * n * 8) / 1024.0 ** 2
        assert mb == pytest.approx(
            paperdata.MEMORY["j2_message_reduction_mb"], rel=0.02)

    def test_nio64_memory_saving_in_band(self):
        m = MemoryModel(WORKLOADS["NiO-64"])
        ref = m.breakdown(CodeVersion.REF, 128,
                          paperdata.FIG8["population"]["KNL"]).total_gb
        cur = m.breakdown(CodeVersion.CURRENT, 128,
                          paperdata.FIG8["population"]["KNL"]).total_gb
        saving = ref - cur
        assert saving == pytest.approx(
            paperdata.FIG8["nio64_memory_saving_gb"], rel=0.15)
        assert cur < paperdata.MEMORY["mcdram_gb"]

    def test_knl_power_in_band(self):
        lo, hi = paperdata.FIG10["knl_power_band_watts"]
        assert lo <= KNL.power_watts <= hi

    def test_speedup_window_consistency(self):
        lo, hi = paperdata.FIG1["speedup_window"]
        for machine, cols in paperdata.TABLE2_SPEEDUPS.items():
            for wl, sp in cols.items():
                if machine in ("BDW", "KNL"):
                    # Table 2's x86 entries fall in (or near) Fig. 1's
                    # quoted 2-4.5x window (NiO-64/BDW is the 5.2 outlier)
                    assert lo * 0.9 <= sp <= hi * 1.2, (machine, wl)
