"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro.core.system import QmcSystem, run_dmc, run_vmc
from repro.core.version import CodeVersion
from repro.metrics.registry import METRICS


class TestFullPipeline:
    @pytest.mark.parametrize("version", list(CodeVersion),
                             ids=lambda v: v.label)
    def test_vmc_all_versions_all_finite(self, version):
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=8,
                                       with_nlpp=False)
        res = run_vmc(sys_, version, walkers=2, steps=2, seed=5)
        assert np.all(np.isfinite(res.energies))
        assert 0 < res.acceptance <= 1

    @pytest.mark.parametrize("workload", ["Graphite", "Be-64", "NiO-32"])
    def test_workloads_run(self, workload):
        sys_ = QmcSystem.from_workload(workload, scale=0.06, seed=8,
                                       with_nlpp=False)
        res = run_vmc(sys_, CodeVersion.CURRENT, walkers=2, steps=2, seed=5)
        assert np.all(np.isfinite(res.energies))

    def test_with_nlpp_runs(self):
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=8,
                                       with_nlpp=True)
        res = run_vmc(sys_, CodeVersion.CURRENT, walkers=2, steps=2, seed=5)
        assert np.all(np.isfinite(res.energies))

    def test_current_faster_than_ref(self):
        """The paper's headline on this substrate: the SoA/OTF/MP build
        beats the AoS store-everything build."""
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.25, seed=8,
                                       with_nlpp=False)
        thr = {}
        for v in (CodeVersion.REF, CodeVersion.CURRENT):
            res = run_vmc(sys_, v, walkers=2, steps=2, seed=5)
            thr[v] = res.throughput
        assert thr[CodeVersion.CURRENT] > 1.5 * thr[CodeVersion.REF]

    def test_opcounts_collected_during_run(self):
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=8,
                                       with_nlpp=False)
        totals = run_vmc(sys_, CodeVersion.CURRENT, walkers=1, steps=1,
                         seed=5, profile=True).profile.ops
        # Drift VMC exercises the vgh path; Bspline-v appears on the
        # ratio-only paths (no-drift moves, NLPP probes).
        for cat in ("DistTable-AA", "DistTable-AB", "J1", "J2",
                    "Bspline-vgh", "DetUpdate"):
            assert cat in totals, cat
            assert totals[cat].flops > 0 or totals[cat].bytes_moved > 0

    def test_bspline_v_counted_on_ratio_path(self):
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=8,
                                       with_nlpp=False)
        prof = run_vmc(sys_, CodeVersion.CURRENT, walkers=1, steps=1,
                       use_drift=False, seed=5, profile=True).profile
        assert prof.ops["Bspline-v"].flops > 0
        assert prof.seconds["Bspline-v"] > 0

    def test_throughput_scales_with_walkers(self):
        """Per-step work is deterministic: every generation sweeps each
        electron of each walker exactly once, so the total move count
        scales exactly with the walker count.  (Asserting on wall-clock
        throughput here was flaky on loaded CI machines.)"""
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=8,
                                       with_nlpp=False)
        parts = sys_.build(CodeVersion.CURRENT)
        n = parts.electrons.n
        r2 = run_vmc(sys_, CodeVersion.CURRENT, walkers=2, steps=2,
                     parts=parts, seed=5)
        parts2 = sys_.build(CodeVersion.CURRENT)
        r4 = run_vmc(sys_, CodeVersion.CURRENT, walkers=4, steps=2,
                     parts=parts2, seed=5)
        assert r2.extra["moves"] == 2 * 2 * n
        assert r4.extra["moves"] == 4 * 2 * n
        assert r4.extra["moves"] == 2 * r2.extra["moves"]
        assert 0 < r2.extra["accepted"] <= r2.extra["moves"]
        assert 0 < r4.extra["accepted"] <= r4.extra["moves"]


def _counter(scope: dict, name: str) -> float:
    """``name`` summed over a snapshot scope and everything below it."""
    return (scope.get("counters", {}).get(name, 0)
            + sum(_counter(c, name) for c in scope.get("children", ())))


class TestNlppOpCounts:
    """The NLPP quadrature's work is timed and counted in the category
    whose kernel does it."""

    def _run(self, version, with_nlpp):
        """(profile, NLPP ratio points of that run, parts).  The points
        are read off the run's own ``VMC`` subtree: walker creation
        before it evaluates the NLPP too."""
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=8,
                                       with_nlpp=with_nlpp)
        parts = sys_.build(version)
        was = METRICS.enabled
        METRICS.enable()
        METRICS.reset()
        try:
            prof = run_vmc(sys_, version, walkers=1, steps=1, seed=5,
                           parts=parts, profile=True).profile
            (run,) = [s for s in METRICS.snapshot()["scopes"]
                      if s["name"] == "VMC"]
            points = _counter(run, "nlpp_ratio_points")
        finally:
            METRICS.enabled = was
            METRICS.reset()
        return prof, points, parts

    def test_ref_virtual_moves_count_their_jastrow_rows(self):
        """Each Ref ``ratio_at`` records at least its value-only row:
        12 flops per electron (J2) and per ion (J1)."""
        plain, none, _ = self._run(CodeVersion.REF, False)
        nlpp, points, parts = self._run(CodeVersion.REF, True)
        assert none == 0 and points > 0
        for cat, per_point in (("J2", 12.0 * parts.n_electrons),
                               ("J1", 12.0 * parts.n_ions)):
            extra = nlpp.ops[cat].flops - plain.ops[cat].flops
            assert extra >= per_point * points, cat

    def test_current_nlpp_spo_values_are_a_bspline_v_row(self):
        """A drift run evaluates SPO values only on the NLPP slab; that
        slab's seconds and flops both land in Bspline-v."""
        prof, points, _ = self._run(CodeVersion.CURRENT, True)
        assert points > 0
        assert prof.seconds.get("Bspline-v", 0.0) > 0
        assert prof.ops["Bspline-v"].flops > 0


class TestDmcPipeline:
    def test_dmc_with_branching_and_profile(self):
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=8,
                                       with_nlpp=False)
        res = run_dmc(sys_, CodeVersion.CURRENT, walkers=4, steps=6,
                      timestep=0.005, profile=True, seed=5)
        assert res.profile is not None
        assert len(res.populations) == 6
        assert np.all(np.isfinite(res.trial_energies))

    def test_dmc_energy_below_vmc(self):
        """DMC projects toward the ground state: its mixed estimator
        should not sit above the VMC energy (statistically, for this
        seed)."""
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=8,
                                       with_nlpp=False)
        vmc = run_vmc(sys_, CodeVersion.CURRENT, walkers=4, steps=6,
                      timestep=0.3, seed=5)
        dmc = run_dmc(sys_, CodeVersion.CURRENT, walkers=4, steps=6,
                      timestep=0.005, seed=5)
        # loose check: same order of magnitude and DMC not much higher
        assert dmc.mean_energy < vmc.mean_energy + 3 * abs(vmc.mean_energy) \
            * 0.2
