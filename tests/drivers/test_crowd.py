"""Tests for per-thread cloning and the crowd driver (Fig. 4 structure)."""

import dataclasses

import numpy as np
import pytest

from repro.core.system import QmcSystem
from repro.core.version import CodeVersion
from repro.drivers.crowd import CrowdDriver, clone_parts, shared_functors
from repro.wavefunction.trialwf import TrialWaveFunction


@pytest.fixture(scope="module")
def parts():
    sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=6,
                                   with_nlpp=False)
    return sys_.build(CodeVersion.CURRENT, value_dtype=np.float64)


class TestCloneParts:
    def test_clone_shares_readonly_resources(self, parts):
        c = clone_parts(parts)
        assert c.ions is parts.ions              # fixed ion set shared
        assert c.spo_up.spline is parts.spo_up.spline  # big table shared
        j2a = parts.twf.component_by_name("J2")
        j2b = c.twf.component_by_name("J2")
        for key in j2a.functors:
            assert j2b.functors[key] is j2a.functors[key]

    def test_clone_has_private_mutable_state(self, parts):
        c = clone_parts(parts)
        assert c.electrons is not parts.electrons
        assert c.electrons.R is not parts.electrons.R
        assert c.twf is not parts.twf
        # Moving a clone's electron must not leak into the original.
        before = parts.electrons.R[0].copy()
        c.electrons.R[0] += 1.0
        assert np.allclose(parts.electrons.R[0], before)

    def test_clone_tables_independent(self, parts):
        c = clone_parts(parts)
        ta = parts.electrons.distance_tables[0]
        tb = c.electrons.distance_tables[0]
        assert ta is not tb
        tb.distances[0, 1] = -99.0
        assert ta.distances[0, 1] != -99.0

    def test_clone_evaluates_identically(self, parts):
        c = clone_parts(parts)
        lp_a = parts.twf.evaluate_log(parts.electrons)
        lp_b = c.twf.evaluate_log(c.electrons)
        assert lp_a == pytest.approx(lp_b, rel=1e-12)

    def test_clone_without_j2(self, parts):
        """Regression: cloning must not assume a J2 component exists."""
        no_j2 = dataclasses.replace(parts, twf=TrialWaveFunction(
            [c for c in parts.twf.components
             if getattr(c, "name", "") != "J2"]))
        c = clone_parts(no_j2)  # used to raise KeyError("J2")
        assert c.twf is not no_j2.twf
        # The remaining functor-bearing components still share functors.
        j1a = no_j2.twf.component_by_name("J1")
        j1b = c.twf.component_by_name("J1")
        for key in j1a.functors:
            assert j1b.functors[key] is j1a.functors[key]

    def test_clone_determinant_only(self, parts):
        """No functor-bearing component at all: cloning still works."""
        det_only = dataclasses.replace(parts, twf=TrialWaveFunction(
            [c for c in parts.twf.components
             if not hasattr(c, "functors")]))
        assert list(shared_functors(det_only.twf)) == []
        c = clone_parts(det_only)
        assert c.twf is not det_only.twf
        assert len(c.twf.components) == len(det_only.twf.components)

    def test_shared_functors_covers_all_jastrows(self, parts):
        fs = list(shared_functors(parts.twf))
        j1 = parts.twf.component_by_name("J1")
        j2 = parts.twf.component_by_name("J2")
        for f in list(j1.functors.values()) + list(j2.functors.values()):
            assert any(f is g for g in fs)


class TestCrowdDriver:
    def test_runs_and_partitions(self, parts):
        drv = CrowdDriver(parts, n_crowds=3,
                          rng=np.random.default_rng(1), timestep=0.3)
        res = drv.run(walkers=7, steps=2)
        assert res.populations == [7, 7]
        assert np.all(np.isfinite(res.energies))
        assert 0 < res.acceptance <= 1

    def test_single_crowd_matches_plain_vmc_shape(self, parts):
        drv = CrowdDriver(parts, n_crowds=1,
                          rng=np.random.default_rng(2), timestep=0.3)
        res = drv.run(walkers=3, steps=2)
        assert len(res.energies) == 2

    def test_invalid_crowds(self, parts):
        with pytest.raises(ValueError):
            CrowdDriver(parts, n_crowds=0, rng=np.random.default_rng(0))

    def test_result_parity_with_vmc(self, parts):
        """CrowdDriver fills the same QMCResult surface as VMCDriver:
        move counters in extra and a populated estimator manager."""
        drv = CrowdDriver(parts, n_crowds=2,
                          rng=np.random.default_rng(4), timestep=0.3)
        res = drv.run(walkers=4, steps=2)
        assert res.extra["moves"] == pytest.approx(
            2 * 4 * parts.n_electrons)
        assert 0 < res.extra["accepted"] <= res.extra["moves"]
        assert "LocalEnergy" in res.estimators.names()
        le = res.estimators.series("LocalEnergy")
        assert le.size == 2 * 4  # steps x walkers
        assert np.all(np.isfinite(le))


class TestCrowdDeterminism:
    """Same master seed => bitwise-identical energy trace, however the
    population is dealt to crowds."""

    def _run(self, parts, n_crowds, seed=11):
        p = clone_parts(parts)  # fresh mutable state per experiment
        drv = CrowdDriver(p, n_crowds=n_crowds,
                          rng=np.random.default_rng(seed), timestep=0.3)
        return drv.run(walkers=5, steps=3)

    def test_energy_trace_independent_of_crowd_count(self, parts):
        base = self._run(parts, n_crowds=1)
        for nc in (2, 3, 5):
            res = self._run(parts, n_crowds=nc)
            assert res.energies == base.energies  # bitwise
            assert res.extra["moves"] == base.extra["moves"]
            assert res.extra["accepted"] == base.extra["accepted"]

    def test_different_seeds_diverge(self, parts):
        a = self._run(parts, n_crowds=2, seed=11)
        b = self._run(parts, n_crowds=2, seed=12)
        assert a.energies != b.energies
