"""Tests for the VMC driver."""

import numpy as np
import pytest

from repro.core.system import QmcSystem, run_vmc
from repro.core.version import CodeVersion
from repro.drivers.vmc import VMCDriver
from repro.determinant.dirac import DiracDeterminant
from repro.hamiltonian.local_energy import Hamiltonian
from repro.hamiltonian.terms import KineticEnergy
from repro.lattice.cell import CrystalLattice
from repro.particles.particleset import ParticleSet
from repro.spo.sposet import PlaneWaveSPOSet
from repro.wavefunction.trialwf import TrialWaveFunction


@pytest.fixture(scope="module")
def small_sys():
    return QmcSystem.from_workload("NiO-32", scale=0.125, seed=6,
                                   with_nlpp=False)


class TestVMCBasics:
    def test_runs_and_reports(self, small_sys):
        res = run_vmc(small_sys, CodeVersion.CURRENT, walkers=3, steps=4,
                      seed=1)
        assert res.steps == 4
        assert len(res.energies) == 4
        assert res.populations == [3, 3, 3, 3]
        assert 0.0 < res.acceptance <= 1.0
        assert res.throughput > 0
        assert np.all(np.isfinite(res.energies))

    def test_profile_collection(self, small_sys):
        res = run_vmc(small_sys, CodeVersion.CURRENT, walkers=2, steps=2,
                      profile=True, seed=1)
        assert res.profile is not None
        norm = res.profile.normalized()
        assert abs(sum(norm.values()) - 1.0) < 1e-6
        assert "J2" in norm and "DistTable-AA" in norm

    def test_seed_reproducibility(self, small_sys):
        r1 = run_vmc(small_sys, CodeVersion.CURRENT, walkers=2, steps=3,
                     seed=42)
        r2 = run_vmc(small_sys, CodeVersion.CURRENT, walkers=2, steps=3,
                     seed=42)
        assert np.allclose(r1.energies, r2.energies, rtol=1e-12)

    def test_no_drift_mode(self, small_sys):
        res = run_vmc(small_sys, CodeVersion.CURRENT, walkers=2, steps=2,
                      use_drift=False, seed=3)
        assert np.all(np.isfinite(res.energies))

    def test_summary_text(self, small_sys):
        res = run_vmc(small_sys, CodeVersion.CURRENT, walkers=2, steps=2,
                      seed=1)
        s = res.summary()
        assert "VMC" in s and "samples/s" in s

    def test_online_estimators_without_streams(self, small_sys):
        """No StreamSet passed: the run records into an in-memory one,
        so ``result.online`` holds every per-walker sample."""
        parts = small_sys.build(CodeVersion.CURRENT)
        drv = VMCDriver(parts.electrons, parts.twf, parts.ham,
                        np.random.default_rng(5), timestep=0.3)
        res = drv.run(walkers=4, steps=3)
        assert res.online.count("LocalEnergy") == 12
        assert "Kinetic" in res.online.names()


class TestZeroVariance:
    def test_planewave_det_energy_constant(self, rng):
        """VMC on an exact eigenstate: E_L identical every step/walker."""
        lat = CrystalLattice.cubic(7.0)
        n = 7
        P = ParticleSet("e", rng.uniform(0, 7, (n, 3)), lat)
        spo = PlaneWaveSPOSet(lat, n)
        twf = TrialWaveFunction([DiracDeterminant(spo, 0, n)])
        ham = Hamiltonian([KineticEnergy()])
        drv = VMCDriver(P, twf, ham, np.random.default_rng(0), timestep=0.4)
        res = drv.run(walkers=3, steps=4)
        g2 = np.sum(spo.gvecs ** 2, axis=1)
        expect = 0.5 * np.sum(g2)
        assert np.allclose(res.energies, expect, atol=1e-6)
        assert res.energy_error() == pytest.approx(0.0, abs=1e-7)


class TestAcceptance:
    def test_tiny_timestep_accepts_everything(self, small_sys):
        res = run_vmc(small_sys, CodeVersion.CURRENT, walkers=2, steps=2,
                      timestep=1e-6, seed=5)
        assert res.acceptance > 0.99

    def test_huge_timestep_rejects_more(self, small_sys):
        hi = run_vmc(small_sys, CodeVersion.CURRENT, walkers=2, steps=2,
                     timestep=3.0, seed=5)
        lo = run_vmc(small_sys, CodeVersion.CURRENT, walkers=2, steps=2,
                     timestep=0.01, seed=5)
        assert hi.acceptance < lo.acceptance
