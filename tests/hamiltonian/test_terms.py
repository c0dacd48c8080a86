"""Tests for the local Hamiltonian terms."""

import numpy as np
import pytest

from repro.core.system import QmcSystem
from repro.core.version import CodeVersion
from repro.determinant.dirac import DiracDeterminant
from repro.hamiltonian.local_energy import Hamiltonian
from repro.hamiltonian.terms import (
    CoulombEE, CoulombEI, IonIonEnergy, KineticEnergy,
)
from repro.lattice.cell import CrystalLattice
from repro.particles.particleset import ParticleSet
from repro.spo.sposet import PlaneWaveSPOSet
from repro.wavefunction.trialwf import TrialWaveFunction


class TestKinetic:
    def test_zero_variance_for_planewave_determinant(self, rng):
        """With Psi = det of plane waves (Laplacian eigenfunctions), the
        kinetic local energy is exactly sum |G_m|^2 / 2, independent of
        configuration — the classic zero-variance check."""
        lat = CrystalLattice.cubic(7.0)
        n = 7
        spo = PlaneWaveSPOSet(lat, n)
        energies = []
        for trial in range(4):
            P = ParticleSet("e", rng.uniform(0, 7, (n, 3)), lat)
            det = DiracDeterminant(spo, 0, n)
            twf = TrialWaveFunction([det])
            twf.evaluate_log(P)
            energies.append(KineticEnergy().evaluate(P, twf))
        g2 = np.sum(spo.gvecs ** 2, axis=1)
        expect = 0.5 * np.sum(g2)
        assert np.allclose(energies, expect, atol=1e-7)

    def test_kinetic_from_gl(self, rng):
        lat = CrystalLattice.cubic(6.0)
        P = ParticleSet("e", rng.uniform(0, 6, (4, 3)), lat)
        P.G[...] = 0.5
        P.L[...] = -1.0
        # -(1/2) sum (L + |G|^2) = -(1/2) * 4 * (-1 + 0.75) = 0.5
        assert KineticEnergy().evaluate(P, None) == pytest.approx(0.5)


class TestCoulomb:
    @pytest.fixture
    def parts(self):
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=2,
                                       with_nlpp=False)
        return sys_.build(CodeVersion.CURRENT, value_dtype=np.float64)

    def test_ee_matches_brute_force(self, parts):
        P = parts.electrons
        P.update_tables()
        got = CoulombEE(0).evaluate(P, None)
        brute = 0.0
        for i in range(P.n):
            for j in range(i + 1, P.n):
                brute += 1.0 / P.lattice.min_image_dist(P.R[j] - P.R[i])
        assert got == pytest.approx(brute, rel=1e-9)

    def test_ei_matches_brute_force(self, parts):
        P, ions = parts.electrons, parts.ions
        P.update_tables()
        Z = ions.charges()
        got = CoulombEI(Z, 1).evaluate(P, None)
        brute = 0.0
        for k in range(P.n):
            for I in range(ions.n):
                brute -= Z[I] / P.lattice.min_image_dist(ions.R[I] - P.R[k])
        assert got == pytest.approx(brute, rel=1e-9)

    def test_ionion_constant(self, parts):
        ions = parts.ions
        term = IonIonEnergy(ions, ions.lattice)
        v1 = term.evaluate(None, None)
        v2 = term.evaluate(None, None)
        assert v1 == v2
        assert v1 > 0  # like charges repel

    def test_ee_positive(self, parts):
        P = parts.electrons
        P.update_tables()
        assert CoulombEE(0).evaluate(P, None) > 0

    def test_ei_negative(self, parts):
        P, ions = parts.electrons, parts.ions
        P.update_tables()
        assert CoulombEI(ions.charges(), 1).evaluate(P, None) < 0


class TestHamiltonian:
    def test_sums_terms_and_records_components(self, rng):
        class Const:
            def __init__(self, name, v):
                self.name = name
                self.v = v

            def evaluate(self, P, twf):
                return self.v

        h = Hamiltonian([Const("a", 1.0), Const("b", -3.0)])
        assert h.evaluate(None, None) == pytest.approx(-2.0)
        assert h.last_components == {"a": 1.0, "b": -3.0}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Hamiltonian([])
