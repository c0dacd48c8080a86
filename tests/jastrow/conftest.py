"""Shared Jastrow test fixtures: paired ref/otf setups on one config."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distances.factory import create_aa_table, create_ab_table
from repro.jastrow.functor import BsplineFunctor
from repro.jastrow.j1 import OneBodyJastrowOtf, OneBodyJastrowRef
from repro.jastrow.j2 import TwoBodyJastrowOtf, TwoBodyJastrowRef
from repro.lattice.cell import CrystalLattice
from repro.particles.particleset import ParticleSet
from repro.particles.species import SpeciesSet


class JSetup:
    """One electron/ion configuration with both Jastrow flavors attached."""

    def __init__(self, n=10, nion=4, seed=3):
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.lat = CrystalLattice.cubic(6.0)
        e_sp = SpeciesSet.electrons()
        ids = np.array([0] * (n // 2) + [1] * (n - n // 2))
        self.P = ParticleSet("e", rng.uniform(0, 6, (n, 3)), self.lat,
                             e_sp, ids)
        isp = SpeciesSet()
        isp.add("A", 3.0)
        isp.add("B", 5.0)
        ion_ids = np.array([0, 0, 1, 1][:nion])
        self.ions = ParticleSet("ion0", rng.uniform(0, 6, (nion, 3)),
                                self.lat, isp, ion_ids)
        self.aa = create_aa_table(n, self.lat, "otf")
        self.aa_ref = create_aa_table(n, self.lat, "ref")
        self.ab = create_ab_table(self.ions, n, self.lat, "soa")
        self.ab_ref = create_ab_table(self.ions, n, self.lat, "ref")
        self.P.add_table(self.aa)      # 0
        self.P.add_table(self.ab)      # 1
        self.P.add_table(self.aa_ref)  # 2
        self.P.add_table(self.ab_ref)  # 3
        self.P.update_tables()
        rcut = 0.99 * self.lat.wigner_seitz_radius
        uu = BsplineFunctor.from_shape(rcut, cusp=-0.25, decay=1.1)
        ud = BsplineFunctor.from_shape(rcut, cusp=-0.5, decay=0.9)
        self.j2f = {(0, 0): uu, (1, 1): uu, (0, 1): ud}
        self.j1f = {
            0: BsplineFunctor.from_shape(rcut, amplitude=-0.4, decay=0.8),
            1: BsplineFunctor.from_shape(rcut, amplitude=-0.7, decay=0.7),
        }
        groups = list(self.P.group_ranges())
        self.j2_otf = TwoBodyJastrowOtf(n, groups, self.j2f, table_index=0)
        self.j2_ref = TwoBodyJastrowRef(n, groups, self.j2f, table_index=2)
        self.j1_otf = OneBodyJastrowOtf(n, self.ions.species_ids, self.j1f,
                                        table_index=1)
        self.j1_ref = OneBodyJastrowRef(n, self.ions.species_ids, self.j1f,
                                        table_index=3)
        self.n = n


@pytest.fixture
def jsetup():
    return JSetup()
