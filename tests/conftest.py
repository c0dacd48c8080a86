"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lattice.cell import CrystalLattice
from repro.sanitizers import force_sanitizers
from repro.particles.particleset import ParticleSet
from repro.particles.species import SpeciesSet


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def sanitize():
    """Arm the runtime sanitizers for one test (same as REPRO_SANITIZE=1)."""
    force_sanitizers(True)
    yield
    force_sanitizers(None)


@pytest.fixture
def cubic_lattice():
    return CrystalLattice.cubic(6.0)


@pytest.fixture
def electrons(rng, cubic_lattice):
    """16 electrons (8 up / 8 down) in a 6-bohr cube, both layouts."""
    n = 16
    species = SpeciesSet.electrons()
    ids = np.array([0] * 8 + [1] * 8)
    return ParticleSet("e", rng.uniform(0, 6, (n, 3)), cubic_lattice,
                       species, ids, layout="both")


@pytest.fixture
def ions(rng, cubic_lattice):
    """4 ions of one species in the same cell."""
    species = SpeciesSet()
    species.add("X", charge=4.0)
    return ParticleSet("ion0", rng.uniform(0, 6, (4, 3)), cubic_lattice,
                       species, np.zeros(4, dtype=np.int64), layout="both")
