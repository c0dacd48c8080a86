"""Tests for ParticleSet layouts and the PbyP move protocol."""

import numpy as np
import pytest

from repro.distances.factory import create_aa_table
from repro.lattice.cell import CrystalLattice
from repro.particles.particleset import ParticleSet
from repro.particles.species import SpeciesSet
from repro.particles.walker import Walker


class TestLayouts:
    def test_both_layouts_consistent(self, electrons):
        assert electrons.R_aos is not None and electrons.Rsoa is not None
        for i in range(electrons.n):
            assert np.allclose(electrons.R[i], electrons.R_aos[i].x)
            assert np.allclose(electrons.R[i], electrons.Rsoa[i])

    def test_aos_only(self, rng, cubic_lattice):
        p = ParticleSet("e", rng.uniform(0, 6, (4, 3)), cubic_lattice,
                        layout="aos")
        assert p.R_aos is not None and p.Rsoa is None

    def test_soa_only(self, rng, cubic_lattice):
        p = ParticleSet("e", rng.uniform(0, 6, (4, 3)), cubic_lattice,
                        layout="soa")
        assert p.Rsoa is not None and p.R_aos is None

    def test_invalid_layout_raises(self, rng, cubic_lattice):
        with pytest.raises(ValueError):
            ParticleSet("e", rng.uniform(0, 6, (4, 3)), cubic_lattice,
                        layout="wat")

    def test_bad_positions_raise(self, cubic_lattice):
        with pytest.raises(ValueError):
            ParticleSet("e", np.zeros((4, 2)), cubic_lattice)

    def test_sync_layouts(self, electrons):
        electrons.R[0] = [1.0, 2.0, 3.0]
        electrons.sync_layouts()
        assert np.allclose(electrons.R_aos[0].x, [1, 2, 3])
        assert np.allclose(electrons.Rsoa[0], [1, 2, 3])


class TestMoveProtocol:
    def test_accept_updates_all_layouts(self, electrons):
        new = np.array([0.5, 0.6, 0.7])
        electrons.make_move(3, new)
        assert electrons.active_index == 3
        electrons.accept_move(3)
        assert np.allclose(electrons.R[3], new)
        assert np.allclose(electrons.R_aos[3].x, new)
        assert np.allclose(electrons.Rsoa[3], new)
        assert electrons.active_index == -1

    def test_reject_leaves_position(self, electrons):
        old = electrons.R[3].copy()
        electrons.make_move(3, old + 1.0)
        electrons.reject_move(3)
        assert np.allclose(electrons.R[3], old)

    def test_mismatched_accept_raises(self, electrons):
        electrons.make_move(3, electrons.R[3] + 0.1)
        with pytest.raises(RuntimeError):
            electrons.accept_move(4)

    def test_mismatched_reject_raises(self, electrons):
        electrons.make_move(3, electrons.R[3] + 0.1)
        with pytest.raises(RuntimeError):
            electrons.reject_move(2)

    def test_out_of_range_move_raises(self, electrons):
        with pytest.raises(IndexError):
            electrons.make_move(99, np.zeros(3))

    def test_move_triggers_tables(self, electrons):
        t = create_aa_table(electrons.n, electrons.lattice, "soa")
        electrons.add_table(t)
        electrons.update_tables()
        electrons.make_move(0, electrons.R[0] + 0.1)
        # temp row must reflect the proposed position
        d_expected = electrons.lattice.min_image_dist(
            electrons.R[1] - (electrons.R[0] + 0.1))
        assert t.temp_r[1] == pytest.approx(d_expected, rel=1e-6)
        electrons.reject_move(0)


class TestWalkerInterchange:
    def test_load_store_roundtrip(self, electrons, rng):
        w = Walker.from_positions(rng.uniform(0, 6, (electrons.n, 3)))
        electrons.load_walker(w)
        assert np.allclose(electrons.R, w.R)
        electrons.R[0] += 0.5
        electrons.store_walker(w)
        assert np.allclose(w.R, electrons.R)

    def test_size_mismatch_raises(self, electrons):
        with pytest.raises(ValueError):
            electrons.load_walker(Walker(electrons.n + 1))


class TestGroups:
    def test_group_ranges(self, electrons):
        groups = list(electrons.group_ranges())
        assert groups == [(0, slice(0, 8)), (1, slice(8, 16))]

    def test_charges(self, electrons):
        assert np.allclose(electrons.charges(), -1.0)

    def test_single_group(self, rng, cubic_lattice):
        s = SpeciesSet()
        s.add("X", 1.0)
        p = ParticleSet("x", rng.uniform(0, 6, (5, 3)), cubic_lattice, s,
                        np.zeros(5, dtype=np.int64))
        assert list(p.group_ranges()) == [(0, slice(0, 5))]
