"""Property-based equivalence: all flavors agree through random PbyP walks.

This is the key correctness claim of the paper's transformation — the
SoA forward-update and compute-on-the-fly tables are *algorithmically
identical* to the packed reference, just laid out differently.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distances.factory import create_aa_table, create_ab_table
from repro.lattice.cell import CrystalLattice
from repro.particles.particleset import ParticleSet
from repro.particles.species import SpeciesSet


def _make_system(n, seed):
    rng = np.random.default_rng(seed)
    lat = CrystalLattice.cubic(5.0)
    P = ParticleSet("e", rng.uniform(0, 5, (n, 3)), lat)
    return P, lat, rng


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 16), seed=st.integers(0, 10_000),
       nmoves=st.integers(1, 12))
def test_aa_flavors_agree_through_random_walk(n, seed, nmoves):
    P, lat, rng = _make_system(n, seed)
    tables = {f: create_aa_table(n, lat, f) for f in ("ref", "soa", "otf")}
    P.distance_tables = list(tables.values())
    P.update_tables()
    for _ in range(nmoves):
        k = int(rng.integers(n))
        rnew = lat.wrap(P.R[k] + rng.normal(0, 0.4, 3))
        P.make_move(k, rnew)
        # Temp rows agree between flavors (ordered sweep not required for
        # the temporaries).
        tr = {f: np.asarray(t.temp_r, dtype=np.float64)[:n]
              for f, t in tables.items()}
        mask = np.arange(n) != k
        assert np.allclose(tr["ref"][mask], tr["soa"][mask], rtol=1e-10)
        assert np.allclose(tr["soa"][mask], tr["otf"][mask], rtol=1e-10)
        if rng.uniform() < 0.7:
            P.accept_move(k)
        else:
            P.reject_move(k)
    # After a full re-evaluation every flavor matches brute force exactly.
    P.update_tables()
    for i in range(n):
        brute = lat.min_image_dist(P.R - P.R[i])
        for f, t in tables.items():
            row = np.asarray(t.dist_row(i), dtype=np.float64)
            assert np.allclose(row[np.arange(n) != i],
                               brute[np.arange(n) != i], rtol=1e-10), f


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 12), nion=st.integers(2, 6),
       seed=st.integers(0, 10_000))
def test_ab_flavors_agree_through_random_walk(n, nion, seed):
    P, lat, rng = _make_system(n, seed)
    sp = SpeciesSet()
    sp.add("X", 2.0)
    ions = ParticleSet("ion0", rng.uniform(0, 5, (nion, 3)), lat, sp,
                       np.zeros(nion, dtype=np.int64))
    tables = {f: create_ab_table(ions, n, lat, f) for f in ("ref", "soa")}
    P.distance_tables = list(tables.values())
    P.update_tables()
    for _ in range(8):
        k = int(rng.integers(n))
        rnew = lat.wrap(P.R[k] + rng.normal(0, 0.4, 3))
        P.make_move(k, rnew)
        tr = {f: np.asarray(t.temp_r, dtype=np.float64)[:nion]
              for f, t in tables.items()}
        assert np.allclose(tr["ref"], tr["soa"], rtol=1e-10)
        if rng.uniform() < 0.7:
            P.accept_move(k)
        else:
            P.reject_move(k)
    for i in range(n):
        for f, t in tables.items():
            row = np.asarray(t.dist_row(i), dtype=np.float64)
            brute = lat.min_image_dist(ions.R - P.R[i])
            assert np.allclose(row, brute, rtol=1e-10), f


class TestOrderedSweepInvariant:
    """The forward-update invariant: during an *ordered* sweep the row of
    the particle about to move is always current, in every flavor."""

    @pytest.mark.parametrize("flavor", ["ref", "soa", "otf"])
    def test_row_fresh_at_move_time(self, flavor):
        n = 12
        P, lat, rng = _make_system(n, seed=42)
        t = create_aa_table(n, lat, flavor)
        P.distance_tables = [t]
        P.update_tables()
        for k in range(n):  # ordered sweep, as in Alg. 1 L4
            # Row k must match brute force from *current* positions ...
            # ... after the step that activates it (the compute-on-the-fly
            # table refreshes the row there; the others keep it current).
            P.set_active(k)
            row = np.asarray(t.dist_row(k), dtype=np.float64)
            brute = lat.min_image_dist(P.R - P.R[k])
            mask = np.arange(n) != k
            assert np.allclose(row[mask], brute[mask], rtol=1e-10)
            rnew = lat.wrap(P.R[k] + rng.normal(0, 0.5, 3))
            P.make_move(k, rnew)
            P.accept_move(k)
