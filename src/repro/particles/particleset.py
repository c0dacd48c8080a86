"""ParticleSet — positions in AoS and SoA layouts plus the move protocol.

Both layouts are always kept, as production QMCPACK keeps them after the
transformation: the list-of-TinyVector ``R_aos`` for the reference scalar
kernels and the high-level physics, the padded ``Rsoa`` container for the
vectorized kernels.

The particle-by-particle (PbyP) move protocol (Alg. 1, L4-L9) drives all
hot kernels:

1. ``set_active(k)`` — the sweep reaches particle ``k``: every table
   makes row ``k`` exact at the current positions before the drift
   gradient reads it (a compute-on-the-fly table recomputes it; the
   others keep it exact and do nothing);
2. ``make_move(k, new_pos)`` — propose moving particle ``k``; every
   attached distance table computes its temporary row for the proposed
   position;
3. consumers (Jastrows, determinants) evaluate ratios from the tables'
   ``temp_*`` and current-row data;
4. ``accept_move(k)`` — commit: R (and Rsoa: 6 floats, as the paper
   notes) and the tables' internal state are updated; or
   ``reject_move(k)`` — drop the temporaries.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.containers.tinyvector import TinyVector
from repro.containers.vsc import VectorSoaContainer
from repro.lattice.cell import CrystalLattice
from repro.metrics.registry import METRICS
from repro.particles.species import SpeciesSet
from repro.precision.policy import resolve_value_dtype


class ParticleSet:
    """N particles in a (possibly periodic) cell, with attached distance tables.

    Parameters
    ----------
    name:
        "e" for electrons, "ion0" for ions, by QMCPACK convention.
    positions:
        (N, 3) initial Cartesian positions.
    lattice:
        The simulation cell (open or periodic).
    species:
        Species registry; ``species_ids[i]`` indexes into it.
    dtype:
        Element type of the SoA container (the AoS side and the canonical
        ``R`` stay float64; only kernels downcast, per the mixed-precision
        design).  Accepts a dtype-like, a
        :class:`~repro.precision.policy.PrecisionPolicy` (its
        ``value_dtype`` is used), or ``None`` for the default.
    """

    def __init__(
        self,
        name: str,
        positions: np.ndarray,
        lattice: Optional[CrystalLattice] = None,
        species: Optional[SpeciesSet] = None,
        species_ids: Optional[Sequence[int]] = None,
        dtype=None,
    ):
        dtype = resolve_value_dtype(dtype)
        positions = np.array(positions, dtype=np.float64)
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise ValueError(f"positions must be (N, 3), got {positions.shape}")
        self.name = name
        self.lattice = lattice if lattice is not None else CrystalLattice.open_bc()
        self.n = positions.shape[0]
        self.R = positions  # canonical (N, 3) storage
        self.species = species if species is not None else SpeciesSet()
        if species_ids is None:
            species_ids = np.zeros(self.n, dtype=np.int64)
        self.species_ids = np.asarray(species_ids, dtype=np.int64)
        if self.species_ids.shape != (self.n,):
            raise ValueError("species_ids must have one entry per particle")

        # Per-particle gradient & laplacian of log Psi (filled by TWF).
        self.G = np.zeros((self.n, 3), dtype=np.float64)
        self.L = np.zeros(self.n, dtype=np.float64)

        # AoS working representation (reference kernels).
        self.R_aos: List[TinyVector] = [TinyVector(row) for row in self.R]

        # SoA working representation (optimized kernels).
        self.Rsoa = VectorSoaContainer(self.n, 3, dtype=dtype)
        self.Rsoa.copy_in(self.R)

        # Attached distance tables (DistanceTableAA/AB instances).
        self.distance_tables: list = []

        # Active-move state.
        self.active_index: int = -1
        self.active_pos: Optional[np.ndarray] = None

    # -- layout bookkeeping -----------------------------------------------------
    def sync_layouts(self) -> None:
        """Rebuild AoS/SoA views from the canonical R (loadWalker path)."""
        for i, row in enumerate(self.R):
            self.R_aos[i] = TinyVector(row)
        self.Rsoa.copy_in(self.R)

    # -- distance tables ----------------------------------------------------------
    def add_table(self, table) -> int:
        """Attach a distance table; returns its index."""
        self.distance_tables.append(table)
        return len(self.distance_tables) - 1

    def update_tables(self) -> None:
        """Full recompute of every attached table (loadWalker / donePbyP)."""
        for t in self.distance_tables:
            with METRICS.scope(t.category):
                t.evaluate(self)

    # -- PbyP move protocol ---------------------------------------------------------
    def set_active(self, k: int) -> None:
        """Make every table's row ``k`` exact before the move of
        particle ``k`` reads it."""
        for t in self.distance_tables:
            with METRICS.scope(t.category):
                t.set_active(self, k)

    def make_move(self, k: int, new_pos: np.ndarray) -> None:
        """Propose moving particle k to new_pos; fill tables' temporaries."""
        if not 0 <= k < self.n:
            raise IndexError(f"particle index {k} out of range")
        self.active_index = k
        self.active_pos = np.asarray(new_pos, dtype=np.float64).copy()
        for t in self.distance_tables:
            with METRICS.scope(t.category):
                t.move(self, self.active_pos, k)

    def accept_move(self, k: int) -> None:
        """Commit the proposed move of particle k in every layout and table."""
        if k != self.active_index:
            raise RuntimeError(
                f"accept_move({k}) without matching make_move "
                f"(active={self.active_index})")
        self.R[k] = self.active_pos
        self.R_aos[k] = TinyVector(self.active_pos)
        self.Rsoa[k] = self.active_pos  # the paper's "6 floats" update
        for t in self.distance_tables:
            with METRICS.scope(t.category):
                t.update(k)
        self.active_index = -1
        self.active_pos = None

    def reject_move(self, k: int) -> None:
        """Drop the proposed move of particle k."""
        if k != self.active_index:
            raise RuntimeError(
                f"reject_move({k}) without matching make_move "
                f"(active={self.active_index})")
        self.active_index = -1
        self.active_pos = None

    # -- walker interchange -----------------------------------------------------------
    def load_walker(self, walker) -> None:
        """Copy a Walker's configuration into this compute object."""
        if walker.R.shape != self.R.shape:
            raise ValueError("walker/particleset size mismatch")
        self.R[...] = walker.R
        self.sync_layouts()
        self.update_tables()

    def store_walker(self, walker) -> None:
        """Copy this compute object's configuration back into a Walker."""
        walker.R[...] = self.R

    # -- misc ---------------------------------------------------------------------------
    def charges(self) -> np.ndarray:
        """Per-particle charge array from the species registry."""
        return np.array(
            [self.species.charge_of(i) for i in self.species_ids],
            dtype=np.float64)

    def group_ranges(self):
        """Yield (species_index, slice) for contiguous same-species groups.

        QMC particle sets order particles by species (all up electrons,
        then all down; ions by element); consumers like per-species
        Jastrow functors rely on that ordering.
        """
        if self.n == 0:
            return
        start = 0
        cur = self.species_ids[0]
        for i in range(1, self.n):
            if self.species_ids[i] != cur:
                yield int(cur), slice(start, i)
                start, cur = i, self.species_ids[i]
        yield int(cur), slice(start, self.n)

    def __repr__(self) -> str:
        return (f"ParticleSet({self.name!r}, n={self.n}, "
                f"periodic={self.lattice.periodic})")
