"""Shared builder for the batched-vs-per-walker differential pair.

A :class:`JastrowSystemSpec` pins down one physical model — lattice,
electrons, ions, J1/J2 functors, Hamiltonian terms — and can construct
*both* execution paths from the very same functor objects and base
positions.  That sharing is what makes the differential suite meaningful:
any disagreement between the paths is an execution-path bug, not a setup
difference.

The model is the Jastrow-level system the minijastrow/minidist miniapps
time: J1 + J2 over AA/AB distance tables with a kinetic + Coulomb
Hamiltonian.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.batched.distances import (BatchedDistTableAA, BatchedDistTableAAOtf,
                                     BatchedDistTableAB)
from repro.batched.jastrow import BatchedOneBodyJastrow, BatchedTwoBodyJastrow
from repro.batched.nlpp import BatchedNonLocalPP
from repro.distances.factory import create_aa_table, create_ab_table
from repro.hamiltonian.local_energy import Hamiltonian
from repro.hamiltonian.nlpp import NonLocalPP
from repro.hamiltonian.terms import CoulombEE, CoulombEI, KineticEnergy
from repro.jastrow.functor import BsplineFunctor
from repro.jastrow.j1 import OneBodyJastrowOtf
from repro.jastrow.j2 import TwoBodyJastrowOtf
from repro.lattice.cell import CrystalLattice
from repro.particles.particleset import ParticleSet
from repro.particles.species import SpeciesSet
from repro.wavefunction.trialwf import TrialWaveFunction


def walker_streams(master_seed: int, nwalkers: int) -> List[np.random.Generator]:
    """The RNG-stream contract shared by both execution paths: walker w
    always consumes stream w, spawned from one SeedSequence regardless of
    how walkers are batched or dealt to crowds."""
    ss = np.random.SeedSequence(master_seed)
    return [np.random.default_rng(child) for child in ss.spawn(nwalkers)]


class JastrowSystemSpec:
    """One Jastrow-level model, buildable as scalar or batched objects."""

    def __init__(self, n: int = 16, seed: int = 7, aa_flavor: str = "otf",
                 with_nlpp: bool = False, nlpp_npoints: int = 12):
        if aa_flavor not in ("soa", "otf"):
            raise ValueError(f"aa_flavor must be 'soa' or 'otf', "
                             f"got {aa_flavor!r}")
        self.n = int(n)
        self.seed = int(seed)
        self.aa_flavor = aa_flavor
        self.with_nlpp = bool(with_nlpp)
        self.nlpp_npoints = int(nlpp_npoints)
        a = (n * 8.0) ** (1.0 / 3.0)  # ~8 bohr^3 per electron
        rng = np.random.default_rng(seed)
        self.lattice = CrystalLattice.cubic(a)
        self.e_species = SpeciesSet.electrons()
        self.e_ids = np.array([0] * (n // 2) + [1] * (n - n // 2))
        self.base_positions = rng.uniform(0, a, (n, 3))
        nion = max(2, n // 8)
        ion_species = SpeciesSet()
        ion_species.add("X", charge=float(n) / nion)
        self.ions = ParticleSet(
            "ion0", rng.uniform(0, a, (nion, 3)), self.lattice, ion_species,
            np.zeros(nion, dtype=np.int64))
        rcut = 0.99 * self.lattice.wigner_seitz_radius
        uu = BsplineFunctor.from_shape(rcut, cusp=-0.25, decay=1.2, name="uu")
        ud = BsplineFunctor.from_shape(rcut, cusp=-0.5, decay=0.9, name="ud")
        #: shared read-only functors — the same objects feed both paths
        self.j2_functors = {(0, 0): uu, (1, 1): uu, (0, 1): ud}
        self.j1_functors = {0: BsplineFunctor.from_shape(
            rcut, amplitude=-0.4, decay=0.8, name="X")}
        #: NLPP channel parameters shared by both paths (one l=1 channel
        #: on every ion; cutoff inside the Wigner-Seitz sphere so pairs
        #: regularly move in and out of range).
        self.nlpp_rcut = min(1.8, 0.9 * self.lattice.wigner_seitz_radius)
        self._jitter_rng = np.random.default_rng(seed + 1)

    def checkpoint_key(self) -> list:
        """What a run checkpoint records of this model, as JSON values;
        a resume on a different model is refused."""
        return [self.n, self.seed, self.aa_flavor, self.with_nlpp,
                self.nlpp_npoints]

    # -- initial configurations ---------------------------------------------------
    def initial_positions(self, nwalkers: int,
                          jitter: float = 0.05) -> np.ndarray:
        """Deterministic (W, n, 3) starting configurations; both paths
        spawn their walkers from the same array."""
        rng = np.random.default_rng(self.seed + 2)
        return (self.base_positions[None, :, :]
                + jitter * rng.normal(size=(nwalkers, self.n, 3)))

    # -- per-walker (scalar) construction -----------------------------------------
    def build_scalar(self):
        """(ParticleSet, TrialWaveFunction, Hamiltonian) for the
        per-walker path, sharing this spec's functors and ions."""
        P = ParticleSet("e", self.base_positions, self.lattice,
                        self.e_species, self.e_ids)
        aa = create_aa_table(self.n, self.lattice, self.aa_flavor)
        ab = create_ab_table(self.ions, self.n, self.lattice, "soa")
        P.add_table(aa)
        P.add_table(ab)
        P.update_tables()
        groups = list(P.group_ranges())
        j2 = TwoBodyJastrowOtf(self.n, groups, self.j2_functors, 0)
        j1 = OneBodyJastrowOtf(self.n, self.ions.species_ids,
                               self.j1_functors, 1)
        twf = TrialWaveFunction([j2, j1])
        terms = [KineticEnergy(), CoulombEE(0),
                 CoulombEI(self.ions.charges(), 1)]
        if self.with_nlpp:
            terms.append(NonLocalPP(
                self.ions, range(self.ions.n), l=1, v0=0.5, width=0.8,
                rcut=self.nlpp_rcut, npoints=self.nlpp_npoints,
                table_index=1, rng=np.random.default_rng(self.seed + 3)))
        ham = Hamiltonian(terms)
        return P, twf, ham

    # -- batched construction ------------------------------------------------------
    def build_batched(self, nwalkers: int):
        """(tables, components, ham) for the batched path over W walkers;
        component and table order matches :meth:`build_scalar` so the two
        paths walk identical evaluation sequences."""
        aa_cls = (BatchedDistTableAA if self.aa_flavor == "soa"
                  else BatchedDistTableAAOtf)
        aa = aa_cls(nwalkers, self.n, self.lattice)
        ab = BatchedDistTableAB(self.ions, nwalkers, self.n, self.lattice)
        tables = [aa, ab]
        groups = self._group_slices()
        j2 = BatchedTwoBodyJastrow(nwalkers, self.n, groups,
                                   self.j2_functors, 0)
        j1 = BatchedOneBodyJastrow(nwalkers, self.n, self.ions.species_ids,
                                   self.j1_functors, 1)
        components = [j2, j1]
        nlpp = None
        if self.with_nlpp:
            nlpp = BatchedNonLocalPP(
                self.ions, range(self.ions.n), nwalkers, l=1, v0=0.5,
                width=0.8, rcut=self.nlpp_rcut, npoints=self.nlpp_npoints,
                table_index=1)
        ham = BatchedHamiltonian(nwalkers, self.ions.charges(), nlpp=nlpp,
                                 wf_components=components)
        return tables, components, ham

    def _group_slices(self):
        groups = []
        start = 0
        cur = self.e_ids[0]
        for i in range(1, self.n):
            if self.e_ids[i] != cur:
                groups.append((int(cur), slice(start, i)))
                start, cur = i, self.e_ids[i]
        groups.append((int(cur), slice(start, self.n)))
        return groups


class BatchedHamiltonian:
    """Kinetic + CoulombEE + CoulombEI over a WalkerBatch: each term's
    per-walker scalar arithmetic, widened to (W,) vectors.

    Term order and per-term accumulation order mirror the scalar
    :class:`~repro.hamiltonian.local_energy.Hamiltonian` exactly, so the
    local energies agree bitwise in full precision.
    """

    @staticmethod
    def term_names(with_nlpp: bool) -> tuple:
        """The term names, in the order of ``names`` and of the rows a
        crowd reports: the NLPP-free three, then "NonLocalECP" if the
        Hamiltonian carries a BatchedNonLocalPP."""
        return ("Kinetic", "ElecElec", "ElecIon") + (
            ("NonLocalECP",) if with_nlpp else ())

    def __init__(self, nwalkers: int, ion_charges: np.ndarray,
                 nlpp=None, wf_components=None):
        self.nw = int(nwalkers)
        self.charges = np.asarray(ion_charges, dtype=np.float64)
        #: optional BatchedNonLocalPP term plus the wavefunction
        #: components its ratio-only slab evaluation consumes.
        self.nlpp = nlpp
        self.wf_components = list(wf_components) if wf_components else []
        self.names = self.term_names(nlpp is not None)
        self.last_components = {}
        #: e-e Coulomb sum per walker, accumulated by :meth:`ee_row` over
        #: the AA row stream of the wavefunction pass before ``evaluate``
        self.ee = np.zeros(self.nw)

    def ee_row(self, i: int, rows_r: np.ndarray) -> None:
        """Add row ``i``'s ``sum_{j<i} 1/r_ij``; the stream feeds the
        rows in electron order, row 0 first, which restarts the sum."""
        if i == 0:
            self.ee[...] = 0.0
        self.ee += np.sum(1.0 / rows_r[:, :i], axis=-1)

    def evaluate(self, batch, tables, G: np.ndarray,
                 L: np.ndarray) -> np.ndarray:
        n = batch.n
        # Kinetic: -(1/2) sum_i (L_i + |G_i|^2) per walker.
        g2 = np.sum(G * G, axis=2)
        kin = -0.5 * np.sum(L + g2, axis=-1)
        # Electron-electron: sum_{i<j} 1/r_ij, summed over the AA rows
        # as the wavefunction pass streamed them.
        ee = self.ee.copy()
        # Electron-ion: -sum_{k,I} Z_I / r_kI from the AB row blocks.
        ab = tables[1]
        ei = np.zeros(self.nw)
        for k in range(n):
            ei -= np.sum(self.charges / ab.dist_rows(k), axis=-1)
        self.last_components = {"Kinetic": kin, "ElecElec": ee,
                                "ElecIon": ei}
        total = kin + ee + ei
        if self.nlpp is not None:
            nl = self.nlpp.evaluate(batch, tables, self.wf_components)
            self.last_components["NonLocalECP"] = nl
            total = total + nl
        return total
