"""Build runnable systems (particles + wavefunction + Hamiltonian) from a
workload spec and a code-version configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.determinant.dirac import DiracDeterminant
from repro.distances.factory import create_aa_table, create_ab_table
from repro.hamiltonian.local_energy import Hamiltonian
from repro.hamiltonian.nlpp import NonLocalPP
from repro.hamiltonian.terms import (
    CoulombEE, CoulombEI, IonIonEnergy, KineticEnergy,
)
from repro.jastrow.functor import BsplineFunctor
from repro.jastrow.j1 import OneBodyJastrowOtf, OneBodyJastrowRef
from repro.jastrow.j2 import TwoBodyJastrowOtf, TwoBodyJastrowRef
from repro.lattice.tiling import tile_cell
from repro.particles.particleset import ParticleSet
from repro.particles.species import SpeciesSet
from repro.spo.sposet import BsplineSPOSet, build_planewave_spline
from repro.wavefunction.trialwf import TrialWaveFunction
from repro.workloads.spec import Workload


@dataclass
class SystemParts:
    """Everything a driver needs, plus metadata for the models."""

    workload: Workload
    scale: float
    lattice: object
    ions: ParticleSet
    electrons: ParticleSet
    twf: TrialWaveFunction
    ham: Hamiltonian
    spo_up: BsplineSPOSet
    spo_dn: BsplineSPOSet
    n_electrons: int
    n_ions: int

    @property
    def n(self) -> int:
        return self.n_electrons


def make_j2_functors(wl: Workload, rcut: float) -> Dict[Tuple[int, int],
                                                        BsplineFunctor]:
    """Spin-pair functors with exact e-e cusps (-1/4 like, -1/2 unlike)."""
    j = wl.jastrow
    like = BsplineFunctor.from_shape(rcut, cusp=-0.25, decay=j.decay_like,
                                     npts=j.npts, name="uu")
    unlike = BsplineFunctor.from_shape(rcut, cusp=-0.5, decay=j.decay_unlike,
                                       npts=j.npts, name="ud")
    return {(0, 0): like, (1, 1): like, (0, 1): unlike}


def make_j1_functors(wl: Workload, ion_species: SpeciesSet,
                     rcut: float) -> Dict[int, BsplineFunctor]:
    """Per-ion-species one-body functors shaped like Fig. 3."""
    j = wl.jastrow
    out = {}
    for idx, name in enumerate(ion_species.names):
        spec = wl.species_by_name(name)
        out[idx] = BsplineFunctor.from_shape(
            rcut, cusp=0.0, amplitude=spec.j1_amplitude,
            decay=spec.j1_decay, npts=j.npts, name=name)
    return out


def _initial_electrons(ions_R: np.ndarray, charges: np.ndarray,
                       lattice, rng: np.random.Generator) -> np.ndarray:
    """Z* electrons Gaussian-placed around each ion, ordered so the first
    half is spin-up: electrons are dealt round-robin ion-by-ion to keep
    both spin populations spread over all ions."""
    slots = []
    for i, z in enumerate(charges):
        slots += [i] * int(round(z))
    n = len(slots)
    positions = np.empty((n, 3))
    # Interleave: even slots -> first half (up), odd -> second half (down).
    up, dn = [], []
    for j, ion in enumerate(slots):
        (up if j % 2 == 0 else dn).append(ion)
    order = up + dn
    for j, ion in enumerate(order):
        positions[j] = ions_R[ion] + 0.5 * rng.normal(size=3)
    return lattice.wrap(positions)


def build_system(
    wl: Workload,
    scale: float = 1.0,
    seed: int = 11,
    table_flavor_aa: str = "otf",
    table_flavor_ab: str = "soa",
    jastrow_flavor: str = "otf",
    spo_layout: str = "soa",
    value_dtype=np.float64,
    spline_dtype=np.float32,
    spo_grid: Optional[Tuple[int, int, int]] = None,
    with_nlpp: bool = True,
    delay: int = 1,
) -> SystemParts:
    """Synthesize a runnable system from a workload at the given scale.

    The flavor/layout/dtype knobs are what
    :class:`repro.core.CodeVersion` presets bundle.  ``delay`` > 1
    swaps both spin determinants to
    :class:`~repro.determinant.dirac_delayed.DiracDeterminantDelayed`,
    grouping that many accepted rows per Woodbury (BLAS3) inverse fold
    instead of eager per-move Sherman-Morrison rank-1 updates
    (Sec. 8.4); ``delay=1`` keeps the eager path.
    """
    rng = np.random.default_rng(seed)
    tiling = wl.scaled_tiling(scale)
    lattice, ion_pos, ion_names = tile_cell(
        np.asarray(wl.cell_axes), np.asarray(wl.basis_frac),
        list(wl.basis_species), tiling)

    ion_species = SpeciesSet()
    for spec in wl.species:
        ion_species.add(spec.name, charge=spec.zstar)
    ion_ids = np.array([ion_species.index(nm) for nm in ion_names])
    # Order ions by species so group_ranges is contiguous.
    order = np.argsort(ion_ids, kind="stable")
    ion_pos = ion_pos[order]
    ion_ids = ion_ids[order]

    ions = ParticleSet("ion0", ion_pos, lattice, ion_species, ion_ids,
                       layout="both")

    charges = ions.charges()
    e_pos = _initial_electrons(ion_pos, charges, lattice, rng)
    n = e_pos.shape[0]
    if n % 2 != 0:
        raise ValueError(f"odd electron count {n}")
    e_species = SpeciesSet.electrons()
    e_ids = np.array([0] * (n // 2) + [1] * (n // 2))
    e_layout = "both"
    electrons = ParticleSet("e", e_pos, lattice, e_species, e_ids,
                            layout=e_layout, dtype=value_dtype)

    # Distance tables: AA (index 0) then AB (index 1), as consumers assume.
    aa = create_aa_table(n, lattice, table_flavor_aa, dtype=value_dtype)
    ab = create_ab_table(ions, n, lattice, table_flavor_ab,
                         dtype=value_dtype)
    electrons.add_table(aa)
    electrons.add_table(ab)
    electrons.update_tables()

    # Jastrows.  Cutoff must fit in the cell (Wigner-Seitz radius).
    rcut = 0.99 * lattice.wigner_seitz_radius
    j2f = make_j2_functors(wl, rcut)
    j1f = make_j1_functors(wl, ion_species, rcut)
    groups = list(electrons.group_ranges())
    if jastrow_flavor == "ref":
        j2 = TwoBodyJastrowRef(n, groups, j2f, table_index=0)
        j1 = OneBodyJastrowRef(n, ion_ids, j1f, table_index=1)
    else:
        j2 = TwoBodyJastrowOtf(n, groups, j2f, table_index=0)
        j1 = OneBodyJastrowOtf(n, ion_ids, j1f, table_index=1)

    # SPOs: one shared B-spline table; N/2 orbitals per spin determinant.
    norb = n // 2
    if spo_grid is None:
        spo_grid = _default_grid(wl, scale, norb)
    spline = build_planewave_spline(lattice, norb, spo_grid,
                                    dtype=spline_dtype)
    spo_up = BsplineSPOSet(spline, norb, layout=spo_layout)
    spo_dn = BsplineSPOSet(spline, norb, layout=spo_layout)
    if delay > 1:
        from repro.determinant.dirac_delayed import DiracDeterminantDelayed
        det_up = DiracDeterminantDelayed(spo_up, 0, norb, delay=delay,
                                         dtype=value_dtype)
        det_dn = DiracDeterminantDelayed(spo_dn, norb, n, delay=delay,
                                         dtype=value_dtype)
    else:
        det_up = DiracDeterminant(spo_up, 0, norb, dtype=value_dtype)
        det_dn = DiracDeterminant(spo_dn, norb, n, dtype=value_dtype)

    twf = TrialWaveFunction([j1, j2, det_up, det_dn])

    # Hamiltonian: minimum-image Coulomb sums (DESIGN.md's substitution).
    terms = [KineticEnergy(), CoulombEE(0), CoulombEI(charges, 1),
             IonIonEnergy(ions, lattice)]
    if with_nlpp:
        nlpp_ions = [i for i in range(ions.n)
                     if wl.species_by_name(
                         ion_species.names[ion_ids[i]]).has_nlpp]
        if nlpp_ions:
            terms.append(NonLocalPP(
                ions, nlpp_ions, l=1, v0=0.5, width=0.8,
                rcut=min(1.4, rcut), npoints=12, table_index=1,
                rng=np.random.default_rng(seed + 1)))
    ham = Hamiltonian(terms)

    return SystemParts(
        workload=wl, scale=scale, lattice=lattice, ions=ions,
        electrons=electrons, twf=twf, ham=ham,
        spo_up=spo_up, spo_dn=spo_dn,
        n_electrons=n, n_ions=ions.n,
    )


def _default_grid(wl: Workload, scale: float, norb: int) -> Tuple[int, int, int]:
    """A small synthetic orbital grid: enough points to resolve the
    plane-wave content (>= 4 points per shortest wavelength) while keeping
    table sizes laptop-friendly.  The full-size FFT grid of Table 1 is
    used by the memory model, never allocated."""
    base = max(8, int(np.ceil(2.0 * norb ** (1.0 / 3.0))) * 2)
    return (base, base, base)
