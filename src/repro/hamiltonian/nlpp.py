"""Non-local pseudopotential via spherical-shell quadrature (Sec. 3).

For every (electron k, ion I) pair with r_kI inside the channel cutoff,
the angular projector integral is approximated by a quadrature over
points on the sphere of radius r_kI centered on the ion:

    V_NL += v_l(r) * (2l+1)/(4 pi) * sum_q w_q P_l(cos theta_q)
            * Psi(..., r_q, ...) / Psi(..., r_k, ...)

Each quadrature point costs one wavefunction *ratio* (Eq. 4) — the same
kernel as a particle move but without acceptance, which is why NLPP
pressure shows up in the DistTable/Jastrow/Bspline-v profiles.

Two engines share the physics:

* the **virtual-particle** engine (:meth:`NonLocalPP.evaluate`): gather
  all in-range pairs, materialize every quadrature position into one
  flat ``(Nvp, 3)`` :class:`VirtualParticleSet` slab, and evaluate all
  ratios through the ratio-only ``twf.ratios_vp`` API — no
  ``make_move`` / ``reject_move`` round-trips, no per-point walker-state
  mutation (QMCPACK's ``VirtualParticleSet`` + ``mw_evaluateRatios``
  design);
* the **scalar loop** engine (:meth:`NonLocalPP.evaluate_reference`):
  one temp-move ratio per quadrature point, kept as the differential
  oracle.

The per-evaluation random rotation of the quadrature frame removes grid
bias.  When a :class:`QuadratureRotations` stream is attached the
rotation is a *stateless* function of ``(walker, serial)`` — independent
of crowd membership and draw history — so batched, reference and
parallel-crowd evaluations of the same walker/step see the identical
frame.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.metrics.registry import METRICS


def sphere_quadrature(npoints: int = 12) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature directions and weights on the unit sphere.

    Supports the octahedron rule (6 points) and the icosahedron vertex
    rule (12 points) — both integrate spherical harmonics up to l=2 /
    l=5 exactly, matching QMCPACK's standard grids.
    """
    if npoints == 6:
        dirs = np.array([
            [1, 0, 0], [-1, 0, 0],
            [0, 1, 0], [0, -1, 0],
            [0, 0, 1], [0, 0, -1],
        ], dtype=np.float64)
    elif npoints == 12:
        phi = (1.0 + math.sqrt(5.0)) / 2.0
        raw = []
        for s1 in (1, -1):
            for s2 in (1, -1):
                raw.append([0.0, s1 * 1.0, s2 * phi])
                raw.append([s1 * 1.0, s2 * phi, 0.0])
                raw.append([s1 * phi, 0.0, s2 * 1.0])
        dirs = np.array(raw, dtype=np.float64)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    else:
        raise ValueError(f"unsupported quadrature size {npoints}")
    weights = np.full(len(dirs), 1.0 / len(dirs))
    return dirs, weights


def legendre(l: int, x):
    """Legendre polynomial P_l, vectorized, for the low channels used."""
    if l == 0:
        return np.ones_like(np.asarray(x, dtype=np.float64))
    if l == 1:
        return np.asarray(x, dtype=np.float64)
    if l == 2:
        x = np.asarray(x, dtype=np.float64)
        return 1.5 * x * x - 0.5
    raise ValueError(f"channel l={l} not supported")


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix (QR of a Gaussian matrix)."""
    m = rng.normal(size=(3, 3))
    q, r = np.linalg.qr(m)
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


class QuadratureRotations:
    """Stateless walker-indexed quadrature-rotation streams.

    ``rotation(walker, serial)`` derives a fresh generator from
    ``SeedSequence(master_seed, spawn_key=(walker, serial))`` — the same
    spawning discipline as the per-walker move RNGs of the batched
    driver — so the rotation is a pure function of the (walker,
    evaluation-serial) pair.  Crowd membership, evaluation order and
    prior draws cannot perturb it, which is what keeps parallel crowds'
    NLPP traces bitwise identical to the serial reference.

    Serial contract: the per-walker reference path uses serial 0 for the
    setup evaluation and serial ``s`` for step ``s``; the batched crowd
    engine bumps its serial once per Hamiltonian evaluation so its first
    measurement (step 1) also lands on serial 1.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)

    def rotation(self, walker: int, serial: int) -> np.ndarray:
        ss = np.random.SeedSequence(self.master_seed,
                                    spawn_key=(int(walker), int(serial)))
        return random_rotation(np.random.default_rng(ss))


class VirtualParticleSet:
    """Flat slab of virtual quadrature positions for one walker.

    All in-range (electron, ion) pairs of one NLPP evaluation,
    materialized as ``npairs * nq`` ratio-only "virtual moves":

    * ``pair_k`` / ``pair_ion`` / ``pair_dist`` — ``(Npair,)`` electron
      index, ion index and pair distance;
    * ``owners`` — ``(Nvp,)`` electron owning each virtual position
      (``pair_k`` repeated ``nq`` times);
    * ``positions`` — ``(Nvp, 3)`` float64 virtual positions, already
      wrapped into the cell.

    No walker state is written while the slab is evaluated: components
    consume it through ``ratio_at`` / ``ratios_vp`` only.
    """

    __slots__ = ("pair_k", "pair_ion", "pair_dist", "owners", "positions",
                 "nq")

    def __init__(self, pair_k, pair_ion, pair_dist, owners, positions, nq):
        self.pair_k = pair_k
        self.pair_ion = pair_ion
        self.pair_dist = pair_dist
        self.owners = owners
        self.positions = positions
        self.nq = int(nq)

    @property
    def npairs(self) -> int:
        return len(self.pair_k)

    @property
    def nvp(self) -> int:
        return len(self.owners)


class NonLocalPP:
    """One non-local channel shared by a set of ions.

    Radial form v_l(r) = v0 * exp(-(r/width)^2), cut off at ``rcut`` —
    a Gaussian-localized projector with the shape of a real
    norm-conserving PP's non-local part.
    """

    name = "NonLocalECP"

    def __init__(self, ions, ion_indices: Sequence[int], l: int = 1,
                 v0: float = 1.0, width: float = 0.8, rcut: float = 1.2,
                 npoints: int = 12, table_index: int = 1,
                 rng: np.random.Generator | None = None):
        self.ions = ions
        self.ion_indices = np.asarray(ion_indices, dtype=np.int64)
        self.l = l
        self.v0 = float(v0)
        self.width = float(width)
        self.rcut = float(rcut)
        self.table_index = table_index
        self.dirs, self.weights = sphere_quadrature(npoints)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        # Optional stateless rotation streams (QuadratureRotations) and
        # the (walker, serial) pair the next evaluation is keyed on.
        self.rotations: QuadratureRotations | None = None
        self.walker = 0
        self.serial = 0

    def radial(self, r):
        return self.v0 * np.exp(-np.square(np.asarray(r) / self.width))

    # -- rotation bookkeeping ----------------------------------------------------
    def use_rotations(self, rotations: QuadratureRotations,
                      walker: int = 0) -> None:
        """Attach stateless rotation streams (replaces the legacy rng)."""
        self.rotations = rotations
        self.walker = int(walker)
        self.serial = 0

    def set_walker(self, walker: int, serial: int) -> None:
        """Key the next evaluation's rotation on (walker, serial)."""
        self.walker = int(walker)
        self.serial = int(serial)

    def _draw_rotation(self) -> np.ndarray:
        if self.rotations is not None:
            return self.rotations.rotation(self.walker, self.serial)
        return random_rotation(self.rng)

    # -- evaluation --------------------------------------------------------------
    def evaluate(self, P, twf) -> float:
        """Sum the channel over all in-range (electron, ion) pairs.

        Randomly rotating the quadrature frame per evaluation removes the
        grid bias, as production codes do.  Exactly one rotation is drawn
        per call regardless of how many pairs are in range.
        """
        with METRICS.scope("NLPP"):
            return self._evaluate_vp(P, twf, self._draw_rotation())

    def evaluate_reference(self, P, twf) -> float:
        """The scalar per-point oracle under the same rotation contract —
        one temp-move wavefunction ratio per quadrature point."""
        with METRICS.scope("NLPP"):
            return self._evaluate_loop(P, twf, self._draw_rotation())

    def build_vps(self, P, dirs_rot: np.ndarray) -> VirtualParticleSet:
        """Gather in-range pairs and materialize the virtual-particle slab."""
        table = P.distance_tables[self.table_index]
        sel_k = []
        sel_ion = []
        sel_d = []
        sel_u = []
        for k in range(P.n):
            dvals = table.dist_row_array(k)[self.ion_indices]
            hits = np.nonzero(dvals < self.rcut)[0]
            if hits.size == 0:
                continue
            ions_hit = self.ion_indices[hits]
            # Promote the stored (table-precision) rows to accumulation
            # precision before the divide, as the scalar oracle does.
            d64 = np.asarray(dvals[hits], dtype=np.float64)
            dv64 = np.asarray(
                table.disp_row_array(k)[:, ions_hit],
                dtype=np.float64)
            sel_k.append(np.full(hits.size, k, dtype=np.int64))
            sel_ion.append(ions_hit)
            sel_d.append(d64)
            sel_u.append(-(dv64 / d64).T)        # unit vectors ion -> electron
        if not sel_k:
            empty3 = np.empty((0, 3))
            return VirtualParticleSet(
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                np.empty(0), np.empty(0, dtype=np.int64), empty3,
                len(dirs_rot))
        pair_k = np.concatenate(sel_k)
        pair_ion = np.concatenate(sel_ion)
        pair_d = np.concatenate(sel_d)
        nq = len(dirs_rot)
        slab = (self.ions.R[pair_ion][:, None, :]
                + pair_d[:, None, None] * dirs_rot[None, :, :])
        slab = slab.reshape(-1, 3)
        if P.lattice.periodic:
            slab = P.lattice.wrap(slab)
        owners = np.repeat(pair_k, nq)
        vps = VirtualParticleSet(pair_k, pair_ion, pair_d, owners, slab, nq)
        # Stash the per-pair unit vectors for the Legendre weights.
        self._pair_units = np.concatenate(sel_u, axis=0)
        return vps

    def _evaluate_vp(self, P, twf, rot: np.ndarray) -> float:
        """Virtual-particle engine: one fused ratio evaluation per slab."""
        dirs_rot = self.dirs @ rot.T
        vps = self.build_vps(P, dirs_rot)
        if vps.npairs == 0:
            return 0.0
        cosines = self._pair_units @ dirs_rot.T          # (Npair, nq)
        pl = legendre(self.l, cosines)
        rho = twf.ratios_vp(P, vps.owners, vps.positions)
        rho = rho.reshape(vps.npairs, vps.nq)
        acc = (self.weights[None, :] * pl * rho).sum(axis=1)
        contrib = self.radial(vps.pair_dist) * (2 * self.l + 1) * acc
        METRICS.count("nlpp_pairs", vps.npairs)
        METRICS.count("nlpp_ratio_points", vps.nvp)
        METRICS.record(flops=30.0 * vps.nvp, rbytes=24.0 * vps.nvp,
                       wbytes=8.0 * vps.npairs)
        return float(np.sum(contrib))

    def _evaluate_loop(self, P, twf, rot: np.ndarray) -> float:
        """Scalar oracle: a temp-move ratio round-trip per quadrature point."""
        table = P.distance_tables[self.table_index]
        dirs = self.dirs @ rot.T
        total = 0.0
        prefac = (2 * self.l + 1)
        for k in range(P.n):
            drow = table.dist_row_array(k)
            vrow = table.disp_row_array(k)
            for I in self.ion_indices:
                d = float(drow[I])
                if d >= self.rcut:
                    continue
                # Unit vector from ion to electron: -disp(k->I)/d.
                dv = np.asarray(vrow[:, I], dtype=np.float64)
                u_old = -dv / d
                ion_pos = self.ions.R[I]
                cosines = dirs @ u_old
                pl = legendre(self.l, cosines)
                METRICS.count("nlpp_pairs", 1)
                METRICS.count("nlpp_ratio_points", len(dirs))
                METRICS.record(flops=30.0 * len(dirs),
                               rbytes=24.0 * len(dirs), wbytes=8.0)
                acc = 0.0
                for q in range(len(dirs)):
                    r_q = ion_pos + d * dirs[q]
                    P.make_move(k, P.lattice.wrap(r_q[None, :])[0]
                                if P.lattice.periodic else r_q)
                    rho = twf.ratio(P, k)
                    twf.reject_move(P, k)
                    P.reject_move(k)
                    acc += self.weights[q] * pl[q] * rho
                total += float(self.radial(d)) * prefac * acc
        return total
