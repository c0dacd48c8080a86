"""Crowd-wide virtual-particle NLPP engine (``repro.batched.nlpp``).

The batched twin of :class:`repro.hamiltonian.nlpp.NonLocalPP`'s
virtual-particle mode: the in-range (walker, electron, ion) pairs of the
*whole crowd* are gathered from the batched AB table in one mask, every
quadrature position is materialized into one flat ``(Nvp, 3)`` slab, and
all wavefunction ratios are evaluated through the batched components'
ratio-only ``ratios_vp`` kernels — no per-point walker-state mutation,
no temp-row traffic, one fused pass per Hamiltonian evaluation
(QMCPACK's ``VirtualParticleSet`` + ``mw_evaluateRatios`` shape).

Rotation contract: a :class:`~repro.hamiltonian.nlpp.QuadratureRotations`
stream keys each walker's rotation on ``(walker_id, serial)``; the
engine bumps ``serial`` once per evaluation, so the first measurement
(step 1) matches the per-walker reference's step-1 evaluation, and the
rotation a walker sees is independent of which crowd hosts it.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.hamiltonian.nlpp import (QuadratureRotations, legendre,
                                    sphere_quadrature)
from repro.metrics.registry import METRICS


class BatchedNonLocalPP:
    """One non-local channel over a WalkerBatch, virtual-particle slab."""

    name = "NonLocalECP"

    def __init__(self, ions, ion_indices: Sequence[int], nwalkers: int,
                 l: int = 1, v0: float = 1.0, width: float = 0.8,
                 rcut: float = 1.2, npoints: int = 12, table_index: int = 1):
        self.ions = ions
        self.ion_indices = np.asarray(ion_indices, dtype=np.int64)
        self.nw = int(nwalkers)
        self.l = l
        self.v0 = float(v0)
        self.width = float(width)
        self.rcut = float(rcut)
        self.table_index = table_index
        self.dirs, self.weights = sphere_quadrature(npoints)
        self.rotations: Optional[QuadratureRotations] = None
        #: global walker ids keying the rotation streams — a crowd
        #: hosting a subset of a larger population injects its global
        #: ids here so crowd membership cannot perturb the rotations.
        self.walker_ids = np.arange(self.nw, dtype=np.int64)
        self._serial = 0

    def radial(self, r):
        return self.v0 * np.exp(-np.square(np.asarray(r) / self.width))

    def set_rotations(self, rotations: QuadratureRotations,
                      walker_ids: Optional[Sequence[int]] = None,
                      serial: int = 0) -> None:
        """Attach rotation streams; resets the evaluation serial."""
        self.rotations = rotations
        if walker_ids is not None:
            ids = np.asarray(walker_ids, dtype=np.int64)
            if ids.size != self.nw:
                raise ValueError(f"need {self.nw} walker ids, got {ids.size}")
            self.walker_ids = ids
        self._serial = int(serial)

    def evaluate(self, batch, tables, wf_components) -> np.ndarray:
        """(W,) V_NL for the crowd; walker state is never mutated."""
        with METRICS.scope("NLPP"):
            self._serial += 1
            return self._evaluate_vp(batch, tables, wf_components)

    def _evaluate_vp(self, batch, tables, wf_components) -> np.ndarray:
        if self.rotations is None:
            raise RuntimeError(
                "BatchedNonLocalPP needs set_rotations() before evaluate "
                "(the driver attaches QuadratureRotations(master_seed))")
        ab = tables[self.table_index]
        n = batch.n
        out = np.zeros(self.nw)
        # One crowd-wide gather of all in-range (walker, electron, ion)
        # pairs off the stored distance block.
        dsel = ab.distances[:, :n, :][:, :, self.ion_indices]
        pairs = np.argwhere(dsel < self.rcut)
        npairs = len(pairs)
        nq = len(self.dirs)
        METRICS.count("nlpp_pairs", npairs)
        METRICS.count("nlpp_ratio_points", npairs * nq)
        if npairs == 0:
            METRICS.record(flops=2.0 * self.nw * n, rbytes=8.0 * self.nw * n,
                           wbytes=8.0 * self.nw)
            return out
        pw = pairs[:, 0]
        pk = pairs[:, 1]
        ion_cols = self.ion_indices[pairs[:, 2]]
        pd = dsel[pw, pk, pairs[:, 2]]
        dv = ab.displacements[pw, pk, :, ion_cols]
        pair_units = -(dv / pd[:, None])        # unit vectors ion -> electron
        # Per-walker rotated quadrature frames, only for active walkers.
        dirs_rot = np.empty((self.nw, nq, 3))
        for w in np.unique(pw):
            rot = self.rotations.rotation(int(self.walker_ids[w]),
                                          self._serial)
            dirs_rot[w] = self.dirs @ rot.T
        cosines = np.einsum("pc,pqc->pq", pair_units, dirs_rot[pw])
        pl = legendre(self.l, cosines)
        # The flat virtual-particle slab: every quadrature position of
        # every pair, wrapped into the cell.
        slab = (self.ions.R[ion_cols][:, None, :]
                + pd[:, None, None] * dirs_rot[pw])
        slab = slab.reshape(-1, 3)
        if ab.lattice.periodic:
            slab = ab.lattice.wrap(slab)
        vw = np.repeat(pw, nq)
        vk = np.repeat(pk, nq)
        rho = np.ones(npairs * nq)
        for c in wf_components:
            rho *= c.ratios_vp(batch, tables, vw, vk, slab)
        acc = (self.weights[None, :] * pl
               * rho.reshape(npairs, nq)).sum(axis=1)
        contrib = self.radial(pd) * (2 * self.l + 1) * acc
        np.add.at(out, pw, contrib)
        METRICS.record(flops=30.0 * npairs * nq,
                       rbytes=24.0 * npairs * nq, wbytes=8.0 * npairs)
        return out
