"""``WalkerBatch`` — the crowd-wide SoA position block.

The paper's SoA transformation vectorizes over *particles* within one
walker (``Rsoa[3][Np]``).  Its successors (the QMCPACK batched drivers,
QMCkl) extend the same layout argument across *walkers*: W walkers'
electron positions live as one aligned ``(W, 3, Np)`` block so a single
wide kernel sweeps the walker axis the way Fig. 5's kernels sweep the
particle axis.

Layout contract (checked by the batched sanitizers):

* ``Rsoa`` is C-contiguous, cache-aligned, float64 (the batched stack
  runs one precision); padding columns ``[n:Np]`` are zero so row
  reductions over padded rows stay safe;
* ``R`` is the canonical ``(W, n, 3)`` double-precision configuration
  (the AoS-side the high-level physics and the min-image math read),
  exactly mirroring ``ParticleSet.R`` vs ``ParticleSet.Rsoa``;
* per-walker scalars (weight, log Psi, E_L) are double precision.
"""

from __future__ import annotations

import numpy as np

from repro.containers.aligned import CACHE_LINE_BYTES, aligned_empty, \
    padded_size


def commit_rows(dst: np.ndarray, src: np.ndarray, accepted: np.ndarray,
                negate: bool = False) -> None:
    """``dst[w] = src[w]`` (``-src[w]`` with ``negate``) for every
    accepted walker ``w`` — the one accept-commit of the crowd.

    ``dst`` and ``src`` carry the walker axis first.  When every walker
    accepted (most moves of a DMC crowd) this is one plain slice write;
    otherwise the accepted walkers are indexed by ``np.flatnonzero``,
    which gathers and scatters fewer rows than a boolean mask does.
    Values are copied (or negated, exactly), never recomputed.
    """
    if accepted.all():
        if negate:
            np.negative(src, out=dst)
        else:
            dst[...] = src
        return
    idx = np.flatnonzero(accepted)
    dst[idx] = -src[idx] if negate else src[idx]


class WalkerBatch:
    """W walkers' positions as one padded, aligned SoA block.

    Parameters
    ----------
    nwalkers, n:
        Walker count W and particles per walker N.
    """

    #: element type of ``R`` and ``Rsoa`` alike
    dtype = np.dtype(np.float64)

    def __init__(self, nwalkers: int, n: int,
                 alignment: int = CACHE_LINE_BYTES):
        if nwalkers < 1:
            raise ValueError(f"need at least one walker, got {nwalkers}")
        if n < 1:
            raise ValueError(f"need at least one particle, got {n}")
        self.nw = int(nwalkers)
        self.n = int(n)
        self.alignment = int(alignment)
        self.np = padded_size(self.n, self.dtype, alignment)
        # Canonical configuration, like ParticleSet.R.
        self.R = np.zeros((self.nw, self.n, 3))
        # The hot block: one aligned (W, 3, Np) slab.
        self.Rsoa = aligned_empty((self.nw, 3, self.np), self.dtype,
                                  alignment)
        self.Rsoa[...] = 0  # zeroed padding: reductions over rows are safe
        # Per-walker accumulators.
        self.weight = np.ones(self.nw)
        self.logpsi = np.zeros(self.nw)
        self.local_energy = np.zeros(self.nw)
        self.age = np.zeros(self.nw, dtype=np.int64)

    # -- construction -----------------------------------------------------------
    @classmethod
    def from_positions(cls, positions: np.ndarray,
                       alignment: int = CACHE_LINE_BYTES) -> "WalkerBatch":
        """Build from a (W, N, 3) position array."""
        positions = np.asarray(positions)
        if positions.ndim != 3 or positions.shape[2] != 3:
            raise ValueError(
                f"positions must be (W, N, 3), got {positions.shape}")
        batch = cls(positions.shape[0], positions.shape[1],
                    alignment=alignment)
        batch.R[...] = positions
        batch.sync_soa()
        return batch

    @classmethod
    def attach(cls, R: np.ndarray, weight: np.ndarray, logpsi: np.ndarray,
               local_energy: np.ndarray, age: np.ndarray,
               alignment: int = CACHE_LINE_BYTES) -> "WalkerBatch":
        """Wrap externally owned canonical storage (e.g. a crowd's strided
        views of a shared-memory block) instead of allocating it.

        ``R`` and the per-walker scalars become the batch's canonical
        arrays, so every ``commit`` lands directly in the caller's
        storage — the zero-copy contract of the process-parallel crowds.
        Only the hot ``Rsoa`` scratch block stays private (it must be
        cache-aligned, which arbitrary views are not).
        """
        R = np.asarray(R)
        if R.ndim != 3 or R.shape[2] != 3:
            raise ValueError(f"R must be (W, N, 3), got {R.shape}")
        nw, n = R.shape[0], R.shape[1]
        for name, arr in (("weight", weight), ("logpsi", logpsi),
                          ("local_energy", local_energy), ("age", age)):
            if np.asarray(arr).shape != (nw,):
                raise ValueError(f"{name} must be ({nw},), "
                                 f"got {np.asarray(arr).shape}")
        batch = cls(nw, n, alignment=alignment)
        batch.R = R
        batch.weight = weight
        batch.logpsi = logpsi
        batch.local_energy = local_energy
        batch.age = age
        batch.sync_soa()
        return batch

    # -- layout maintenance -----------------------------------------------------
    def sync_soa(self) -> None:
        """Rebuild the hot (W, 3, Np) block from the canonical R — the
        batched ``loadWalker`` assignment (AoS-to-SoA)."""
        self.Rsoa[:, :, : self.n] = np.transpose(self.R, (0, 2, 1))

    def commit(self, k: int, rnew: np.ndarray, accepted: np.ndarray) -> None:
        """Commit particle ``k``'s accepted moves across the batch.

        ``rnew`` is the (W, 3) block of proposed positions; ``accepted``
        the (W,) boolean mask.  Per accepted walker this writes the same
        6 floats the paper's scalar ``acceptMove`` writes (R + Rsoa).
        """
        commit_rows(self.R[:, k], rnew, accepted)
        commit_rows(self.Rsoa[:, :, k], rnew, accepted)

    # -- bookkeeping ------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes of the hot block including padding."""
        return self.Rsoa.nbytes

    def __len__(self) -> int:
        return self.nw

    def __repr__(self) -> str:
        return (f"WalkerBatch(nw={self.nw}, n={self.n}, np={self.np}, "
                f"dtype={self.dtype.name})")
