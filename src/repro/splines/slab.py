"""Shared read-only B-spline coefficient slabs for multi-process crowds.

The orbital coefficient table is by far the largest read-only object in
a run (Table 1's B-spline row), and the companion B-spline paper's first
memory lever is simply *not copying it*: K crowd processes should map
one physical table, not K private replicas.  :class:`SharedCoefSlab`
promotes a :class:`~repro.splines.bspline3d.BSpline3D` coefficient table
into a :mod:`multiprocessing.shared_memory` segment with the same
lifecycle contract as the walker-state blocks — its segment is the same
:class:`repro.parallel.shm._SharedBlock`:

* the creating process (``promote``) owns the segment and unlinks it
  exactly once — a ``weakref.finalize`` guard covers a forgotten
  ``close()``, so a crashed parent cannot leak ``/dev/shm`` segments;
* attachers (``attach``) are excluded from their ``resource_tracker``
  so a worker's exit — normal or violent — neither unlinks the table
  under the parent nor spams tracker warnings.

Every mapping is **read-only**: the numpy view's writeable flag is
cleared after the one-time fill, so an accidental in-place update in any
process raises instead of silently racing every other crowd.

:class:`MixedTableGuard` implements the opt-in mixed-precision table
policy (:data:`repro.precision.policy.TABLE_MIXED`): fp32 coefficient
storage with fp64 stencil accumulation — the contraction kernels widen
the gathered blocks, so only the table itself loses precision — plus a
periodic fp64 reference recompute whose drift check is armed by the
runtime sanitizers (``REPRO_SANITIZE=1``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.sanitizers import sanitizers_enabled
from repro.precision.policy import PrecisionPolicy
from repro.splines.bspline3d import BSpline3D


@dataclass(frozen=True)
class SlabDescriptor:
    """Picklable handle a worker needs to map (and interpret) a slab."""

    name: str                       # shared-memory segment name
    shape: Tuple[int, ...]          # padded (nx+3, ny+3, nz+3, norb)
    dtype: str                      # coefficient storage dtype
    dims: Tuple[int, int, int]      # logical grid (nx, ny, nz)
    cell_inverse: np.ndarray = field(repr=False)
    nbytes: int = 0


class SharedCoefSlab:
    """One read-only coefficient table shared by every crowd process."""

    def __init__(self, descriptor: SlabDescriptor, spline=None):
        """Map ``descriptor``'s segment; with ``spline`` create it and
        fill it from that table first (owner side)."""
        # Lazy: ``repro.parallel``'s package import fans out through the
        # whole driver stack, which imports back into repro.splines.
        from repro.parallel.shm import _SharedBlock
        self.descriptor = descriptor
        self._block = _SharedBlock(
            (("coefs", descriptor.shape, descriptor.dtype),),
            descriptor.name, create=spline is not None)
        self.coefs = self._block.coefs
        if spline is not None:
            self.coefs[...] = spline.coefs
        self.coefs.flags.writeable = False

    # -- construction -----------------------------------------------------------
    @classmethod
    def promote(cls, spline: BSpline3D,
                policy: Optional[PrecisionPolicy] = None) -> "SharedCoefSlab":
        """Copy ``spline``'s padded table into a fresh shared segment.

        ``policy`` selects the storage dtype (``TABLE_MIXED`` stores
        fp32); the kernels widen gathered blocks to the accumulation
        dtype regardless, so only table storage changes.
        """
        dtype = (np.dtype(policy.value_dtype) if policy is not None
                 else spline.coefs.dtype)
        from repro.parallel.shm import fresh_name
        shape = tuple(spline.coefs.shape)
        return cls(SlabDescriptor(
            name=fresh_name("repro-slab"), shape=shape, dtype=dtype.str,
            dims=(spline.nx, spline.ny, spline.nz),
            cell_inverse=np.array(spline.cell_inverse, dtype=np.float64),
            nbytes=int(np.prod(shape)) * dtype.itemsize), spline)

    @classmethod
    def attach(cls, descriptor: SlabDescriptor) -> "SharedCoefSlab":
        """Map an existing slab (worker side), untracked."""
        return cls(descriptor)

    # -- identity ---------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._block.name

    @property
    def nbytes(self) -> int:
        return self._block.nbytes

    @property
    def norb(self) -> int:
        return int(self.descriptor.shape[-1])

    def as_spline(self) -> BSpline3D:
        """Zero-copy :class:`BSpline3D` over the shared (read-only) table
        — drop-in for every multi/batched evaluation path."""
        sp = BSpline3D.__new__(BSpline3D)
        sp.nx, sp.ny, sp.nz = self.descriptor.dims
        sp.norb = self.norb
        sp.dtype = np.dtype(self.descriptor.dtype)
        # Cell geometry is always double, like the descriptor's copy —
        # only coefficient storage follows the table policy.
        sp.cell_inverse = np.array(self.descriptor.cell_inverse,
                                   dtype=np.float64)
        sp.coefs = self.coefs
        return sp

    # -- teardown ---------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (attachers); owners also unlink."""
        if hasattr(self, "coefs"):  # the view pins shm.buf; release first
            delattr(self, "coefs")
        self._block.close()

    unlink = close  # owner-side alias, mirroring SharedWalkerState

    def __enter__(self) -> "SharedCoefSlab":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"SharedCoefSlab(name={self.name!r}, "
                f"shape={self.descriptor.shape}, "
                f"dtype={self.descriptor.dtype}, owner={self._block.owner})")


class MixedTableGuard:
    """Drift guard for fp32 coefficient tables (the TABLE_MIXED policy).

    Holds the fp64 source spline alongside the downcast slab view and,
    on the policy's recompute cadence, re-evaluates a probe batch through
    both tables.  Under ``REPRO_SANITIZE=1`` a drift beyond ``tol``
    raises; otherwise the guard only records the running maximum (the
    report-don't-fail production mode).
    """

    #: fp32 storage + fp64 accumulation keeps orbital values to ~1e-6
    #: relative; an excursion past this means the table itself is stale.
    DEFAULT_TOL = 5e-5

    def __init__(self, slab: SharedCoefSlab, reference: BSpline3D,
                 policy: PrecisionPolicy, tol: float = DEFAULT_TOL):
        self.slab = slab
        self.reference = reference
        self.policy = policy
        self.tol = float(tol)
        self.max_drift = 0.0
        self.recomputes = 0
        self._spline = slab.as_spline()

    def check(self, generation: int, r: np.ndarray) -> Optional[float]:
        """Run the periodic fp64 recompute if ``generation`` is due.

        Returns the measured relative drift (and bumps the counters), or
        None when the cadence says this generation is not a checkpoint.
        """
        if not self.policy.should_recompute(generation):
            return None
        from repro.batched.spo import batched_multi_v
        lo = np.asarray(batched_multi_v(self._spline, r), dtype=np.float64)
        hi = np.asarray(batched_multi_v(self.reference, r), dtype=np.float64)
        scale = max(1.0, float(np.max(np.abs(hi))))
        drift = float(np.max(np.abs(lo - hi)) / scale)
        self.recomputes += 1
        self.max_drift = max(self.max_drift, drift)
        if sanitizers_enabled() and drift > self.tol:
            raise RuntimeError(
                f"mixed-precision table drift {drift:.3e} exceeds "
                f"tolerance {self.tol:.3e} at generation {generation} — "
                f"refresh the fp32 slab from the fp64 source")
        return drift
