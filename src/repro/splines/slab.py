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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

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
    def promote(cls, spline: BSpline3D) -> "SharedCoefSlab":
        """Copy ``spline``'s padded table, in its storage dtype, into a
        fresh shared segment."""
        dtype = spline.coefs.dtype
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
        # only coefficient storage follows the source table's dtype.
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

