"""Shared-memory walker-state blocks for multi-process crowds.

One :class:`SharedWalkerState` owns a single
:mod:`multiprocessing.shared_memory` segment holding the canonical
per-walker arrays of the whole population — ``R`` (W, n, 3) plus the
per-walker scalars (weight, log Psi, E_L, age) and the last comb's
``source`` slot of each walker — laid out back to back
at 64-byte-aligned offsets.  The parent process creates the segment;
each worker process attaches by name and takes *strided numpy views* of
its crowd's walkers (``arr[c::k]``), so an accepted Metropolis move is
committed straight into shared memory by the batched driver's normal
``WalkerBatch.commit`` write — no pickling of walker positions, ever.
It is the only segment the crowd pool maps: each generation's
per-walker estimator rows ride the crowds' replies instead.

Lifecycle contract (see docs/parallel_crowds.md):

* the creating process calls :meth:`SharedWalkerState.unlink` exactly
  once (idempotent); a ``weakref.finalize`` guard unlinks on interpreter
  exit if the owner forgot, so a crashed *parent* cannot leak
  ``/dev/shm`` segments;
* attaching processes call :meth:`~SharedWalkerState.close` only — and
  their attachment is excluded from the ``resource_tracker`` so a
  worker's exit (normal or violent) neither unlinks the segment under
  the parent nor spams tracker warnings;
* a block built without a segment name has the same fields over plain
  process memory; only tests use it, to host crowds in process exactly
  as the workers host them (the in-process crowd driver owns a
  ``WalkerBatch`` instead).
"""

from __future__ import annotations

import secrets
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Optional, Tuple

import numpy as np

from repro.containers.aligned import CACHE_LINE_BYTES


def _align(offset: int, alignment: int = CACHE_LINE_BYTES) -> int:
    return (offset + alignment - 1) // alignment * alignment


def _pack(fields) -> Tuple[Dict[str, tuple], int]:
    """Lay ``(name, shape, dtype)`` fields out back to back at
    cache-line-aligned offsets; returns ``{name: (offset, shape,
    dtype)}`` and the total size."""
    out: Dict[str, tuple] = {}
    offset = 0
    for name, shape, dtype in fields:
        offset = _align(offset)
        out[name] = (offset, tuple(shape), dtype)
        offset += int(np.prod(shape)) * np.dtype(dtype).itemsize
    return out, offset


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Drop ``shm`` from this process's resource tracker.

    Attachers must not let their tracker unlink a segment the parent
    owns (Python < 3.13 has no ``track=False``); failure to unregister
    only costs a warning at exit, so errors are swallowed.
    """
    try:  # pragma: no cover - registry internals differ across versions
        resource_tracker.unregister("/" + shm.name.lstrip("/"),
                                    "shared_memory")
    except Exception:
        pass


def _unlink(shm: shared_memory.SharedMemory) -> None:
    """Close and unlink an owned segment (idempotent)."""
    try:
        shm.close()
    except (BufferError, OSError):  # a view still pins the mapping;
        pass                        # the unlink below must still run
    try:
        # Re-arm the tracker entry first: forked workers share this
        # process's tracker, so their attach-time _untrack() removed
        # our registration and unlink()'s internal unregister would
        # otherwise make the tracker process print a KeyError.
        resource_tracker.register("/" + shm.name.lstrip("/"),
                                  "shared_memory")
    except Exception:  # pragma: no cover - tracker internals
        pass
    try:
        shm.unlink()
    except (FileNotFoundError, OSError):  # already gone
        pass


class SharedWalkerState:
    """The population's canonical walker state in one block: the
    :data:`~repro.drivers.generation.STATE_FIELDS`, then ``source``, the
    slot the last comb took each walker from (a checkpoint does not
    carry it).

    Constructed without a segment name, the fields lie over plain heap
    memory; otherwise over the shared-memory segment ``name``, which
    this process either creates (zero-filled, owned, unlinked exactly
    once — by ``close`` or by the ``weakref.finalize`` guard) or
    attaches to (untracked, never unlinked)."""

    def __init__(self, nwalkers: int, n: int, name: Optional[str] = None,
                 create: bool = False):
        self.nw = nw = int(nwalkers)
        self.n = int(n)
        layout, size = _pack((("R", (nw, self.n, 3), "float64"),
                              ("weight", (nw,), "float64"),
                              ("logpsi", (nw,), "float64"),
                              ("local_energy", (nw,), "float64"),
                              ("age", (nw,), "int64"),
                              ("source", (nw,), "int64")))
        self.owner = create
        self._fields = tuple(layout)
        self._shm = None
        if create:
            self._shm = shared_memory.SharedMemory(
                name=name, create=True, size=size)
            self._shm.buf[:] = b"\x00" * size
        elif name is not None:
            self._shm = shared_memory.SharedMemory(name=name)
            _untrack(self._shm)
        buf = self._shm.buf if self._shm is not None else bytearray(size)
        self.nbytes = len(buf)
        for field, (offset, shape, dtype) in layout.items():
            setattr(self, field, np.ndarray(
                shape, dtype=dtype, buffer=buf, offset=offset))
        self._finalizer = (weakref.finalize(self, _unlink, self._shm)
                           if create else None)
        if create or name is None:
            self.weight[...] = 1.0
            self.source[...] = np.arange(nw)

    # -- construction -----------------------------------------------------------
    @classmethod
    def create(cls, nwalkers: int, n: int) -> "SharedWalkerState":
        """Allocate a fresh zeroed segment (parent side)."""
        return cls(nwalkers, n, f"repro-crowds-{secrets.token_hex(6)}",
                   create=True)

    @classmethod
    def attach(cls, name: str, nwalkers: int, n: int) -> "SharedWalkerState":
        """Map an existing segment (worker side), untracked."""
        return cls(nwalkers, n, name)

    def __repr__(self) -> str:
        return (f"SharedWalkerState(nw={self.nw}, n={self.n}, "
                f"name={self.name!r}, owner={self.owner})")

    # -- the segment lifecycle ---------------------------------------------------
    @property
    def name(self) -> Optional[str]:
        """Segment name attachers map by (None for a heap block)."""
        return self._shm.name if self._shm is not None else None

    def close(self) -> None:
        """Drop this process's mapping (attachers); owners also unlink."""
        for field in self._fields:  # views pin shm.buf; release them first
            if hasattr(self, field):
                delattr(self, field)
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        if self.owner:
            _unlink(self._shm)
        elif self._shm is not None:
            try:
                self._shm.close()
            except OSError:  # pragma: no cover
                pass

    unlink = close  # owner-side alias; close() already unlinks for owners

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
