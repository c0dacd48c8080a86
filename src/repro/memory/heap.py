"""Keep freed heap memory in the process for reuse.

The crowd kernels allocate per-call temporaries and free them again:
an NLPP evaluation walks its virtual-particle slab in per-walker tiles
of a few MiB of ``(tile, n)`` blocks.  glibc returns the heap top to
the system whenever more than its trim threshold is free, and that
threshold stays at 128 KiB for good once the mmap threshold is fixed
(``MALLOC_MMAP_THRESHOLD_`` or ``mallopt``), so every tile faults its
pages back in — 23 000 minor faults per generation on the 96-electron
NLPP workload — unless an earlier, larger temporary happened to leave
a free hole below the top.  :func:`keep_freed_heap` fixes both
thresholds at the values glibc's dynamic rule converges to (mmap
32 MiB, the 64-bit maximum; trim twice that).  Kept pages were resident
at the peak already, so the peak resident size does not grow.
"""

from __future__ import annotations

import ctypes

#: ``mallopt`` parameters (glibc ``malloc.h``)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 * 2**20


def keep_freed_heap() -> None:
    """Fix glibc's mmap and trim thresholds (idempotent)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)
