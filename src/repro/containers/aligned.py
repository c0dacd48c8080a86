"""Cache-aligned allocation helpers.

QMCPACK's SoA containers use cache-aligned allocators (TBB's on Intel
platforms) and pad each row to a multiple of the SIMD width so every row
starts on a cache-line boundary.  NumPy's default allocator gives 16-byte
alignment at best, so :func:`aligned_empty` over-allocates and returns a
view whose data pointer is aligned to ``alignment`` bytes — the same trick
``aligned_alloc`` plays.
"""

from __future__ import annotations

import numpy as np

from repro.precision.policy import resolve_value_dtype

#: Cache-line size assumed by the padding math (bytes).  64 on every
#: platform the paper targets (BDW, KNL, BG/Q).
CACHE_LINE_BYTES = 64


def padded_size(n: int, dtype=None, alignment: int = CACHE_LINE_BYTES) -> int:
    """Return ``n`` rounded up so a row of ``n`` elements fills whole cache lines.

    This is the ``Np`` of the paper's ``Rsoa[3][Np]``: the number of
    elements per row including SIMD/cache padding.

    >>> padded_size(5, np.float64)
    8
    >>> padded_size(8, np.float64)
    8
    >>> padded_size(5, np.float32)
    16
    """
    if n < 0:
        raise ValueError(f"size must be non-negative, got {n}")
    per_line = alignment // resolve_value_dtype(dtype).itemsize
    if per_line == 0:
        return n
    return ((n + per_line - 1) // per_line) * per_line


def aligned_empty(shape, dtype=None, alignment: int = CACHE_LINE_BYTES) -> np.ndarray:
    """Allocate an uninitialized array whose data pointer is ``alignment``-aligned.

    The returned array is C-contiguous.  Alignment matters little for
    NumPy's own kernels but keeps the container semantics faithful and
    lets the memory model account padding bytes identically to the C++
    allocators.
    """
    dtype = resolve_value_dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    buf = np.empty(nbytes + alignment, dtype=np.uint8)
    offset = (-buf.ctypes.data) % alignment
    view = buf[offset : offset + nbytes].view(dtype).reshape(shape)
    # Keep the backing buffer alive via the view's base chain.
    return view
