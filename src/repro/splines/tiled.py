"""Tiled (AoSoA) multi-orbital B-spline evaluation — the Sec. 8.4 outlook.

The paper's previous work [8] showed that *tiling* the big B-spline
coefficient table — an array-of-SoA layout with ``norb`` split into
groups of ``tile`` orbitals, each tile a contiguous (nx+3, ny+3, nz+3,
tile) block — enables parallel execution over tiles and better cache
behaviour, and Sec. 8.4 proposes extending that to full QMCPACK as the
path to nested/"fat loop" parallelism.

:class:`TiledBSpline3D` implements that layout on top of the flat
:class:`~repro.splines.bspline3d.BSpline3D`: results are identical (the
tests assert it); each tile evaluation is independent, so the tile loop
is the unit that OpenMP-style workers would take.  An optional thread
pool demonstrates the parallel execution over tiles.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional

import numpy as np

from repro.splines.bspline3d import BSpline3D


class TiledBSpline3D:
    """Array-of-SoA coefficient layout: one sub-spline per orbital tile."""

    def __init__(self, spline: BSpline3D, tile: int = 32,
                 workers: int = 0):
        """Split ``spline``'s orbitals into contiguous tiles of ``tile``.

        ``workers > 0`` evaluates tiles on a thread pool (NumPy releases
        the GIL inside its kernels, so tiles genuinely overlap — the
        "fat loop over tiles" of Sec. 8.4).
        """
        if tile < 1:
            raise ValueError("tile must be >= 1")
        self.norb = spline.norb
        self.tile = min(tile, self.norb)
        self.cell_inverse = spline.cell_inverse
        self.dtype = spline.dtype
        self.tiles: List[BSpline3D] = []
        for start in range(0, self.norb, self.tile):
            stop = min(start + self.tile, self.norb)
            sub = BSpline3D.__new__(BSpline3D)
            sub.nx, sub.ny, sub.nz = spline.nx, spline.ny, spline.nz
            sub.norb = stop - start
            sub.dtype = spline.dtype
            sub.cell_inverse = spline.cell_inverse
            # Contiguous per-tile coefficient block (the AoSoA unit).
            sub.coefs = np.ascontiguousarray(spline.coefs[..., start:stop])
            self.tiles.append(sub)
        self._pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(max_workers=workers) if workers > 0 else None)

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    @property
    def table_bytes(self) -> int:
        return sum(t.coefs.nbytes for t in self.tiles)

    # -- evaluation ---------------------------------------------------------------
    def _parts(self, kernel: str, r: np.ndarray) -> list:
        """Each tile's ``kernel`` result at r, in tile order."""
        def call(t):
            return getattr(t, kernel)(r)
        if self._pool is not None:
            return list(self._pool.map(call, self.tiles))
        return [call(t) for t in self.tiles]

    def multi_v(self, r: np.ndarray) -> np.ndarray:
        return np.concatenate(self._parts("multi_v", r))

    def multi_vgh(self, r: np.ndarray):
        return tuple(np.concatenate(p)
                     for p in zip(*self._parts("multi_vgh", r)))

    def multi_vgl(self, r: np.ndarray):
        return tuple(np.concatenate(p)
                     for p in zip(*self._parts("multi_vgl", r)))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "TiledBSpline3D":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - finalizer best-effort
        try:
            self.close()
        except Exception:
            pass
