"""Walker-batched B-spline SPO evaluation.

One call evaluates all orbitals at W walkers' active-electron positions:
the 4x4x4 stencil blocks of all walkers are gathered into a
``(W, 64, norb)`` slab and contracted in one batched matmul instead of W
separate ``multi_*`` calls.  Each kernel is the per-walker GEMM with a
walker axis — the same stencil rows, vgl fold and chain rule
(``repro.splines.bspline3d``) — so row ``w`` equals the per-point
``multi_v``/``multi_vgl``/``multi_vgh`` at ``r[w]`` bit for bit, and a
walker's result does not depend on the batch it rides in.  The stencil
arithmetic lives in the active backend's ``spline3d_*`` kernels; this
module owns the spline-object unpacking and the op accounting (one
W-point call records what W per-point calls do).
"""

from __future__ import annotations

import numpy as np

from repro.backend import active
from repro.splines.bspline3d import BSpline3D


def _args(spline: BSpline3D, r: np.ndarray) -> tuple:
    return (spline.coefs, spline.cell_inverse,
            (spline.nx, spline.ny, spline.nz), r)


def batched_multi_v(spline: BSpline3D, r: np.ndarray) -> np.ndarray:
    """Values of all orbitals at W points: (W, 3) -> (W, norb)."""
    v = np.asarray(active().spline3d_v(*_args(spline, r)))
    spline.record_ops("v", r.shape[0])
    return v


def batched_multi_vgh(spline: BSpline3D, r: np.ndarray):
    """Values, Cartesian gradients and full Hessians of all orbitals at
    W points: (W, 3) -> (v (W, m), g (W, m, 3), h (W, m, 3, 3))."""
    v, g, h = active().spline3d_vgh(*_args(spline, r))
    spline.record_ops("vgh", r.shape[0])
    return np.asarray(v), np.asarray(g), np.asarray(h)


def batched_multi_vgl(spline: BSpline3D, r: np.ndarray):
    """Values, Cartesian gradients and Laplacians of all orbitals at W
    points: (W, 3) -> (v (W, m), g (W, m, 3), lap (W, m))."""
    v, g, lap = active().spline3d_vgl(*_args(spline, r))
    spline.record_ops("vgl", r.shape[0])
    return np.asarray(v), np.asarray(g), np.asarray(lap)
