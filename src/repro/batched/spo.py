"""Walker-batched B-spline SPO evaluation.

One call evaluates all orbitals at W walkers' active-electron positions:
the 4x4x4 stencil blocks of all walkers are gathered into a
``(W, 4, 4, 4, norb)`` slab and contracted in one call instead of W
separate ``multi_v`` calls.  Values are one batched matmul of each
walker's (1, 64) stencil row against its (64, norb) block, built by the
same ``stencil_rows`` helper as the per-walker kernels; the vgl/vgh
kernels contract per derivative channel with einsum.  The stencil
arithmetic lives in the active backend's ``spline3d_*`` kernels; this
module owns the spline-object unpacking and the op accounting.

The batched vgl/vgh contractions are *not* bitwise-identical to the
per-walker GEMMs (einsum picks a different contraction order over the
64-point stencil); the differential suite bounds the difference at a
few ulps of the accumulation precision.  The SPO kernels feed
determinants, not the Jastrow-level Metropolis loop, so this does not
perturb the accept/reject sequence.
"""

from __future__ import annotations

import numpy as np

from repro.backend import active
from repro.perfmodel.opcount import OPS
from repro.splines.bspline3d import BSpline3D


def batched_multi_v(spline: BSpline3D, r: np.ndarray) -> np.ndarray:
    """Values of all orbitals at W points: (W, 3) -> (W, norb)."""
    nw = r.shape[0]
    v = np.asarray(active().spline3d_v(
        spline.coefs, spline.cell_inverse,
        (spline.nx, spline.ny, spline.nz), r))
    OPS.record("Bspline-v", flops=nw * (2.0 * 64 * spline.norb + 200),
               rbytes=nw * 64.0 * spline.norb * spline.dtype.itemsize,
               wbytes=nw * 8.0 * spline.norb)
    return v


def batched_multi_vgh(spline: BSpline3D, r: np.ndarray, tile: int = 64):
    """Values, Cartesian gradients and full Hessians of all orbitals at
    W points via the tile-blocked kernel: (W, 3) -> (v (W, m),
    g (W, m, 3), h (W, m, 3, 3)).

    This is the batched generalization of the per-walker
    ``TiledBSpline3D`` path: each walker's 4x4x4 neighborhood is walked
    once per tile of ``tile`` orbitals for all ten derivative channels.
    The result is bitwise independent of ``tile`` and bitwise equal to
    :func:`batched_multi_vgh_flat`.
    """
    nw = r.shape[0]
    v, g, h = active().spline3d_vgh_tiled(
        spline.coefs, spline.cell_inverse,
        (spline.nx, spline.ny, spline.nz), r, tile)
    OPS.record("Bspline-vgh", flops=nw * (2.0 * 64 * spline.norb * 10 + 500),
               rbytes=nw * 64.0 * spline.norb * spline.dtype.itemsize,
               wbytes=nw * 8.0 * spline.norb * 13)
    return np.asarray(v), np.asarray(g), np.asarray(h)


def batched_multi_vgh_flat(spline: BSpline3D, r: np.ndarray):
    """Flat (one einsum per derivative channel) batched vgh — the
    numpy-only bitwise oracle and the ``flat`` leg of the
    ``tiled_over_flat`` ratio guard.  Not backend-dispatched by design."""
    from repro.backend.numpy_backend import flat_spline3d_vgh
    return flat_spline3d_vgh(
        spline.coefs, spline.cell_inverse,
        (spline.nx, spline.ny, spline.nz), r)


def batched_multi_vgl(spline: BSpline3D, r: np.ndarray):
    """Values, Cartesian gradients and Laplacians of all orbitals at W
    points: (W, 3) -> (v (W, m), g (W, m, 3), lap (W, m))."""
    nw = r.shape[0]
    v, g, lap = active().spline3d_vgl(
        spline.coefs, spline.cell_inverse,
        (spline.nx, spline.ny, spline.nz), r)
    OPS.record("Bspline-vgh", flops=nw * (2.0 * 64 * spline.norb * 10 + 500),
               rbytes=nw * 64.0 * spline.norb * spline.dtype.itemsize,
               wbytes=nw * 8.0 * spline.norb * 13)
    return np.asarray(v), np.asarray(g), np.asarray(lap)
