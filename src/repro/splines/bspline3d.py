"""Periodic tricubic B-splines holding all orbitals in one table.

This is the einspline ``multi_UBspline_3d`` equivalent: one coefficient
array ``C[nx+3, ny+3, nz+3, norb]`` (three wrap layers of padding so the
4x4x4 evaluation stencil never needs modulo arithmetic) evaluated in the
fractional coordinates of the simulation cell.

Fitting is exact periodic B-spline interpolation done axis-by-axis in
Fourier space: for a uniform periodic grid the interpolation operator is
a circular convolution with kernel (1/6, 4/6, 1/6), so coefficients are
``ifft(fft(data) / B_hat)`` with ``B_hat(k) = (4 + 2 cos(2 pi k / n))/6``.

Two evaluation paths, matching the paper's kernels:

* ``multi_*`` — all orbitals at once, orbital index contiguous (SoA):
  the per-axis 1D weights become ``(k, 64)`` stencil rows
  (:func:`stencil_rows`) and one GEMM against the ``(64, norb)``
  stencil block updates every orbital from them.  ``multi_v`` is one
  row (Bspline-v), ``multi_vgh`` ten (Bspline-vgh), and ``multi_vgl``
  five: value, Cartesian gradient, and the Laplacian folded into the
  weights (SPO-vgl), so no Hessian is formed.  The steps around the
  GEMM — :func:`locate`, :func:`axis_weights`, :func:`stencil_rows`,
  :func:`vgl_fold` and :func:`vgh_chain_rule` — pass leading axes
  through, so the walker-batched backend kernels (``spline3d_*``) are
  these GEMMs with a walker axis and equal them point by point, bit for
  bit.
* ``single_*`` — per-orbital loop (the reference AoS-ish path, already
  partially vectorized in QMCPACK 3.0.0, hence its modest 1.3-1.7x
  speedups in the paper).

The coefficient table may be float32 — the paper's single-precision SPO
storage — which halves both its footprint (Table 1's B-spline GB) and
its bandwidth demand.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.metrics.registry import METRICS

# Segment matrix and derivatives (see cubic1d.py), as (4, 4) acting on
# (1, u, u^2, u^3).
_A = np.array([
    [1.0, -3.0, 3.0, -1.0],
    [4.0, 0.0, -6.0, 3.0],
    [1.0, 3.0, 3.0, -3.0],
    [0.0, 0.0, 0.0, 1.0],
]) / 6.0
_dA = np.array([
    [-3.0, 6.0, -3.0, 0.0],
    [0.0, -12.0, 9.0, 0.0],
    [3.0, 6.0, -9.0, 0.0],
    [0.0, 0.0, 3.0, 0.0],
]) / 6.0
_d2A = np.array([
    [6.0, -6.0, 0.0, 0.0],
    [-12.0, 18.0, 0.0, 0.0],
    [6.0, -18.0, 0.0, 0.0],
    [0.0, 6.0, 0.0, 0.0],
]) / 6.0

# (value, d, d2) segment matrices side by side: (1, u, u^2, u^3) @ _W1D
# gives the three 4-point weight sets of one axis as a (3, 4) block.
_W1D = np.concatenate([_A.T, _dA.T, _d2A.T], axis=1)
_POWERS = np.arange(4.0)


def axis_weights(u: np.ndarray) -> np.ndarray:
    """Segment offsets u (..., 3) -> the (value, d, d2) 4-point weights
    of each axis in grid units, ``w[..., axis, order, point]``."""
    return (u[..., None] ** _POWERS @ _W1D).reshape(u.shape + (3, 4))


def _channel_index(orders) -> np.ndarray:
    """Gather index of :func:`stencil_rows` for channels given by their
    per-axis derivative orders (k, 3): (3, k, 64) into the flattened
    (3, 3, 4) weights, stencil point x slowest."""
    p = np.arange(64)
    points = np.stack([p // 16, p // 4 % 4, p % 4])
    orders = np.asarray(orders).T
    return (12 * np.arange(3)[:, None, None] + 4 * orders[:, :, None]
            + points[:, None, :])


#: The value channel alone (Bspline-v).
V_ROWS = _channel_index([(0, 0, 0)])
#: The ten vgh channels v, d_x, d_y, d_z, d_xx, d_yy, d_zz, d_xy, d_xz,
#: d_yz (Bspline-vgh, and SPO-vgl before its fold).
VGH_ROWS = _channel_index([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                           (2, 0, 0), (0, 2, 0), (0, 0, 2),
                           (1, 1, 0), (1, 0, 1), (0, 1, 1)])
# Channel of the grid-frame second derivative d_a d_b.
_HESS = np.array([[4, 7, 8], [7, 5, 9], [8, 9, 6]])


def stencil_rows(w: np.ndarray, channels: np.ndarray) -> np.ndarray:
    """Per-axis weights ``w[..., axis, order, point]`` -> the 64-point
    stencil rows (..., k, 64) of ``channels`` (:data:`V_ROWS` or
    :data:`VGH_ROWS`): ``wx * wy * wz`` at every point of the 4x4x4
    stencil, in the order of ``coefs[i:i+4, j:j+4, k:k+4].reshape(64,
    norb)``.  Leading axes (walkers) pass through, so one body serves
    the per-walker calls and the batched ones."""
    flat = w.reshape(w.shape[:-3] + (36,))
    rows = np.take(flat, channels[0], axis=-1)
    rows *= np.take(flat, channels[1], axis=-1)
    rows *= np.take(flat, channels[2], axis=-1)
    return rows


def grid_of(dims) -> tuple:
    """(nx, ny, nz) -> (dims as float64, last knot index per axis): the
    grid constants :func:`locate` takes."""
    dims = np.array(dims, dtype=np.float64)
    return dims, (dims - 1).astype(np.int64)


def locate(r: np.ndarray, cell_inverse: np.ndarray, grid) -> tuple:
    """Cartesian points r (..., 3) -> knot i (..., 3) and segment
    offsets u (..., 3) of their stencils, with periodic wrap in the
    fractional frame.  ``grid`` is :func:`grid_of`'s pair; leading
    axes pass through."""
    dims, top = grid
    frac = np.asarray(r, dtype=np.float64) @ cell_inverse
    t = (frac - np.floor(frac)) * dims
    i = np.minimum(t.astype(np.int64), top)
    return i, t - i


def vgl_fold(cell_inverse: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """(5, 10) map from the grid-frame vgh channels to the value, the
    Cartesian gradient ``inv @ (dims * d)`` and the Laplacian
    ``sum_ab M_ab d_a d_b`` with ``M = (inv^T inv) * outer(dims, dims)``
    — the trace of ``inv H inv^T`` without forming H (SPO-vgl)."""
    fold = np.zeros((5, 10))
    fold[0, 0] = 1.0
    fold[1:4, 1:4] = cell_inverse * dims
    # M is symmetric: each mixed channel collects M_ab + M_ba.
    np.add.at(fold[4], _HESS,
              (cell_inverse.T @ cell_inverse) * np.outer(dims, dims))
    return fold


def vgh_chain_rule(out: np.ndarray, cell_inverse: np.ndarray,
                   dims: np.ndarray) -> tuple:
    """Grid-frame vgh channels ``out`` (..., 10, m) -> (v (..., m),
    g (..., m, 3), h (..., m, 3, 3)): the grid scalings, then the chain
    rule to Cartesian, grad_r = inv @ grad_u and H_r = inv H_u inv^T.
    Leading axes (walkers) pass through."""
    gu = out[..., 1:4, :] * dims[:, None]
    hu = out[..., _HESS, :] * np.outer(dims, dims)[:, :, None]
    g = np.swapaxes(np.matmul(cell_inverse, gu), -1, -2)
    h = np.einsum("ia,...abm,jb->...mij", cell_inverse, hu, cell_inverse)
    return out[..., 0, :], g, h


def fit_periodic_coefs_1d(data: np.ndarray, axis: int = 0) -> np.ndarray:
    """Exact periodic cubic B-spline interpolation coefficients along ``axis``."""
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[axis]
    k = np.arange(n)
    bhat = (4.0 + 2.0 * np.cos(2.0 * np.pi * k / n)) / 6.0
    shape = [1] * data.ndim
    shape[axis] = n
    coef_hat = np.fft.fft(data, axis=axis) / bhat.reshape(shape)
    return np.real(np.fft.ifft(coef_hat, axis=axis))


class BSpline3D:
    """Multi-orbital periodic tricubic B-spline over a cell's fractional cube."""

    def __init__(self, coefs: np.ndarray, cell_inverse: np.ndarray,
                 dtype=np.float32):
        """``coefs`` is the unpadded (nx, ny, nz, norb) coefficient grid;
        ``cell_inverse`` is the (3, 3) inverse cell matrix (fractional =
        cartesian @ inverse), used for the gradient/hessian chain rule."""
        coefs = np.asarray(coefs)
        if coefs.ndim != 4:
            raise ValueError(f"coefs must be (nx, ny, nz, norb), got {coefs.shape}")
        self.nx, self.ny, self.nz, self.norb = coefs.shape
        if min(self.nx, self.ny, self.nz) < 4:
            raise ValueError("grid must be at least 4 points per dimension")
        self.dtype = np.dtype(dtype)
        self.cell_inverse = np.asarray(cell_inverse, dtype=np.float64)
        # Pad with 3 wrap layers so the stencil i..i+3 never wraps.
        padded = np.empty((self.nx + 3, self.ny + 3, self.nz + 3, self.norb),
                          dtype=self.dtype)
        padded[:self.nx, :self.ny, :self.nz] = coefs
        padded[self.nx:, :self.ny, :self.nz] = coefs[:3]
        padded[:, self.ny:, :self.nz] = padded[:, :3, :self.nz]
        padded[:, :, self.nz:] = padded[:, :, :3]
        self.coefs = padded

    # -- construction ------------------------------------------------------------
    @classmethod
    def fit(cls, values: np.ndarray, cell_inverse: np.ndarray,
            dtype=np.float32) -> "BSpline3D":
        """Fit orbital values sampled on a periodic (nx, ny, nz, norb) grid."""
        c = fit_periodic_coefs_1d(values, axis=0)
        c = fit_periodic_coefs_1d(c, axis=1)
        c = fit_periodic_coefs_1d(c, axis=2)
        # The evaluation stencil for the segment starting at knot j reads
        # coefficients j..j+3 and reproduces the knot value from
        # (c[j] + 4 c[j+1] + c[j+2])/6, while the interpolation relation is
        # data[j] = (c[j-1] + 4 c[j] + c[j+1])/6 — shift by one per axis.
        for axis in range(3):
            c = np.roll(c, 1, axis=axis)
        return cls(c, cell_inverse, dtype=dtype)

    @property
    def table_bytes(self) -> int:
        """Bytes of the (shared, read-only) coefficient table."""
        return self.coefs.nbytes

    # -- stencil helpers -----------------------------------------------------------
    @functools.cached_property
    def _grid(self):
        """(dims as float64, last knot index per dimension)."""
        return grid_of((self.nx, self.ny, self.nz))

    def _stencil(self, r: np.ndarray):
        """Cartesian r -> (knot i, weights w[axis, order, point])."""
        i, u = locate(r, self.cell_inverse, self._grid)
        return i, axis_weights(u)

    def _block(self, i: np.ndarray) -> np.ndarray:
        """The (64, norb) stencil block at knot i.  The contraction runs
        in accumulation precision even when the coefficient table is
        single precision (Sec. 7.2)."""
        block = self.coefs[i[0]:i[0] + 4, i[1]:i[1] + 4, i[2]:i[2] + 4]
        return block.astype(np.float64).reshape(64, self.norb)

    @functools.cached_property
    def _vgl_fold(self) -> np.ndarray:
        """This table's :func:`vgl_fold`."""
        return vgl_fold(self.cell_inverse, self._grid[0])

    def record_ops(self, kernel: str, n: int = 1) -> None:
        """Record the ops of ``n`` per-point ``multi_<kernel>`` calls
        (``kernel`` is ``"v"``, ``"vgh"`` or ``"vgl"``) on the open
        scope, so a W-point batched call counts what W per-point calls
        do.  The vgl fold adds the Laplacian's 3 flops per orbital."""
        m = self.norb
        rbytes = n * 64.0 * m * self.dtype.itemsize
        if kernel == "v":
            METRICS.record(flops=n * (2.0 * 64 * m + 200), rbytes=rbytes,
                           wbytes=n * 8.0 * m)
            return
        flops = n * (2.0 * 64 * m * 10 + 500)
        if kernel == "vgl":
            flops += n * 3.0 * m
        METRICS.record(flops=flops, rbytes=rbytes, wbytes=n * 8.0 * m * 13)

    # -- SoA (multi-orbital) evaluation -----------------------------------------------
    def multi_v(self, r: np.ndarray) -> np.ndarray:
        """Values of all orbitals at Cartesian point r — Bspline-v kernel:
        one (64,) @ (64, norb) product."""
        i, w = self._stencil(r)
        v = stencil_rows(w, V_ROWS)[0] @ self._block(i)
        self.record_ops("v")
        return v

    def multi_vgh(self, r: np.ndarray):
        """Values, Cartesian gradients and Hessians of all orbitals at r —
        the Bspline-vgh kernel: one (10, 64) @ (64, norb) product.
        Returns (v[m], g[m,3], h[m,3,3])."""
        i, w = self._stencil(r)
        v, g, h = vgh_chain_rule(stencil_rows(w, VGH_ROWS) @ self._block(i),
                                 self.cell_inverse, self._grid[0])
        self.record_ops("vgh")
        return v, g, h

    def multi_vgl(self, r: np.ndarray):
        """Values, gradients and Laplacians of all orbitals at r — SPO-vgl:
        the Laplacian folded into the stencil weights, one (5, 64) @
        (64, norb) product.  Returns (v[m], g[m,3], lap[m])."""
        i, w = self._stencil(r)
        out = (self._vgl_fold @ stencil_rows(w, VGH_ROWS)) @ self._block(i)
        self.record_ops("vgl")
        return out[0], out[1:4].T, out[4]

    # -- reference (per-orbital) evaluation ----------------------------------------------
    def single_v(self, r: np.ndarray, m: int) -> float:
        """Value of orbital m only — the per-orbital reference kernel."""
        i, w = self._stencil(r)
        ax, by, cz = w[:, 0]
        block = self.coefs[i[0]:i[0] + 4, i[1]:i[1] + 4, i[2]:i[2] + 4, m]
        v = float(np.einsum("i,j,k,ijk->", ax, by, cz,
                            block.astype(np.float64, copy=False)))
        # Per-orbital call: the stencil-weight setup (~200 flops) is shared
        # across orbitals and must not be charged once per orbital.
        METRICS.record(flops=2.0 * 64 + 3, rbytes=64.0 * self.dtype.itemsize,
                       wbytes=8.0)
        return v

    def ref_v(self, r: np.ndarray) -> np.ndarray:
        """All orbital values via the per-orbital loop (Ref path)."""
        return np.array([self.single_v(r, m) for m in range(self.norb)])

    def ref_vgh(self, r: np.ndarray):
        """Per-orbital vgh loop (Ref path). Same results as multi_vgh."""
        vs = np.empty(self.norb)
        gs = np.empty((self.norb, 3))
        hs = np.empty((self.norb, 3, 3))
        i, (wx, wy, wz) = self._stencil(r)
        nx, ny, nz = self.nx, self.ny, self.nz
        inv = self.cell_inverse
        for m in range(self.norb):
            block = self.coefs[i[0]:i[0] + 4, i[1]:i[1] + 4,
                               i[2]:i[2] + 4, m].astype(np.float64, copy=False)

            def contract(wa, wb, wc):
                return float(np.einsum("i,j,k,ijk->", wa, wb, wc, block))

            a, da, d2a = wx
            b, db, d2b = wy
            c, dc, d2c = wz
            vs[m] = contract(a, b, c)
            gu = np.array([contract(da, b, c) * nx,
                           contract(a, db, c) * ny,
                           contract(a, b, dc) * nz])
            hu = np.empty((3, 3))
            hu[0, 0] = contract(d2a, b, c) * nx * nx
            hu[1, 1] = contract(a, d2b, c) * ny * ny
            hu[2, 2] = contract(a, b, d2c) * nz * nz
            hu[0, 1] = hu[1, 0] = contract(da, db, c) * nx * ny
            hu[0, 2] = hu[2, 0] = contract(da, b, dc) * nx * nz
            hu[1, 2] = hu[2, 1] = contract(a, db, dc) * ny * nz
            gs[m] = inv @ gu
            hs[m] = inv @ hu @ inv.T
            METRICS.record(flops=2.0 * 64 * 10 + 50,
                           rbytes=64.0 * self.dtype.itemsize, wbytes=8.0 * 13)
        return vs, gs, hs
