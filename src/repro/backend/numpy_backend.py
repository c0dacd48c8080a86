"""The kernel class: the hot array math behind one seam.

Every method named in :data:`repro.backend.base.KERNEL_NAMES` is a pure
function of plain array (plus a read-only ``CrystalLattice``) arguments,
returning fresh arrays, with zero driver or walker state threaded
through.  Two contracts the class — and any proxy substituted for it
through ``repro.backend.use_backend`` — must honor:

* **Purity** — kernels never mutate their inputs and never touch global
  state; all bookkeeping (OPS/METRICS records, padded-storage writes,
  precision-policy downcasts) stays at the call site.  Sole sanctioned
  exception: the ``sweep_step``/``sweep_run`` *pipeline kernels*, which
  take a host-side :class:`repro.batched.sweep.SweepPlan` and commit
  accepted moves into its batch/tables — see their docstrings.
* **Boundary types** — inputs arrive as NumPy arrays; call sites coerce
  results with ``np.asarray`` / ``float``.

Every method is the pre-seam implementation of its kernel, moved
verbatim (op for op, in the same order) out of
``repro.batched.distances`` / ``repro.batched.spo`` /
``repro.jastrow.functor`` / ``repro.splines.cubic1d`` /
``repro.determinant.dirac`` / ``repro.batched.driver``, so traces are
reproduced bit for bit and the restart/differential suites gate exactly
that.  The rebuilt four: ``aa_row``/``ab_row``/``aa_pairs``/``ab_pairs``
are thin entries over one SoA body (:meth:`NumpyBackend._min_image`) —
the pre-seam bits on exactly diagonal cells (every benchmark cell), and
pair rows equal to the row kernels' rows bitwise on every cell.  The
five 1D kernels (:meth:`NumpyBackend._poly1d`) are rebuilt too: within
rounding of the scalar Ref, not bitwise.  So is ``spline3d_v``: one
batched matmul over the per-walker kernel's stencil rows
(``repro.splines.bspline3d.stencil_rows``), equal to
``BSpline3D.multi_v`` point by point to rounding.

Keep it boring.  Any "improvement" to an expression here that changes
its floating-point op sequence is a determinism regression, not a
cleanup (see the bitwise contracts in docs/batched_walkers.md and
docs/parallel_crowds.md).
"""

from __future__ import annotations

import math

import numpy as np

from repro.distances.base import BIG_DISTANCE

# The 3D stencil basis and stencil-row helpers, imported from their
# canonical home so the numerical constants cannot drift.
from repro.splines.bspline3d import (
    V_ROWS, _A as _A3, _dA as _dA3, _d2A as _d2A3, axis_weights,
    stencil_rows)


def _weight_rows3(u: np.ndarray):
    """Batched 3D segment weights: (W,) offsets -> three (W, 4) sets."""
    pu = np.stack([np.ones_like(u), u, u * u, u * u * u], axis=-1)
    return (np.matmul(_A3, pu[:, :, None])[:, :, 0],
            np.matmul(_dA3, pu[:, :, None])[:, :, 0],
            np.matmul(_d2A3, pu[:, :, None])[:, :, 0])


class NumpyBackend:
    """NumPy implementation of every name in ``KERNEL_NAMES``.

    Shapes below use W = walkers, n = particles of the table, ns = fixed
    sources (ions), m = orbitals, Nvp = virtual-particle slab length.
    Every kernel computes in float64 whatever the storage dtype of its
    inputs (Sec. 7.2: accumulation precision is fixed at the kernel
    boundary) — hence the literal ``float64`` promotions below.
    """

    # -- distance kernels ----------------------------------------------------------
    def _min_image(self, a, b, lattice):
        """The one body of all four distance kernels: ``a - b`` on
        broadcastable component-major ``(3, ...)`` views -> in-place SoA
        minimum image (:meth:`CrystalLattice.min_image_soa`) ->
        ``sqrt(dx*dx + dy*dy + dz*dz)``.  Returns ``(dist, comps)`` of
        shapes ``(...)`` and ``(3, ...)`` in accumulation precision; no
        ``(..., 3)`` or ``(..., 27, 3)`` array is materialised."""
        comps = np.empty(np.broadcast(a, b).shape,
                         dtype=np.float64)
        np.subtract(a, b, out=comps)
        dx, dy, dz = comps
        lattice.min_image_soa(dx, dy, dz)
        dist = dx * dx + dy * dy + dz * dz
        np.sqrt(dist, out=dist)
        return dist, comps

    def _rows(self, src, rk, lattice):
        """Row kernels' shared entry: component-major sources ``src``
        (3, W or 1, n) minus the (W, 3) centers ``rk``; the displacement
        comes back as a (W, 3, n) view of the component-major block."""
        r, comps = self._min_image(src, rk.T[:, :, None], lattice)
        return r, comps.transpose(1, 0, 2)

    def aa_row(self, soa, rk, lattice, self_index=-1):
        """Distances/displacements from each walker's center ``rk[w]``
        to that walker's own particles.

        ``soa`` is (W, 3, n), ``rk`` (W, 3); returns ``(r, dr)`` of
        shapes (W, n) and (W, 3, n) in accumulation precision, with row
        ``self_index`` masked to (BIG_DISTANCE, 0) when >= 0.
        """
        r, dr = self._rows(soa.transpose(1, 0, 2), rk, lattice)
        if self_index >= 0:
            r[:, self_index] = BIG_DISTANCE
            dr[:, :, self_index] = 0
        return r, dr

    def ab_row(self, src_soa, rk, lattice):
        """Distances/displacements from each walker's center ``rk[w]``
        to the shared fixed sources ``src_soa`` (3, ns); returns
        ``(r, dr)`` of shapes (W, ns) and (W, 3, ns)."""
        return self._rows(src_soa[:, None, :], rk, lattice)

    def _pairs(self, a, b, lattice):
        """All-pairs kernels' shared entry: ``a - b`` on broadcastable
        (..., 3) position views; the displacement comes back as a
        (W, nt, 3, ns) view.  Row ``k`` is the row kernels' row for
        center ``R[:, k]``, bit for bit on every cell (same body)."""
        dist, comps = self._min_image(np.moveaxis(a, -1, 0),
                                      np.moveaxis(b, -1, 0), lattice)
        return dist, comps.transpose(1, 2, 0, 3)

    def aa_pairs(self, R, lattice):
        """All-pairs AA table from canonical positions ``R`` (W, n, 3);
        returns ``(dist, disp)`` of shapes (W, n, n) and (W, n, 3, n)
        with the self diagonal masked to (BIG_DISTANCE, 0)."""
        # disp[w, k, :, i] = r_i - r_k
        dist, disp = self._pairs(R[:, None, :, :], R[:, :, None, :], lattice)
        idx = np.arange(R.shape[1])
        dist[:, idx, idx] = BIG_DISTANCE
        disp[:, idx, :, idx] = 0
        return dist, disp

    def ab_pairs(self, src_R, R, lattice):
        """All-pairs AB table: sources ``src_R`` (ns, 3) vs ``R``
        (W, nt, 3); returns ``(dist, disp)`` of shapes (W, nt, ns) and
        (W, nt, 3, ns)."""
        # disp[w, k, :, I] = R_I - r_k, matching the per-walker AB convention.
        return self._pairs(src_R[None, None, :, :], R[:, :, None, :], lattice)

    # -- 1D spline and Jastrow functor kernels ----------------------------------------
    def _poly1d(self, poly, x0, h, r, nch, rcut=None):
        """The one body of the five 1D kernels: the first ``nch`` of
        (value, d/dr, d2/dr2) at ``r`` (any shape) from the (4, n + 1)
        monomial table ``poly`` of ``CubicBSpline1D``.  Interval
        ``i = floor(t)``, ``t = (r - x0) / h``, is clamped to [0, n - 1]
        uncut; cut, ``t`` is clamped to [0, n] and forced to n where
        ``r >= rcut`` — column n is zero, so every channel is exactly 0
        there, with no boolean gather or scatter.  One gather of column
        ``i``, then per channel one Horner in ``u = t - i``:
        ``a0 + u(a1 + u(a2 + u a3))``, ``(a1 + u(2 a2 + 3 a3 u)) / h``,
        ``(2 a2 + 6 a3 u) / h**2``; channels never read each other."""
        r = np.asarray(r, dtype=np.float64)
        u = (r - x0) / h
        n = poly.shape[1] - 1
        if rcut is None:
            lo = np.floor(np.clip(u, 0, n - 1))
        else:
            u = np.where(r < rcut, u, n)
            np.clip(u, 0, n, out=u)
            lo = np.floor(u)
        i = lo.astype(np.int64)
        u -= lo
        a0, a1, a2, a3 = poly.take(i, axis=1)
        v = a3 * u
        v += a2
        v *= u
        v += a1
        v *= u
        v += a0
        out = [v]
        if nch > 1:
            a2 *= 2.0
            dv = a3 * 3.0
            dv *= u
            dv += a2
            dv *= u
            dv += a1
            dv /= h
            out.append(dv)
        if nch > 2:
            d2v = a3 * 6.0
            d2v *= u
            d2v += a2
            d2v /= h * h
            out.append(d2v)
        return out

    def functor_v(self, poly, x0, h, rcut, r):
        """Cutoff 1D B-spline functor value u(r): zero at/beyond
        ``rcut``, one gather and one Horner inside."""
        return self._poly1d(poly, x0, h, r, 1, rcut)[0]

    def functor_vg(self, poly, x0, h, rcut, r):
        """(u, du/dr) of the cutoff functor: channels 0 and 1 of
        :meth:`functor_vgl`, op for op, for the sweep's drift and ratio
        callers, which never read the Laplacian channel."""
        return tuple(self._poly1d(poly, x0, h, r, 2, rcut))

    def functor_vgl(self, poly, x0, h, rcut, r):
        """(u, du/dr, d2u/dr2) of the cutoff functor, each zero at or
        beyond ``rcut``."""
        return tuple(self._poly1d(poly, x0, h, r, 3, rcut))

    def bspline1d_v(self, poly, x0, h, r):
        """Uncut 1D cubic B-spline values at ``r`` (1-D array)."""
        return self._poly1d(poly, x0, h, r, 1)[0]

    def bspline1d_vgl(self, poly, x0, h, r):
        """(value, d/dr, d2/dr2) of the uncut 1D spline at ``r``."""
        return tuple(self._poly1d(poly, x0, h, r, 3))

    # -- 3D B-spline SPO kernels -----------------------------------------------------
    def _locate3(self, cell_inverse, dims, r):
        frac = np.asarray(r, dtype=np.float64) @ cell_inverse
        frac = frac - np.floor(frac)
        dimsf = np.array(dims, dtype=np.float64)
        t = frac * dimsf
        i = np.minimum(t.astype(np.int64), (dimsf - 1).astype(np.int64))
        u = t - i
        return i, u

    def _gather3(self, coefs, i):
        """Gather the W stencil blocks: (W, 4, 4, 4, norb), accumulation
        precision (Sec. 7.2: contraction is double even for fp32
        tables)."""
        o = np.arange(4)
        blocks = coefs[
            i[:, 0, None, None, None] + o[:, None, None],
            i[:, 1, None, None, None] + o[None, :, None],
            i[:, 2, None, None, None] + o[None, None, :],
        ]
        return blocks.astype(np.float64, copy=False)

    def spline3d_v(self, coefs, cell_inverse, dims, r):
        """All-orbital values at W points: ``coefs`` is the padded
        (nx+3, ny+3, nz+3, m) table, ``dims`` = (nx, ny, nz), ``r``
        (W, 3) Cartesian; returns (W, m) in accumulation precision.
        One batched GEMM: each walker's (1, 64) stencil row against its
        (64, m) block."""
        nw = r.shape[0]
        i, u = self._locate3(cell_inverse, dims, r)
        blocks = self._gather3(coefs, i).reshape(nw, 64, -1)
        # Rows after the gather: built before it, their temporaries
        # raised the NiO-32 x0.25 run's peak RSS by ~1.8 MiB.
        rows = stencil_rows(axis_weights(u), V_ROWS)  # (W, 1, 64)
        return np.matmul(rows, blocks)[:, 0]

    def spline3d_vgl(self, coefs, cell_inverse, dims, r):
        """(v (W, m), g (W, m, 3), lap (W, m)) at W Cartesian points."""
        nw = r.shape[0]
        norb = coefs.shape[-1]
        nx, ny, nz = dims
        i, u = self._locate3(cell_inverse, dims, r)
        wx = _weight_rows3(u[:, 0])
        wy = _weight_rows3(u[:, 1])
        wz = _weight_rows3(u[:, 2])
        blocks = self._gather3(coefs, i)

        def contract(wa, wb, wc):
            return np.einsum("wi,wj,wk,wijkm->wm", wa, wb, wc, blocks)

        a, da, d2a = wx
        b, db, d2b = wy
        c, dc, d2c = wz
        v = contract(a, b, c)
        # Gradient and Hessian in fractional units, then the chain rule.
        gu = np.stack([
            contract(da, b, c) * nx,
            contract(a, db, c) * ny,
            contract(a, b, dc) * nz,
        ], axis=1)  # (W, 3, m)
        hu = np.empty((nw, 3, 3, norb))
        hu[:, 0, 0] = contract(d2a, b, c) * nx * nx
        hu[:, 1, 1] = contract(a, d2b, c) * ny * ny
        hu[:, 2, 2] = contract(a, b, d2c) * nz * nz
        hu[:, 0, 1] = hu[:, 1, 0] = contract(da, db, c) * nx * ny
        hu[:, 0, 2] = hu[:, 2, 0] = contract(da, b, dc) * nx * nz
        hu[:, 1, 2] = hu[:, 2, 1] = contract(a, db, dc) * ny * nz
        g = np.einsum("ab,wbm->wma", cell_inverse, gu)
        lap = np.einsum("ia,wabm,ib->wm", cell_inverse, hu, cell_inverse)
        return v, g, lap

    def spline3d_vgh_tiled(self, coefs, cell_inverse, dims, r, tile):
        """Tile-blocked value-grad-Hessian: (v (W, m), g (W, m, 3),
        h (W, m, 3, 3)) at W Cartesian points, one neighborhood walk
        per tile of ``tile`` orbitals.

        The ten per-channel contractions of the flat path each stream
        the gathered (W, 4, 4, 4, m) blocks once; here the ten channel
        weight tensors are stacked into one (W, 10, 4, 4, 4) operand and
        a single einsum per tile streams each orbital block exactly
        once.  Per output element the i, j, k summation order and the
        (a*b)*c weight products are identical to the flat path's, so the
        result is bitwise equal to :func:`flat_spline3d_vgh` for every
        tile size (tests/batched/test_tiled_vgh.py pins this).

        The cheap 3x3 frame rotations run once over the full orbital
        axis, not per tile: einsum's inner SIMD grouping depends on the
        width of the last axis, so per-tile rotation would stray by an
        ulp for odd tile widths.  Accumulating the grid-frame gu/hu at
        full width hands the chain-rule einsums byte-identical operands
        to the flat path's.
        """
        nw = r.shape[0]
        norb = coefs.shape[-1]
        nx, ny, nz = dims
        tile = norb if tile is None or int(tile) <= 0 \
            else min(int(tile), norb)
        i, u = self._locate3(cell_inverse, dims, r)
        a, da, d2a = _weight_rows3(u[:, 0])
        b, db, d2b = _weight_rows3(u[:, 1])
        c, dc, d2c = _weight_rows3(u[:, 2])
        blocks = self._gather3(coefs, i)
        # Channel order: v, du_x, du_y, du_z, then the Hessian's upper
        # triangle xx, yy, zz, xy, xz, yz (fractional units; the grid
        # scalings land after the contraction, as in spline3d_vgl).
        wt = np.stack([
            np.einsum("wi,wj,wk->wijk", a, b, c),
            np.einsum("wi,wj,wk->wijk", da, b, c),
            np.einsum("wi,wj,wk->wijk", a, db, c),
            np.einsum("wi,wj,wk->wijk", a, b, dc),
            np.einsum("wi,wj,wk->wijk", d2a, b, c),
            np.einsum("wi,wj,wk->wijk", a, d2b, c),
            np.einsum("wi,wj,wk->wijk", a, b, d2c),
            np.einsum("wi,wj,wk->wijk", da, db, c),
            np.einsum("wi,wj,wk->wijk", da, b, dc),
            np.einsum("wi,wj,wk->wijk", a, db, dc),
        ], axis=1)
        v = np.empty((nw, norb))
        gu = np.empty((nw, 3, norb))
        hu = np.empty((nw, 3, 3, norb))
        for start in range(0, norb, tile):
            stop = min(start + tile, norb)
            out = np.einsum("wcijk,wijkm->wcm", wt, blocks[..., start:stop])
            v[:, start:stop] = out[:, 0]
            gu[:, 0, start:stop] = out[:, 1] * nx
            gu[:, 1, start:stop] = out[:, 2] * ny
            gu[:, 2, start:stop] = out[:, 3] * nz
            s = slice(start, stop)
            hu[:, 0, 0, s] = out[:, 4] * nx * nx
            hu[:, 1, 1, s] = out[:, 5] * ny * ny
            hu[:, 2, 2, s] = out[:, 6] * nz * nz
            hu[:, 0, 1, s] = hu[:, 1, 0, s] = out[:, 7] * nx * ny
            hu[:, 0, 2, s] = hu[:, 2, 0, s] = out[:, 8] * nx * nz
            hu[:, 1, 2, s] = hu[:, 2, 1, s] = out[:, 9] * ny * nz
        g = np.einsum("ab,wbm->wma", cell_inverse, gu)
        h = np.einsum("ia,wabm,jb->wmij", cell_inverse, hu, cell_inverse)
        return v, g, h

    # -- determinant ratio kernels ---------------------------------------------------
    def det_ratio(self, phi, ainv_col):
        """Sherman-Morrison row ratio phi . A^-1[:, i] — a scalar."""
        return float(phi @ ainv_col)

    def det_ratios_vp(self, phi, ainv_cols):
        """Slab of row ratios: ``phi`` (Nvp, nel) against the gathered
        columns ``ainv_cols`` (nel, Nvp); returns (Nvp,)."""
        return np.einsum("mj,jm->m", phi, ainv_cols)

    # -- fused accept/reject ---------------------------------------------------------
    def exp_rows(self, x):
        """Per-walker libm exp of a (W,) vector — bitwise-matches the
        scalar path's math.exp (np.exp's SIMD path strays by 1 ulp on a
        few percent of arguments, enough to flip a Metropolis
        comparison)."""
        out = np.empty_like(x)
        for w in range(x.shape[0]):
            out[w] = math.exp(x[w])
        return out

    def accept_mask(self, rho, log_t, uniforms):
        """Fused Metropolis decision for the whole crowd.

        ``A = min(1, rho^2 * exp(log_t))`` (``log_t is None`` for the
        no-drift walk), accepted where ``uniforms < A`` and ``rho != 0``;
        returns the (W,) boolean mask.
        """
        if log_t is None:
            A = np.minimum(1.0, rho * rho)
        else:
            A = np.minimum(1.0, rho * rho * self.exp_rows(log_t))
        return (uniforms < A) & (rho != 0.0)

    # -- fused sweep pipeline --------------------------------------------------------
    # ``sweep_step``/``sweep_run`` are *pipeline kernels* — the one
    # sanctioned exception to the purity contract above.  They take a
    # host-side :class:`repro.batched.sweep.SweepPlan` instead of plain
    # arrays and COMMIT accepted moves into its batch and tables; that
    # mutation is the pipeline's entire point (one seam crossing replaces
    # the ~14 per-electron kernel dispatches the driver used to issue).
    # Everything else still holds: no global state, all randoms are
    # drawn host-side into the plan's workspace before the call, and the
    # accept/reject sequence is bitwise the reference loop's
    # (``repro.batched.reference.loop_sweep``).  The implementation lives
    # in repro.batched.sweep (the op-for-op extraction of the pre-fusion
    # loop body); the import is deferred because that is driver-layer
    # code this module must not pull in at import time.

    def sweep_step(self, plan, k):
        """One whole Metropolis move of electron ``k`` across the crowd:
        propose -> table move -> ratio/ratio_grad product -> drift limit
        -> log T -> accept_mask -> commit.  Consumes ``plan.workspace``'s
        pre-drawn ``chi_all[:, k]`` / ``uniforms[:, k]``, mutates the
        plan's batch/tables, and returns the (W,) boolean accept mask.
        """
        from repro.batched.sweep import fused_sweep_step
        return fused_sweep_step(self, plan, k)

    def sweep_run(self, plan):
        """One whole particle-by-particle sweep (all ``plan.n``
        electrons) looping over the :meth:`sweep_step` body.  Returns
        ``(accepts_per_walker, accepted_total)`` — a fresh (W,) int64
        array and a Python int.
        """
        from repro.batched.sweep import fused_sweep_run
        return fused_sweep_run(self, plan)


def flat_spline3d_vgh(coefs, cell_inverse, dims, r):
    """Flat batched value-grad-Hessian: one einsum per derivative channel.

    The direct extension of :meth:`NumpyBackend.spline3d_vgl` to the full
    Hessian — each of the ten channels streams the gathered blocks once.
    This is the bitwise oracle the tiled kernel is pinned against and the
    ``flat`` leg of the ``tiled_over_flat`` ratio guard.
    """
    be = _REFERENCE
    nw = r.shape[0]
    norb = coefs.shape[-1]
    nx, ny, nz = dims
    i, u = be._locate3(cell_inverse, dims, r)
    a, da, d2a = _weight_rows3(u[:, 0])
    b, db, d2b = _weight_rows3(u[:, 1])
    c, dc, d2c = _weight_rows3(u[:, 2])
    blocks = be._gather3(coefs, i)

    def contract(wa, wb, wc):
        return np.einsum("wi,wj,wk,wijkm->wm", wa, wb, wc, blocks)

    v = contract(a, b, c)
    gu = np.stack([
        contract(da, b, c) * nx,
        contract(a, db, c) * ny,
        contract(a, b, dc) * nz,
    ], axis=1)
    hu = np.empty((nw, 3, 3, norb))
    hu[:, 0, 0] = contract(d2a, b, c) * nx * nx
    hu[:, 1, 1] = contract(a, d2b, c) * ny * ny
    hu[:, 2, 2] = contract(a, b, d2c) * nz * nz
    hu[:, 0, 1] = hu[:, 1, 0] = contract(da, db, c) * nx * ny
    hu[:, 0, 2] = hu[:, 2, 0] = contract(da, b, dc) * nx * nz
    hu[:, 1, 2] = hu[:, 2, 1] = contract(a, db, dc) * ny * nz
    g = np.einsum("ab,wbm->wma", cell_inverse, gu)
    h = np.einsum("ia,wabm,jb->wmij", cell_inverse, hu, cell_inverse)
    return v, g, h


#: stateless helper instance backing :func:`flat_spline3d_vgh`
_REFERENCE = NumpyBackend()
