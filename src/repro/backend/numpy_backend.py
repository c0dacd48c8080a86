"""The kernel class: the hot array math behind one seam.

Every method named in :data:`repro.backend.base.KERNEL_NAMES` is a pure
function of plain array (plus a read-only ``CrystalLattice``) arguments,
returning fresh arrays, with zero driver or walker state threaded
through.  Two contracts the class — and any proxy substituted for it
through ``repro.backend.use_backend`` — must honor:

* **Purity** — kernels never mutate their inputs and never touch global
  state; all bookkeeping (METRICS records, padded-storage writes,
  precision-policy downcasts) stays at the call site.  Sole sanctioned
  exception: the ``sweep_run`` *pipeline kernel*, which takes a
  host-side :class:`repro.batched.sweep.SweepPlan` and commits accepted
  moves into its batch/tables — see its docstring.
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
rounding of the scalar Ref, not bitwise.  So are the three
``spline3d_*`` kernels: each is the per-walker ``BSpline3D.multi_*``
GEMM with a walker axis, equal to it point by point bit for bit.

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
    V_ROWS, VGH_ROWS, axis_weights, grid_of, locate, stencil_rows, vgl_fold,
    vgh_chain_rule)


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
    # Each is the per-walker ``BSpline3D.multi_*`` GEMM with a walker
    # axis: the same locate/weights/fold/chain-rule helpers
    # (repro.splines.bspline3d), and one (W, k, 64) @ (W, 64, m) matmul
    # over the gathered stencil blocks — per walker the per-point
    # (k, 64) @ (64, m) product, so every row equals the one-point call
    # bit for bit, whatever the batch width.
    def _stencil3(self, coefs, cell_inverse, dims, r, channels):
        """Locate the W points and gather their stencil blocks: returns
        the :func:`grid_of` pair, the (W, k, 64) stencil rows of
        ``channels`` and the (W, 64, m) blocks, in accumulation
        precision (Sec. 7.2: contraction is double even for fp32
        tables)."""
        grid = grid_of(dims)
        i, u = locate(r, cell_inverse, grid)
        o = np.arange(4)
        blocks = coefs[
            i[:, 0, None, None, None] + o[:, None, None],
            i[:, 1, None, None, None] + o[None, :, None],
            i[:, 2, None, None, None] + o[None, None, :],
        ].astype(np.float64, copy=False).reshape(r.shape[0], 64, -1)
        # Rows after the gather: built before it, their temporaries
        # raised the NiO-32 x0.25 run's peak RSS by ~1.8 MiB.
        rows = stencil_rows(axis_weights(u), channels)
        return grid, rows, blocks

    def spline3d_v(self, coefs, cell_inverse, dims, r):
        """All-orbital values at W points: ``coefs`` is the padded
        (nx+3, ny+3, nz+3, m) table, ``dims`` = (nx, ny, nz), ``r``
        (W, 3) Cartesian; returns (W, m) in accumulation precision."""
        _, rows, blocks = self._stencil3(coefs, cell_inverse, dims, r,
                                         V_ROWS)
        return np.matmul(rows, blocks)[:, 0]

    def spline3d_vgl(self, coefs, cell_inverse, dims, r):
        """(v (W, m), g (W, m, 3), lap (W, m)) at W Cartesian points:
        the Laplacian folded into the five stencil rows (SPO-vgl)."""
        grid, rows, blocks = self._stencil3(coefs, cell_inverse, dims, r,
                                            VGH_ROWS)
        out = np.matmul(vgl_fold(cell_inverse, grid[0]) @ rows, blocks)
        return out[:, 0], np.swapaxes(out[:, 1:4], 1, 2), out[:, 4]

    def spline3d_vgh(self, coefs, cell_inverse, dims, r):
        """(v (W, m), g (W, m, 3), h (W, m, 3, 3)) at W Cartesian
        points: the ten grid-frame channels, then the chain rule."""
        grid, rows, blocks = self._stencil3(coefs, cell_inverse, dims, r,
                                            VGH_ROWS)
        return vgh_chain_rule(np.matmul(rows, blocks), cell_inverse, grid[0])

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

        ``A = min(1, rho^2 * exp(log_t))``, accepted where
        ``uniforms < A`` and ``rho != 0``; returns the (W,) boolean mask.
        """
        A = np.minimum(1.0, rho * rho * self.exp_rows(log_t))
        return (uniforms < A) & (rho != 0.0)

    # -- fused sweep pipeline --------------------------------------------------------
    # ``sweep_run`` is a *pipeline kernel* — the one sanctioned
    # exception to the purity contract above.  It takes a host-side
    # :class:`repro.batched.sweep.SweepPlan` instead of plain arrays and
    # COMMITS accepted moves into its batch and tables; that mutation is
    # the pipeline's entire point (one seam crossing per sweep replaces
    # the ~14 per-electron kernel dispatches the driver used to issue).
    # Everything else still holds: no global state, all randoms are
    # drawn host-side into the plan's workspace before the call, and the
    # accept/reject sequence is bitwise the reference loop's
    # (``repro.batched.reference.loop_sweep``).  The implementation lives
    # in repro.batched.sweep (the op-for-op extraction of the pre-fusion
    # loop body); the import is deferred because that is driver-layer
    # code this module must not pull in at import time.

    def sweep_run(self, plan):
        """One whole particle-by-particle sweep (all ``plan.n``
        electrons) looping over ``repro.batched.sweep.fused_sweep_step``,
        one whole Metropolis move of an electron across the crowd
        (propose -> table move -> ratio_grad product -> drift limit
        -> log T -> accept_mask -> commit).  Returns
        ``(accepts_per_walker, accepted_total)`` — a fresh (W,) int64
        array and a Python int.
        """
        from repro.batched.sweep import fused_sweep_run
        return fused_sweep_run(self, plan)
