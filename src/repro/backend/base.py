"""Kernel-backend interface: the hot array math behind one swappable seam.

QMCkl's central argument (arXiv:2512.16677) is that the hot kernels of a
QMC code — distance tables, Jastrow functors, B-spline evaluation,
Sherman-Morrison determinant ratios — should live in a standalone kernel
library behind a stable, array-in/array-out API, so the driver layer
never cares *how* a kernel is executed.  :class:`KernelBackend` is that
seam for this repo: every registered kernel is a pure function of plain
array (plus a read-only ``CrystalLattice``) arguments, returning fresh
arrays, with zero driver or walker state threaded through.

Two contracts every backend implementation must honor:

* **Purity** — kernels never mutate their inputs and never touch global
  state; all bookkeeping (OPS/METRICS records, padded-storage writes,
  precision-policy downcasts) stays at the call site.  Sole sanctioned
  exception: the ``sweep_step``/``sweep_run`` *pipeline kernels*, which
  take a host-side :class:`repro.batched.sweep.SweepPlan` and commit
  accepted moves into its batch/tables — see their docstrings.
* **Boundary types** — call sites coerce results with ``np.asarray`` /
  ``float``, so a backend may return its own array type (e.g. a JAX
  ``DeviceArray``); inputs arrive as NumPy arrays.

A backend additionally declares ``exact_match``: ``True`` means its
kernels are bitwise-identical to the reference NumPy extraction (the
differential suites may gate it with exact accept/reject-sequence and
trace equality); ``False`` means it is gated by the tolerance-bounded
suites plus the per-kernel gates in ``tests/backend/`` (see
docs/backends.md for the parity-gating policy).
"""

from __future__ import annotations


class BackendUnavailableError(ImportError):
    """A requested kernel backend cannot be constructed on this host.

    Raised with an actionable message (what to install, or which names
    are available) so ``REPRO_BACKEND=jax`` on a jax-less host fails
    loudly instead of silently falling back.
    """


#: Registered kernel names — the complete hot-kernel surface a backend
#: must implement.  tests/backend/test_properties.py iterates this tuple
#: and fails if a kernel is added here without a matching input factory,
#: so the list cannot silently drift from the test coverage.
KERNEL_NAMES = (
    # DistTable AA/AB forward-update rows, OTF row recompute, and
    # from-scratch evaluation
    "aa_row",
    "ab_row",
    "aa_pairs",
    "ab_pairs",
    # J1/J2 cutoff B-spline functor evaluation (elementwise Horner)
    "functor_v",
    "functor_vgl",
    # raw 1D cubic B-spline value / value-grad-lap (elementwise Horner)
    "bspline1d_v",
    "bspline1d_vgl",
    # batched 3D B-spline SPO value / value-grad-lap (stencil contraction)
    "spline3d_v",
    "spline3d_vgl",
    # tile-blocked batched value-grad-hessian (one neighborhood walk for
    # all ten derivative channels, orbital axis processed in tiles)
    "spline3d_vgh_tiled",
    # DiracDeterminant ratio-only Sherman-Morrison row kernels
    "det_ratio",
    "det_ratios_vp",
    # fused Metropolis accept/reject step of BatchedCrowdDriver
    "exp_rows",
    "accept_mask",
    # fused whole-move / whole-sweep pipeline kernels (the one sanctioned
    # departure from the pure array-in/array-out contract; see the
    # KernelBackend docstrings)
    "sweep_step",
    "sweep_run",
)


class KernelBackend:
    """Abstract kernel backend; subclasses implement every name in
    :data:`KERNEL_NAMES` as a pure array-in/array-out method.

    Shapes below use W = walkers, n = particles of the table, ns = fixed
    sources (ions), m = orbitals, Nvp = virtual-particle slab length.
    """

    #: registry name ("numpy", "jax", ...)
    name = "abstract"
    #: bitwise-identical to the reference NumPy kernels?
    exact_match = False

    # -- activation ----------------------------------------------------------------
    def scope(self):
        """Context manager making this backend the thread-local active
        backend for the duration (the per-driver override mechanism)."""
        from repro.backend.registry import _backend_scope
        return _backend_scope(self)

    # -- distance kernels ----------------------------------------------------------
    def aa_row(self, soa, rk, lattice, self_index=-1):
        """Distances/displacements from each walker's center ``rk[w]``
        to that walker's own particles.

        ``soa`` is (W, 3, n), ``rk`` (W, 3); returns ``(r, dr)`` of
        shapes (W, n) and (W, 3, n) in accumulation precision, with row
        ``self_index`` masked to (BIG_DISTANCE, 0) when >= 0.
        """
        raise NotImplementedError

    def ab_row(self, src_soa, rk, lattice):
        """Distances/displacements from each walker's center ``rk[w]``
        to the shared fixed sources ``src_soa`` (3, ns); returns
        ``(r, dr)`` of shapes (W, ns) and (W, 3, ns)."""
        raise NotImplementedError

    def aa_pairs(self, R, lattice):
        """All-pairs AA table from canonical positions ``R`` (W, n, 3);
        returns ``(dist, disp)`` of shapes (W, n, n) and (W, n, 3, n)
        with the self diagonal masked to (BIG_DISTANCE, 0)."""
        raise NotImplementedError

    def ab_pairs(self, src_R, R, lattice):
        """All-pairs AB table: sources ``src_R`` (ns, 3) vs ``R``
        (W, nt, 3); returns ``(dist, disp)`` of shapes (W, nt, ns) and
        (W, nt, 3, ns)."""
        raise NotImplementedError

    # -- Jastrow functor kernels -----------------------------------------------------
    def functor_v(self, coefs, x0, h, nintervals, rcut, r):
        """Cutoff 1D B-spline functor value u(r): zero at/beyond
        ``rcut``, elementwise Horner inside.  ``r`` is any shape; the
        result matches it."""
        raise NotImplementedError

    def functor_vgl(self, coefs, x0, h, nintervals, rcut, r):
        """(u, du/dr, d2u/dr2) of the cutoff functor, each zero at or
        beyond ``rcut``."""
        raise NotImplementedError

    # -- raw 1D spline kernels -------------------------------------------------------
    def bspline1d_v(self, coefs, x0, h, nintervals, r):
        """Uncut 1D cubic B-spline values at ``r`` (1-D array)."""
        raise NotImplementedError

    def bspline1d_vgl(self, coefs, x0, h, nintervals, r):
        """(value, d/dr, d2/dr2) of the uncut 1D spline at ``r``."""
        raise NotImplementedError

    # -- 3D B-spline SPO kernels -----------------------------------------------------
    def spline3d_v(self, coefs, cell_inverse, dims, r):
        """All-orbital values at W points: ``coefs`` is the padded
        (nx+3, ny+3, nz+3, m) table, ``dims`` = (nx, ny, nz), ``r``
        (W, 3) Cartesian; returns (W, m) in accumulation precision."""
        raise NotImplementedError

    def spline3d_vgl(self, coefs, cell_inverse, dims, r):
        """(v (W, m), g (W, m, 3), lap (W, m)) at W Cartesian points."""
        raise NotImplementedError

    def spline3d_vgh_tiled(self, coefs, cell_inverse, dims, r, tile):
        """Tile-blocked value-grad-Hessian: (v (W, m), g (W, m, 3),
        h (W, m, 3, 3)) at W Cartesian points.

        The ten stencil contractions (value, three gradient channels,
        six Hessian channels) walk each walker's 4x4x4 neighborhood
        *once* per tile of ``tile`` orbitals instead of once per
        channel.  Exact backends must keep the result bitwise equal to
        the flat per-channel path
        (:func:`repro.backend.numpy_backend.flat_spline3d_vgh`) for
        every tile size, including ``tile >= m``.
        """
        raise NotImplementedError

    # -- determinant ratio kernels ---------------------------------------------------
    def det_ratio(self, phi, ainv_col):
        """Sherman-Morrison row ratio phi . A^-1[:, i] — a scalar."""
        raise NotImplementedError

    def det_ratios_vp(self, phi, ainv_cols):
        """Slab of row ratios: ``phi`` (Nvp, nel) against the gathered
        columns ``ainv_cols`` (nel, Nvp); returns (Nvp,)."""
        raise NotImplementedError

    # -- fused accept/reject ---------------------------------------------------------
    def exp_rows(self, x):
        """Per-walker exp of a (W,) vector.  Exact backends must match
        the scalar path's libm ``math.exp`` bitwise (np.exp's SIMD path
        strays by 1 ulp — enough to flip a Metropolis comparison)."""
        raise NotImplementedError

    def accept_mask(self, rho, log_t, uniforms):
        """Fused Metropolis decision for the whole crowd.

        ``A = min(1, rho^2 * exp(log_t))`` (``log_t is None`` for the
        no-drift walk), accepted where ``uniforms < A`` and ``rho != 0``;
        returns the (W,) boolean mask.
        """
        raise NotImplementedError

    # -- fused sweep pipeline --------------------------------------------------------
    # ``sweep_step``/``sweep_run`` are *pipeline kernels* — the one
    # sanctioned exception to the purity contract above.  They take a
    # host-side :class:`repro.batched.sweep.SweepPlan` instead of plain
    # arrays and COMMIT accepted moves into its batch and tables; that
    # mutation is the pipeline's entire point (one backend call replaces
    # the ~14 per-electron kernel dispatches the driver used to issue).
    # Everything else still holds: no global state, all randoms are
    # drawn host-side into the plan's workspace before the call, and
    # exact backends must keep the accept/reject sequence bitwise equal
    # to the reference loop (``repro.batched.reference.loop_sweep``).

    def sweep_step(self, plan, k):
        """One whole Metropolis move of electron ``k`` across the crowd:
        propose -> table move -> ratio/ratio_grad product -> drift limit
        -> log T -> accept_mask -> commit.  Consumes ``plan.workspace``'s
        pre-drawn ``chi_all[:, k]`` / ``uniforms[:, k]``, mutates the
        plan's batch/tables, and returns the (W,) boolean accept mask.
        """
        raise NotImplementedError

    def sweep_run(self, plan):
        """One whole particle-by-particle sweep (all ``plan.n``
        electrons).  Backends that can fuse the electron loop itself
        (e.g. a jitted ``lax.fori_loop``) pay dispatch once per sweep
        here; others loop over :meth:`sweep_step`.  Returns
        ``(accepts_per_walker, accepted_total)`` — a fresh (W,) int64
        array and a Python int.
        """
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} " \
               f"exact_match={self.exact_match}>"
