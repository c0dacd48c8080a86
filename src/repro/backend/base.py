"""The kernel seam's name table (see docs/backends.md).

QMCkl's central argument (arXiv:2512.16677) is that the hot kernels of a
QMC code — distance tables, Jastrow functors, B-spline evaluation,
Sherman-Morrison determinant ratios — should live behind a stable,
array-in/array-out API, so the driver layer never cares *how* a kernel
is executed.  :data:`KERNEL_NAMES` is that API's surface;
:class:`repro.backend.numpy_backend.NumpyBackend` documents and
implements each name.
"""

from __future__ import annotations


#: The complete hot-kernel surface: every name is a method of the kernel
#: class and of any proxy substituted through ``use_backend``.
#: tests/backend/test_properties.py iterates this tuple and fails if a
#: kernel is added here without a matching input factory, so the list
#: cannot silently drift from the test coverage.
KERNEL_NAMES = (
    # DistTable AA/AB forward-update rows, OTF row recompute, and
    # from-scratch evaluation
    "aa_row",
    "ab_row",
    "aa_pairs",
    "ab_pairs",
    # J1/J2 cutoff B-spline functors (per-interval monomial table, zero
    # tail); ``_vg`` is ``_vgl`` without the Laplacian (sweep callers)
    "functor_v",
    "functor_vg",
    "functor_vgl",
    # raw 1D cubic B-spline value / value-grad-lap (the same body, uncut)
    "bspline1d_v",
    "bspline1d_vgl",
    # batched 3D B-spline SPO value / value-grad-lap / value-grad-hessian
    # (the per-walker stencil GEMM with a walker axis)
    "spline3d_v",
    "spline3d_vgl",
    "spline3d_vgh",
    # DiracDeterminant ratio-only Sherman-Morrison row kernels
    "det_ratio",
    "det_ratios_vp",
    # fused Metropolis accept/reject step of BatchedCrowdDriver
    "exp_rows",
    "accept_mask",
    # fused whole-sweep pipeline kernel (the one sanctioned departure
    # from the pure array-in/array-out contract; see its NumpyBackend
    # docstring)
    "sweep_run",
)
