"""Shared input factories for the backend kernel suites.

``build_case(name, ...)`` returns ``(args, expected)`` for every kernel
in :data:`repro.backend.base.KERNEL_NAMES`: the positional arguments to
call the backend method with, and the expected ``(shape, dtype)`` of
each output (None entries skip the dtype check, for Python-scalar
returns).  test_properties.py iterates KERNEL_NAMES against this table,
so adding a kernel to the registry without a case here fails loudly.
"""

import numpy as np

from repro.backend.base import KERNEL_NAMES
from repro.jastrow.functor import BsplineFunctor
from repro.lattice.cell import CrystalLattice
from repro.splines.bspline3d import BSpline3D

F64 = np.dtype(np.float64)
BOOL = np.dtype(bool)

LATTICES = {
    "open": CrystalLattice.open_bc(),
    "cubic": CrystalLattice.cubic(6.0),
    "orthorhombic": CrystalLattice.orthorhombic(5.0, 6.0, 7.0),
    # a few percent of skew: exercises the 27-image refinement branch
    "skewed": CrystalLattice([[6.0, 0.0, 0.0],
                              [0.4, 6.0, 0.0],
                              [0.0, 0.3, 6.0]]),
}


def _functor(rng):
    return BsplineFunctor.from_shape(rcut=2.5, cusp=-0.25, npts=12)


def _sweep_plan(rng, W, n):
    """A filled SweepPlan on a small real driver (for the pipeline
    kernel).  Imported lazily: the driver layer must not load at
    kernel_cases import time."""
    from repro.batched.driver import BatchedCrowdDriver
    from repro.batched.system import JastrowSystemSpec

    seed = int(rng.integers(2 ** 31 - 1))
    spec = JastrowSystemSpec(n=n, seed=seed)
    drv = BatchedCrowdDriver(spec, W, master_seed=seed + 1, use_drift=True)
    plan = drv._plan
    plan.workspace.fill(drv.rngs, plan.sqrt_tau)
    return plan


def _spline3d(rng, value_dtype):
    grid = (6, 6, 6)
    vals = rng.normal(size=grid + (4,))
    cell = np.diag([4.0, 5.0, 6.0])
    return BSpline3D.fit(vals, np.linalg.inv(cell), dtype=value_dtype)


def build_case(name, rng, value_dtype, lattice, W=3, n=6, ns=4):
    """(args, [(shape, dtype), ...]) for kernel ``name``.

    ``value_dtype`` plays the storage-policy role: the arrays a real
    call site would hold in the policy's value dtype (SoA blocks,
    distance rows, spline tables) are downcast to it; arguments the call
    sites always widen to float64 first (det ratio operands, log_t,
    rho) stay float64 — mirroring the actual kernel boundary.
    """
    vd = np.dtype(value_dtype)
    if name == "aa_row":
        soa = rng.uniform(0, 6, (W, 3, n)).astype(vd)
        rk = rng.uniform(0, 6, (W, 3))
        return (soa, rk, lattice, 2), [((W, n), F64), ((W, 3, n), F64)]
    if name == "ab_row":
        src = rng.uniform(0, 6, (3, ns))
        rk = rng.uniform(0, 6, (W, 3))
        return (src, rk, lattice), [((W, ns), F64), ((W, 3, ns), F64)]
    if name == "aa_pairs":
        R = rng.uniform(0, 6, (W, n, 3))
        return (R, lattice), [((W, n, n), F64), ((W, n, 3, n), F64)]
    if name == "ab_pairs":
        src_R = rng.uniform(0, 6, (ns, 3))
        R = rng.uniform(0, 6, (W, n, 3))
        return (src_R, R, lattice), [((W, n, ns), F64), ((W, n, 3, ns), F64)]
    if name in ("functor_v", "functor_vg", "functor_vgl"):
        f = _functor(rng)
        s = f.spline
        r = rng.uniform(0, 4.0, (W, n)).astype(vd)  # straddles rcut
        out = [((W, n), F64)]
        return ((s.poly, s.x0, s.h, f.rcut, r),
                out * {"functor_v": 1, "functor_vg": 2, "functor_vgl": 3}[name])
    if name in ("bspline1d_v", "bspline1d_vgl"):
        f = _functor(rng)
        s = f.spline
        r = rng.uniform(0, f.rcut, (n,)).astype(vd)
        out = [((n,), F64)]
        return ((s.poly, s.x0, s.h, r),
                out * (3 if name == "bspline1d_vgl" else 1))
    if name == "spline3d_v":
        sp = _spline3d(rng, vd)
        r = rng.uniform(-2, 8, (W, 3))
        return ((sp.coefs, sp.cell_inverse, (sp.nx, sp.ny, sp.nz), r),
                [((W, sp.norb), F64)])
    if name in ("spline3d_vgl", "spline3d_vgh"):
        sp = _spline3d(rng, vd)
        r = rng.uniform(-2, 8, (W, 3))
        m = sp.norb
        last = (W, m) if name == "spline3d_vgl" else (W, m, 3, 3)
        return ((sp.coefs, sp.cell_inverse, (sp.nx, sp.ny, sp.nz), r),
                [((W, m), F64), ((W, m, 3), F64), (last, F64)])
    if name == "det_ratio":
        phi = rng.normal(size=n)
        col = rng.normal(size=n)
        return (phi, col), [((), None)]
    if name == "det_ratios_vp":
        nvp = 5
        phi = rng.normal(size=(nvp, n))
        cols = rng.normal(size=(n, nvp))
        return (phi, cols), [((nvp,), F64)]
    if name == "exp_rows":
        x = rng.normal(scale=0.5, size=W)
        return (x,), [((W,), F64)]
    if name == "accept_mask":
        rho = rng.normal(loc=1.0, scale=0.3, size=W)
        log_t = rng.normal(scale=0.2, size=W)
        uniforms = rng.uniform(size=W)
        return (rho, log_t, uniforms), [((W,), BOOL)]
    if name == "sweep_run":
        # The pipeline kernel takes a host-side SweepPlan, not plain
        # arrays.  value_dtype is deliberately ignored: the plan carries
        # the driver's own full-precision state, so both dtype legs of
        # the property suite see identical plans and the (W,) int64
        # accept counts must agree exactly.
        return (_sweep_plan(rng, W, n),), [((W,), None), ((), None)]
    raise KeyError(f"no input factory for kernel {name!r}")


def run_kernel(backend, name, args):
    """Call the kernel; normalize the result to a tuple of np arrays."""
    out = getattr(backend, name)(*args)
    if not isinstance(out, tuple):
        out = (out,)
    return tuple(np.asarray(o) for o in out)


def assert_coverage():
    """Every registered kernel name has an input factory."""
    rng = np.random.default_rng(0)
    for name in KERNEL_NAMES:
        build_case(name, rng, np.float64, LATTICES["cubic"])
