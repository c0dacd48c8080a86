"""Property tests over the kernel surface (hypothesis-driven).

Two contracts:

* **coverage** — every name in ``KERNEL_NAMES`` has an input factory in
  kernel_cases.py, so a kernel added to the surface without test
  plumbing fails here rather than silently going ungated;
* **shape/dtype stability** — each kernel returns the same output
  shapes and dtypes whether its storage-side inputs arrive in the FULL
  (float64) or MIXED (float32) value dtype: accumulation is always
  float64 at the kernel boundary, never silently downcast.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from repro.backend import get_backend
from repro.backend.base import KERNEL_NAMES

from kernel_cases import LATTICES, assert_coverage, build_case, run_kernel


def test_every_kernel_has_an_input_factory():
    assert_coverage()


# one value; the id keeps the test names ``[<kernel>-numpy]``
@pytest.mark.parametrize("backend",
                         [pytest.param(get_backend(), id="numpy")])
@pytest.mark.parametrize("kernel", KERNEL_NAMES)
@given(seed=st.integers(0, 2**31 - 1),
       lattice_key=st.sampled_from(sorted(LATTICES)),
       W=st.integers(1, 5), n=st.integers(4, 9))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_shapes_and_dtypes_match_across_precisions(
        backend, kernel, seed, lattice_key, W, n):
    lattice = LATTICES[lattice_key]
    results = {}
    for vd in (np.float64, np.float32):
        rng = np.random.default_rng(seed)  # same draws, different storage
        args, expected = build_case(kernel, rng, vd, lattice, W=W, n=n)
        out = run_kernel(backend, kernel, args)
        assert len(out) == len(expected), kernel
        for got, (shape, dtype) in zip(out, expected):
            assert got.shape == shape, (kernel, vd)
            if dtype is not None:
                assert got.dtype == dtype, (kernel, vd)
        results[np.dtype(vd).name] = out
    # The float32 storage run must agree with the float64 one to single
    # precision — the downcast touched inputs, not the accumulator.
    for a, b in zip(results["float64"], results["float32"]):
        if a.dtype == bool:
            continue  # accept decisions may legitimately flip at f32
        np.testing.assert_allclose(a, b, rtol=2e-4, atol=2e-4)


@given(seed=st.integers(0, 2**31 - 1), W=st.integers(1, 6),
       n=st.integers(1, 17), step=st.integers(1, 3),
       big=st.floats(0.0, 0.5),
       dtype=st.sampled_from([np.float64, np.float32]))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_functor_vg_is_vgl_without_the_laplacian(seed, W, n, step, big,
                                                  dtype):
    """Bitwise channels 0 and 1 of ``functor_vgl`` on what call sites
    pass: (W, n) row blocks in either storage precision, strided group
    slices of them, distances straddling the cutoff and masked-diagonal
    BIG_DISTANCE entries."""
    from repro.distances.base import BIG_DISTANCE
    from repro.jastrow.functor import BsplineFunctor

    backend = get_backend()
    rng = np.random.default_rng(seed)
    f = BsplineFunctor.from_shape(rcut=2.5, cusp=-0.25, npts=12)
    s = f.spline
    block = rng.uniform(0, 2.0 * f.rcut, (W, step * n))
    block[rng.uniform(size=block.shape) < big] = BIG_DISTANCE
    r = block.astype(dtype)[:, ::step]
    args = (s.poly, s.x0, s.h, f.rcut)
    u, du = backend.functor_vg(*args, r)
    uu, dd, _ = backend.functor_vgl(*args, r)
    assert u.shape == du.shape == r.shape
    assert np.array_equal(u, uu) and np.array_equal(du, dd)
