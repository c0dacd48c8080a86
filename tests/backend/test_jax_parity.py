"""numpy-vs-jax kernel parity (tolerance-gated; the jax CI leg's gate).

The jax backend runs in float64 (x64 enabled at import) but jit/vmap may
fuse multiply-adds and reorder reductions, so parity here is tight
tolerances, not bitwise — the policy documented in docs/backends.md.
The accept-mask check *is* exact, after discarding uniforms that land
within a margin of the acceptance threshold, so a 1-ulp exp difference
cannot flip a fixed-seed decision.
"""

import numpy as np
import pytest

jax = pytest.importorskip("jax")

from repro.backend import get_backend
from repro.backend.base import KERNEL_NAMES
from repro.distances.base import BIG_DISTANCE

from kernel_cases import LATTICES, build_case, run_kernel

NP = get_backend("numpy")
JX = get_backend("jax")

#: per-kernel (rtol, atol) gates; distance kernels carry BIG_DISTANCE
#: sentinels (~1e30) so their atol is scaled by an exact-sentinel check
TOLS = {
    "spline3d_vgl": (1e-9, 1e-10),   # second derivatives lose a few digits
    "functor_vgl": (1e-10, 1e-12),
    "bspline1d_vgl": (1e-10, 1e-12),
}
DEFAULT_TOL = (1e-12, 1e-13)


def test_jax_runs_in_float64():
    # Importing the backend enables x64; default array dtype is float64.
    assert jax.numpy.zeros(1).dtype == np.float64


#: decision-carrying kernels: gated by margin-aware / end-to-end tests
#: (TestAcceptMaskParity here, test_sweep.py for the pipeline kernels)
#: instead of elementwise allclose, where one ulp flips a boolean
_DECISION_KERNELS = ("accept_mask", "sweep_step", "sweep_run")


@pytest.mark.parametrize("lattice_key", sorted(LATTICES))
@pytest.mark.parametrize("kernel",
                         [k for k in KERNEL_NAMES
                          if k not in _DECISION_KERNELS])
def test_kernel_parity(kernel, lattice_key):
    rng_np = np.random.default_rng(7)
    rng_jx = np.random.default_rng(7)
    lattice = LATTICES[lattice_key]
    args_np, _ = build_case(kernel, rng_np, np.float64, lattice, W=4, n=7)
    args_jx, _ = build_case(kernel, rng_jx, np.float64, lattice, W=4, n=7)
    out_np = run_kernel(NP, kernel, args_np)
    out_jx = run_kernel(JX, kernel, args_jx)
    rtol, atol = TOLS.get(kernel, DEFAULT_TOL)
    assert len(out_np) == len(out_jx)
    for a, b in zip(out_np, out_jx):
        assert a.shape == b.shape
        # Masked sentinels (self-distance rows) must agree exactly —
        # they are assignments, not arithmetic.
        big = a >= BIG_DISTANCE
        if big.any():
            assert np.array_equal(big, np.asarray(b) >= BIG_DISTANCE)
            a = np.where(big, 0.0, a)
            b = np.where(big, 0.0, b)
        np.testing.assert_allclose(b, a, rtol=rtol, atol=atol)


class TestAcceptMaskParity:
    MARGIN = 1e-9

    def test_decisions_match_off_the_margin(self):
        rng = np.random.default_rng(11)
        rho = rng.normal(loc=0.9, scale=0.4, size=4096)
        log_t = rng.normal(scale=0.3, size=4096)
        uniforms = rng.uniform(size=4096)
        A = np.minimum(1.0, rho * rho * np.asarray(NP.exp_rows(log_t)))
        clear = np.abs(uniforms - A) > self.MARGIN
        assert clear.sum() > 4000  # the margin filter is not degenerate
        acc_np = np.asarray(NP.accept_mask(rho, log_t, uniforms))
        acc_jx = np.asarray(JX.accept_mask(rho, log_t, uniforms))
        assert np.array_equal(acc_np[clear], acc_jx[clear])

    def test_no_drift_decisions_match(self):
        rng = np.random.default_rng(13)
        rho = rng.normal(loc=0.9, scale=0.4, size=2048)
        uniforms = rng.uniform(size=2048)
        A = np.minimum(1.0, rho * rho)
        clear = np.abs(uniforms - A) > self.MARGIN
        acc_np = np.asarray(NP.accept_mask(rho, None, uniforms))
        acc_jx = np.asarray(JX.accept_mask(rho, None, uniforms))
        assert np.array_equal(acc_np[clear], acc_jx[clear])

    def test_node_touch_rejected(self):
        rho = np.zeros(3)
        uniforms = np.zeros(3)
        assert not np.asarray(JX.accept_mask(rho, None, uniforms)).any()


class TestDriverUnderJax:
    def test_short_vmc_run_is_finite_and_close(self):
        from repro.batched import BatchedCrowdDriver, JastrowSystemSpec
        spec = JastrowSystemSpec(n=8, seed=5)
        a = BatchedCrowdDriver(spec, 3, 17, backend="numpy")
        b = BatchedCrowdDriver(spec, 3, 17, backend="jax")
        # Identical construction: same positions, near-identical logpsi.
        assert np.array_equal(a.batch.R, b.batch.R)
        np.testing.assert_allclose(b.batch.logpsi, a.batch.logpsi,
                                   rtol=1e-10, atol=1e-12)
        res = b.run(3)
        assert np.all(np.isfinite(res.energies))
        assert 0.0 < b.acceptance_ratio <= 1.0
        el = np.asarray(b.batch.local_energy)
        assert np.all(np.isfinite(el))

    def test_sweep_fallback_is_counted_once_per_plan(self, monkeypatch):
        """A component set the whole-sweep jit does not understand runs
        the per-step pipeline — and says so, once per plan."""
        from repro.batched import BatchedCrowdDriver, JastrowSystemSpec
        from repro.metrics.registry import METRICS
        monkeypatch.setattr(
            "repro.backend.jax_sweep_host.build_sweep_payload",
            lambda plan: None)
        drv = BatchedCrowdDriver(JastrowSystemSpec(n=8, seed=5), 3, 17,
                                 backend="jax")
        was_enabled = METRICS.enabled
        METRICS.reset()
        METRICS.enable()
        try:
            drv.sweep()
            drv.sweep()
            snap = METRICS.snapshot()
        finally:
            METRICS.enabled = was_enabled
            METRICS.reset()

        def fallbacks(node):
            return (node.get("counters", {}).get("jax_sweep_fallback", 0)
                    + sum(fallbacks(c) for c in node.get("children", ())))
        assert sum(fallbacks(s) for s in snap["scopes"]) == 1
        assert 0.0 < drv.acceptance_ratio <= 1.0
