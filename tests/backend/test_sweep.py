"""Parity gates for the fused sweep pipeline kernels (sweep_step /
sweep_run) at the backend surface.

Numpy leg: the fused pipeline must be BITWISE the retained loop oracle
(``repro.batched.reference.loop_sweep``) — the `exact_match = True` claim
for the new kernels.  Jax leg (importorskip; the CI backend-parity
matrix runs it): the whole-sweep jit must actually engage (payload
built, not the per-step fallback) and drive an end-to-end VMC run to
finite energies — decisions are not compared elementwise because one
ulp of ``jnp.exp`` divergence legitimately flips a Metropolis
comparison (docs/backends.md parity policy).
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.batched import BatchedCrowdDriver, JastrowSystemSpec
from repro.batched.reference import use_loop_sweep

SEED = 17


def _driver(backend, n=10, W=4, use_drift=True):
    spec = JastrowSystemSpec(n=n, seed=5)
    return BatchedCrowdDriver(spec, W, SEED, use_drift=use_drift,
                              backend=backend)


class TestNumpySweepExact:
    """sweep_run/sweep_step under the numpy backend vs the loop oracle."""

    @pytest.mark.parametrize("use_drift", [False, True],
                             ids=["diffusion", "drift"])
    def test_sweep_run_bitwise_vs_loop(self, use_drift):
        fused = _driver("numpy", use_drift=use_drift)
        loop = _driver("numpy", use_drift=use_drift)
        use_loop_sweep(loop)
        fused.move_log = []
        loop.move_log = []
        for _ in range(2):
            assert fused.sweep() == loop.sweep()
        for a, b in zip(fused.move_log, loop.move_log):
            assert np.array_equal(a, b)
        assert np.array_equal(fused.batch.R, loop.batch.R)
        assert np.array_equal(fused.last_sweep_accepts,
                              loop.last_sweep_accepts)

    def test_sweep_step_is_the_run_body(self):
        """n sweep_step calls == one sweep_run, state for state."""
        a = _driver("numpy")
        b = _driver("numpy")
        backend = get_backend("numpy")
        for drv in (a, b):
            drv._plan.workspace.fill(drv.rngs, drv._plan.sqrt_tau)
        accepts, total = backend.sweep_run(a._plan)
        masks = [np.asarray(backend.sweep_step(b._plan, k))
                 for k in range(b.n)]
        assert total == int(sum(m.sum() for m in masks))
        assert np.array_equal(accepts,
                              np.sum(masks, axis=0).astype(np.int64))
        assert np.array_equal(a.batch.R, b.batch.R)

    def test_sweep_kernels_are_registered(self):
        from repro.backend.base import KERNEL_NAMES
        assert "sweep_step" in KERNEL_NAMES
        assert "sweep_run" in KERNEL_NAMES


class TestJaxWholeSweep:
    """End-to-end whole-sweep jit under the jax backend."""

    @pytest.fixture(autouse=True)
    def _need_jax(self):
        pytest.importorskip("jax")

    @pytest.mark.parametrize("use_drift", [False, True],
                             ids=["diffusion", "drift"])
    def test_whole_sweep_jit_engages_and_runs(self, use_drift):
        drv = _driver("jax", use_drift=use_drift)
        drv.move_log = []
        r0 = drv.batch.R.copy()
        accepted = drv.sweep()
        # The payload cache proves the fused lax.fori_loop path ran,
        # not the per-step fallback.
        assert drv._plan._jax_payload not in (None, False)
        assert 0 <= accepted <= drv.n * drv.nw
        assert len(drv.move_log) == drv.n
        assert all(m.shape == (drv.nw,) and m.dtype == bool
                   for m in drv.move_log)
        if accepted:
            assert not np.array_equal(drv.batch.R, r0)
        # SoA mirror and tables were resynchronized host-side.
        np.testing.assert_array_equal(
            drv.batch.Rsoa[:, :, :drv.n],
            np.transpose(drv.batch.R, (0, 2, 1)))
        el = drv.measure()
        assert np.all(np.isfinite(el))

    def test_accept_totals_track_numpy(self):
        """Same seeds, same draws: decision streams may flip only on
        ulp-margin moves, so accept totals stay within a small band."""
        a = _driver("numpy", n=12, W=6)
        b = _driver("jax", n=12, W=6)
        a.move_log = []
        b.move_log = []
        ta = a.sweep()
        tb = b.sweep()
        assert abs(ta - tb) <= 5
        if all(np.array_equal(x, y)
               for x, y in zip(a.move_log, b.move_log)):
            # No margin move flipped: the trajectories are comparable.
            np.testing.assert_allclose(b.batch.R, a.batch.R,
                                       rtol=0, atol=1e-7)

    def test_short_vmc_run_finite(self):
        drv = _driver("jax", n=8, W=3)
        res = drv.run(3)
        assert np.all(np.isfinite(res.energies))
        assert 0.0 < drv.acceptance_ratio <= 1.0
