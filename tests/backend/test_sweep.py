"""Parity gate for the fused sweep pipeline kernel (``sweep_run``) at
the kernel seam: the fused pipeline must be BITWISE the retained loop
oracle (``repro.batched.reference.loop_sweep``).
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.batched import BatchedCrowdDriver, JastrowSystemSpec
from repro.batched.reference import use_loop_sweep
from repro.batched.sweep import fused_sweep_step

SEED = 17


def _driver(n=10, W=4, use_drift=True):
    spec = JastrowSystemSpec(n=n, seed=5)
    return BatchedCrowdDriver(spec, W, SEED, use_drift=use_drift)


class TestNumpySweepExact:
    """sweep_run and its per-electron body vs the loop oracle."""

    @pytest.mark.parametrize("use_drift", [False, True],
                             ids=["diffusion", "drift"])
    def test_sweep_run_bitwise_vs_loop(self, use_drift):
        fused = _driver(use_drift=use_drift)
        loop = _driver(use_drift=use_drift)
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
        """n fused_sweep_step calls == one sweep_run, state for state."""
        a = _driver()
        b = _driver()
        backend = get_backend()
        for drv in (a, b):
            drv._plan.workspace.fill(drv.rngs, drv._plan.sqrt_tau)
        accepts, total = backend.sweep_run(a._plan)
        masks = [np.asarray(fused_sweep_step(backend, b._plan, k))
                 for k in range(b.n)]
        assert total == int(sum(m.sum() for m in masks))
        assert np.array_equal(accepts,
                              np.sum(masks, axis=0).astype(np.int64))
        assert np.array_equal(a.batch.R, b.batch.R)

    def test_sweep_kernels_are_registered(self):
        from repro.backend.base import KERNEL_NAMES
        assert "sweep_run" in KERNEL_NAMES
