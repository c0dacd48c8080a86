"""Tests for Walker state and message sizes."""

import numpy as np
import pytest

from repro.core.system import QmcSystem
from repro.core.version import VERSION_CONFIGS, CodeVersion
from repro.particles.walker import Walker


class TestWalker:
    def test_from_positions(self, rng):
        R = rng.normal(size=(6, 3))
        w = Walker.from_positions(R)
        assert w.n == 6
        assert np.allclose(w.R, R)
        assert w.weight == 1.0

    def test_copy_independent(self, rng):
        w = Walker.from_positions(rng.normal(size=(4, 3)))
        w.buffer.register(np.arange(5.0))
        c = w.copy()
        c.R[0] = 99.0
        c.weight = 0.5
        c.buffer.rewind()
        c.buffer.put(np.zeros(5))
        assert not np.allclose(w.R[0], 99.0)
        assert w.weight == 1.0
        out = np.zeros(5)
        w.buffer.rewind()
        w.buffer.get(out)
        assert np.allclose(out, np.arange(5.0))

    def test_message_bytes_grow_with_buffer(self, rng):
        w = Walker.from_positions(rng.normal(size=(4, 3)))
        before = w.message_nbytes()
        w.buffer.register(np.zeros(100))
        assert w.message_nbytes() == before + 800

    def test_message_bytes_reflect_precision(self, rng):
        w64 = Walker.from_positions(rng.normal(size=(4, 3)), dtype=np.float64)
        w32 = Walker.from_positions(rng.normal(size=(4, 3)), dtype=np.float32)
        w64.buffer.register(np.zeros(100))
        w32.buffer.register(np.zeros(100, dtype=np.float32))
        assert w64.message_nbytes() - w32.message_nbytes() == 400

    def test_message_bytes_reflect_version(self):
        """Ref walkers carry their 5N^2 Jastrow buffers in fp64; Current
        walkers are lean and mixed precision — the Fig. 8/9 message-size
        story on the wire."""
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=6,
                                       with_nlpp=False)
        nbytes = {}
        for version in (CodeVersion.REF, CodeVersion.CURRENT):
            parts = sys_.build(version, value_dtype=np.float64)
            w = Walker.from_positions(
                parts.electrons.R,
                dtype=VERSION_CONFIGS[version].precision.value_dtype)
            parts.twf.evaluate_log(parts.electrons)
            parts.twf.register_data(parts.electrons, w.buffer)
            nbytes[version] = w.message_nbytes()
        assert nbytes[CodeVersion.REF] > 5 * nbytes[CodeVersion.CURRENT]
