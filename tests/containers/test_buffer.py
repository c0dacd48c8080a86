"""Tests for the anonymous walker buffer (PooledData)."""

import numpy as np
import pytest

from repro.containers.buffer import WalkerBuffer


class TestRegistration:
    def test_register_accumulates(self):
        b = WalkerBuffer()
        s1 = b.register(np.ones(4))
        s2 = b.register(np.zeros((2, 3)))
        assert s1 == slice(0, 4)
        assert s2 == slice(4, 10)
        assert b.size == 10

    def test_register_scalar(self):
        b = WalkerBuffer()
        b.register_scalar(3.5)
        assert b.size == 1
        b.rewind()
        assert b.get_scalar() == 3.5

    def test_sealed_rejects_register(self):
        b = WalkerBuffer()
        b.register(np.ones(2))
        b.seal()
        with pytest.raises(RuntimeError):
            b.register(np.ones(1))


class TestPutGet:
    def test_roundtrip_in_order(self):
        b = WalkerBuffer()
        a1 = np.arange(4.0)
        a2 = np.arange(6.0).reshape(2, 3) * 2
        b.register(a1)
        b.register(a2)
        b.seal()
        b.rewind()
        b.put(a1 + 1)
        b.put(a2 + 1)
        b.rewind()
        o1 = np.zeros(4)
        o2 = np.zeros((2, 3))
        b.get(o1)
        b.get(o2)
        assert np.allclose(o1, a1 + 1)
        assert np.allclose(o2, a2 + 1)

    def test_overflow_put_raises(self):
        b = WalkerBuffer()
        b.register(np.zeros(3))
        b.rewind()
        with pytest.raises(ValueError):
            b.put(np.zeros(4))

    def test_overrun_get_raises(self):
        b = WalkerBuffer()
        b.register(np.zeros(3))
        b.rewind()
        with pytest.raises(ValueError):
            b.get(np.zeros(4))

    def test_scalar_cursor(self):
        b = WalkerBuffer()
        b.register_scalar(0.0)
        b.register_scalar(0.0)
        b.rewind()
        b.put_scalar(1.0)
        b.put_scalar(2.0)
        b.rewind()
        assert b.get_scalar() == 1.0
        assert b.get_scalar() == 2.0


class TestInterchange:
    def test_nbytes(self):
        b = WalkerBuffer(np.float64)
        b.register(np.zeros(10))
        assert b.nbytes == 80
        b32 = WalkerBuffer(np.float32)
        b32.register(np.zeros(10, dtype=np.float32))
        assert b32.nbytes == 40

    def test_copy_independent(self):
        a = WalkerBuffer()
        a.register(np.ones(3))
        c = a.copy()
        c.rewind()
        c.put(np.zeros(3))
        a.rewind()
        out = np.zeros(3)
        a.get(out)
        assert np.allclose(out, 1.0)

    def test_dtype_conversion_on_get(self):
        b = WalkerBuffer(np.float64)
        b.register(np.array([1.5, 2.5]))
        b.rewind()
        out = np.zeros(2, dtype=np.float32)
        b.get(out)
        assert np.allclose(out, [1.5, 2.5])
