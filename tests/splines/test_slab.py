"""SharedCoefSlab lifecycle, read-only enforcement, and evaluation parity.

The load-bearing claims from docs/spline_memory.md:

* K crowd processes map **one** physical coefficient table; attachers
  never unlink it and a worker's death — normal or violent — cannot
  reap the parent's segment;
* every mapping is read-only after the one-time fill: an in-place
  write raises in any process;
* a slab-backed spline evaluates bitwise like the in-process table;
* a slab keeps its source table's storage dtype: an fp32 table (every
  ``VersionConfig``'s spline dtype) shares half the bytes.
"""

import gc
import glob
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.batched.spo import batched_multi_vgh
from repro.splines.bspline3d import BSpline3D
from repro.splines.slab import SharedCoefSlab


def _slab_segments():
    return sorted(glob.glob("/dev/shm/repro-slab-*"))


def _attach_and_die(descriptor):
    SharedCoefSlab.attach(descriptor)
    os._exit(9)  # no close(), no interpreter shutdown


def _fit(dtype):
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(6, 6, 6, 8))
    return BSpline3D.fit(vals, np.linalg.inv(np.diag([4.0, 5.0, 6.0])),
                         dtype=dtype)


@pytest.fixture(scope="module")
def spline():
    return _fit(np.float64)


@pytest.fixture(scope="module")
def points():
    return np.random.default_rng(4).uniform(-2.0, 8.0, (5, 3))


class TestLifecycle:
    def test_promote_attach_roundtrip(self, spline, points):
        with SharedCoefSlab.promote(spline) as slab:
            att = SharedCoefSlab.attach(slab.descriptor)
            np.testing.assert_array_equal(att.coefs, spline.coefs)
            assert att.norb == spline.norb
            att.close()

    def test_attacher_close_does_not_unlink(self, spline):
        slab = SharedCoefSlab.promote(spline)
        att = SharedCoefSlab.attach(slab.descriptor)
        att.close()
        assert glob.glob(f"/dev/shm/{slab.name}")  # still mapped
        slab.close()
        assert not glob.glob(f"/dev/shm/{slab.name}")

    def test_owner_close_is_idempotent(self, spline):
        slab = SharedCoefSlab.promote(spline)
        slab.close()
        slab.close()
        slab.unlink()

    def test_violent_attacher_death_leaves_the_segment(self, spline):
        # A worker that maps the slab and dies without cleanup must not
        # reap the parent's segment; the owner still unlinks it once.
        before = _slab_segments()
        ctx = mp.get_context("fork")
        with SharedCoefSlab.promote(spline) as slab:
            proc = ctx.Process(target=_attach_and_die,
                               args=(slab.descriptor,))
            proc.start()
            proc.join(timeout=30.0)
            assert proc.exitcode == 9
            assert glob.glob(f"/dev/shm/{slab.name}")
            np.testing.assert_array_equal(slab.coefs, spline.coefs)
        assert _slab_segments() == before

    def test_forgotten_owner_is_finalized(self, spline):
        before = _slab_segments()
        slab = SharedCoefSlab.promote(spline)
        assert len(_slab_segments()) == len(before) + 1
        del slab  # no close(): the weakref.finalize guard must unlink
        gc.collect()
        assert _slab_segments() == before

    def test_repr_names_the_segment(self, spline):
        with SharedCoefSlab.promote(spline) as slab:
            assert slab.name in repr(slab)
            assert "owner=True" in repr(slab)


class TestReadOnly:
    def test_owner_view_is_read_only(self, spline):
        with SharedCoefSlab.promote(spline) as slab:
            with pytest.raises(ValueError, match="read-only"):
                slab.coefs[0, 0, 0, 0] = 1.0

    def test_attacher_view_is_read_only(self, spline):
        with SharedCoefSlab.promote(spline) as slab:
            att = SharedCoefSlab.attach(slab.descriptor)
            try:
                with pytest.raises(ValueError, match="read-only"):
                    att.coefs[...] = 0.0
            finally:
                att.close()

    def test_as_spline_view_is_read_only(self, spline):
        with SharedCoefSlab.promote(spline) as slab:
            sp = slab.as_spline()
            with pytest.raises(ValueError, match="read-only"):
                sp.coefs[0, 0, 0, 0] = 1.0


class TestSlabBackedEvaluation:
    def test_values_bitwise_equal_in_process_table(self, spline, points):
        with SharedCoefSlab.promote(spline) as slab:
            sp = slab.as_spline()
            for a, b in zip(batched_multi_vgh(spline, points),
                            batched_multi_vgh(sp, points)):
                np.testing.assert_array_equal(a, b)

    def test_fp32_table_halves_the_slab(self, spline, points):
        single = _fit(np.float32)
        with SharedCoefSlab.promote(spline) as full, \
                SharedCoefSlab.promote(single) as half:
            assert half.coefs.dtype == np.float32
            assert half.nbytes * 2 == full.nbytes
            for a, b in zip(batched_multi_vgh(single, points),
                            batched_multi_vgh(half.as_spline(), points)):
                np.testing.assert_array_equal(a, b)
