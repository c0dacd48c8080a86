"""SharedCoefSlab lifecycle, read-only enforcement, and crowd parity.

The load-bearing claims from docs/spline_memory.md:

* K crowd processes map **one** physical coefficient table; attachers
  never unlink it and a worker's death — normal or violent — cannot
  reap the parent's segment;
* every mapping is read-only after the one-time fill: an in-place
  write raises in any process;
* a slab-backed spline is bitwise-indistinguishable from the
  in-process table, end to end: the SpoNorm trace component of
  :class:`~repro.parallel.crowds.ParallelCrowdDriver` comes out
  bitwise identical for workers in {0, 2};
* a slab keeps its source table's storage dtype: an fp32 table (every
  ``VersionConfig``'s spline dtype) shares half the bytes.
"""

import gc
import glob

import numpy as np
import pytest

from repro.batched.spo import batched_multi_vgh
from repro.batched.system import JastrowSystemSpec
from repro.output.stream import StreamSet, TraceReader
from repro.parallel.crowds import ParallelCrowdDriver
from repro.splines.bspline3d import BSpline3D
from repro.splines.slab import SharedCoefSlab


def _slab_segments():
    return sorted(glob.glob("/dev/shm/repro-slab-*"))


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


class TestCrowdIntegration:
    N = 8
    WALKERS = 6
    STEPS = 3
    SEED = 11

    @pytest.fixture(scope="class")
    def spec(self):
        return JastrowSystemSpec(n=self.N, seed=7)

    def _run(self, spec, spline, workers, trace=None, **kwargs):
        drv = ParallelCrowdDriver(spec, self.WALKERS, self.SEED,
                                  workers=workers, timestep=0.3,
                                  spo_slab=spline, **kwargs)
        with drv, StreamSet(trace_path=trace) as streams:
            res = drv.run(self.STEPS, mode="vmc", streams=streams)
        return res

    def test_sponorm_component_present(self, spec, spline):
        res = self._run(spec, spline, 0)
        assert "SpoNorm" in res.online.names()

    @pytest.mark.parametrize("workers", [2])
    def test_trace_bitwise_across_worker_counts(self, spec, spline,
                                                workers, tmp_path):
        paths = [str(tmp_path / "serial.trace"), str(tmp_path / "multi.trace")]
        serial = self._run(spec, spline, 0, trace=paths[0])
        multi = self._run(spec, spline, workers, trace=paths[1])
        assert multi.energies == serial.energies
        with TraceReader(paths[0]) as a, TraceReader(paths[1]) as b:
            for name in serial.online.names():
                np.testing.assert_array_equal(b.series(name), a.series(name))

    def test_no_segments_leak_after_run(self, spec, spline):
        before = _slab_segments()
        self._run(spec, spline, 2)
        assert _slab_segments() == before

    def test_no_segments_leak_after_worker_death(self, spec, spline):
        # Injected death: crowd 0 calls os._exit mid-generation 2; the
        # parent respawns it and the owner still unlinks exactly once.
        before = _slab_segments()
        res = self._run(spec, spline, 2, crash_plan={0: 2})
        assert _slab_segments() == before
        serial = self._run(spec, spline, 0)
        assert res.energies == serial.energies  # post-crash trace bitwise

    def test_preattached_slab_is_not_unlinked_by_driver(self, spec,
                                                        spline):
        slab = SharedCoefSlab.promote(spline)
        try:
            self._run(spec, slab, 2)
            assert glob.glob(f"/dev/shm/{slab.name}")  # caller still owns
        finally:
            slab.close()
