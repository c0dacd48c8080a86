"""Tests for the process-pool crowd driver (repro.parallel.crowds).

The load-bearing claims, from the module's determinism contract:

* energy traces (and every per-sample series of the streamed trace)
  are **bitwise identical** for workers in {0, 1, N}, VMC and DMC alike;
* shared-memory segments are gone from ``/dev/shm`` after a normal run
  *and* after an injected worker death;
* a killed worker is detected and respawned, and the post-crash trace
  is bitwise equal to the crash-free one;
* each worker's metrics tree is merged into the parent registry;
* no walker state rides the pipes: the pickled bytes a generation puts
  on the wire do not grow with the population.

Workloads are deliberately tiny (n=8 electrons, 6 walkers, 3 steps):
these are correctness tests, so oversubscribing a small host with more
crowd processes than cores is fine — the scaling *performance* numbers
are the end-to-end benchmark's (``j96-dmc-w2`` vs ``j96-dmc-serial``).
"""

import glob
import os
import pickle
import tempfile

import numpy as np
import pytest

from repro.batched.system import JastrowSystemSpec
from repro.sanitizers import ShmRaceError
from repro.metrics.profile import category_view
from repro.metrics.registry import METRICS
from repro.output.stream import StreamSet, TraceReader
from repro.parallel.crowds import ParallelCrowdDriver
from repro.parallel.shm import SharedTraceBlock, SharedWalkerState
from repro.parallel.shmcomm import SharedMemComm

N = 8
WALKERS = 6
STEPS = 3
SEED = 11


def _shm_segments():
    """Names of this package's live shared-memory segments."""
    return sorted(glob.glob("/dev/shm/repro-crowds-*")
                  + glob.glob("/dev/shm/repro-trace-*"))


@pytest.fixture(scope="module")
def spec():
    return JastrowSystemSpec(n=N, seed=7)


def _run(spec, workers, mode, **kwargs):
    """(driver, result, series): the run streams its trace to a scratch
    file, and ``series`` is every named per-sample series read back
    from it."""
    drv = ParallelCrowdDriver(spec, WALKERS, SEED, workers=workers,
                              timestep=0.3, **kwargs)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.trace")
        with drv, StreamSet(trace_path=path) as streams:
            res = drv.run(STEPS, mode=mode, streams=streams)
        with TraceReader(path) as trace:
            series = {name: trace.series(name) for name in res.online.names()}
    return drv, res, series


@pytest.fixture(scope="module")
def serial_vmc(spec):
    return _run(spec, 0, "vmc")[1:]


@pytest.fixture(scope="module")
def serial_dmc(spec):
    return _run(spec, 0, "dmc")[1:]


def _assert_same_trace(ref, got, mode):
    (ref, ref_series), (res, series) = ref, got
    assert res.energies == ref.energies  # bitwise: no tolerance
    assert res.populations == ref.populations
    assert res.acceptance == ref.acceptance
    if mode == "dmc":
        assert res.trial_energies == ref.trial_energies
    assert sorted(series) == sorted(ref_series)
    for name in ref_series:
        np.testing.assert_array_equal(series[name], ref_series[name])


class TestBitwiseDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_vmc_trace_independent_of_worker_count(self, spec, serial_vmc,
                                                   workers):
        _, *run = _run(spec, workers, "vmc")
        _assert_same_trace(serial_vmc, run, "vmc")

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_dmc_trace_independent_of_worker_count(self, spec, serial_dmc,
                                                   workers):
        _, *run = _run(spec, workers, "dmc")
        _assert_same_trace(serial_dmc, run, "dmc")

    def test_result_metadata(self, spec):
        drv, res, _ = _run(spec, 2, "vmc")
        assert res.extra["workers"] == 2.0
        assert res.extra["respawns"] == 0.0
        assert res.extra["comm_allreduces"] > 0
        assert res.extra["worker_moves"] == STEPS * WALKERS * N
        assert 0.0 < res.acceptance <= 1.0


class TestShmLifecycle:
    def test_segments_released_after_normal_run(self, spec):
        before = _shm_segments()
        drv, _, _ = _run(spec, 2, "vmc")
        assert _shm_segments() == before
        assert drv._state is None and drv._trace is None
        drv.close()  # idempotent

    def test_segments_released_after_worker_death(self, spec):
        before = _shm_segments()
        _run(spec, 2, "dmc", crash_plan={0: 2})
        assert _shm_segments() == before

    def test_segments_released_when_run_raises(self, spec):
        before = _shm_segments()
        drv = ParallelCrowdDriver(spec, WALKERS, SEED, workers=2,
                                  timestep=0.3, crash_plan={0: 1, 1: 1},
                                  max_respawns=0, liveness_poll=0.05)
        with pytest.raises(RuntimeError, match="gave up"):
            drv.run(STEPS, mode="vmc")
        assert _shm_segments() == before

    def test_owner_close_unlinks_attacher_close_does_not(self):
        state = SharedWalkerState.create(4, N)
        peer = SharedWalkerState.attach(state.name, 4, N)
        state.R[0, 0, 0] = 1.5
        assert peer.R[0, 0, 0] == 1.5  # same physical memory
        peer.close()
        assert glob.glob(f"/dev/shm/{state.name}")  # attacher never unlinks
        state.close()
        assert not glob.glob(f"/dev/shm/{state.name}")

    def test_trace_block_roundtrip(self):
        with SharedTraceBlock.create(2, 3, 2) as trace:
            peer = SharedTraceBlock.attach(trace.name, 2, 3, 2)
            peer.local_energy[1, 0::2] = [-1.0, -2.0]
            arrays = trace.as_arrays()
            peer.close()
        np.testing.assert_array_equal(arrays["local_energy"][1],
                                      [-1.0, 0.0, -2.0])


class TestCrashRecovery:
    @pytest.mark.parametrize("mode", ["vmc", "dmc"])
    def test_respawned_run_is_bitwise_identical(self, spec, serial_vmc,
                                                serial_dmc, mode):
        ref = serial_vmc if mode == "vmc" else serial_dmc
        drv, *run = _run(spec, 2, mode, crash_plan={1: 2},
                         liveness_poll=0.05)
        assert drv.respawns == 1
        assert run[0].extra["respawns"] == 1.0
        _assert_same_trace(ref, run, mode)

    def test_crash_in_first_generation(self, spec, serial_vmc):
        drv, *run = _run(spec, 3, "vmc", crash_plan={2: 1},
                         liveness_poll=0.05)
        assert drv.respawns == 1
        _assert_same_trace(serial_vmc, run, "vmc")

    def test_gives_up_after_max_respawns(self, spec):
        # incarnation 0 crashes both workers; max_respawns=0 forbids retry
        drv = ParallelCrowdDriver(spec, WALKERS, SEED, workers=2,
                                  timestep=0.3, crash_plan={0: 1},
                                  max_respawns=0, liveness_poll=0.05)
        with pytest.raises(RuntimeError, match="gave up after 0 respawns"):
            drv.run(STEPS, mode="vmc")


class TestMetricsMerge:
    def test_worker_trees_merged_into_parent(self, spec):
        METRICS.enable()
        METRICS.reset()
        try:
            _run(spec, 2, "vmc")
            flat = METRICS.flat()
        finally:
            METRICS.disable()
            METRICS.reset()
        # the parent's own driver scope
        assert "ParallelVMC" in flat, sorted(flat)
        # both workers' trees merged at root level: one "Crowd" node with
        # one call per worker, inner sweep scopes intact below it
        assert flat["Crowd"]["calls"] == 2
        assert any(path.startswith("Crowd/") for path in flat), sorted(flat)

    def test_worker_op_counts_come_home(self, spec):
        """The merged per-category flops and bytes of a 2-worker run are
        the in-process run's: op counts ride on the shipped trees."""
        ops = {}
        for workers in (0, 2):
            METRICS.enable()
            METRICS.reset()
            try:
                _run(spec, workers, "vmc")
                _, ops[workers] = category_view(METRICS._merged_root())
            finally:
                METRICS.disable()
                METRICS.reset()
        assert {"DistTable-AA", "J2"} <= set(ops[0])
        assert set(ops[2]) == set(ops[0])
        for cat, want in ops[0].items():
            got = ops[2][cat]
            for field in ("flops", "rbytes", "wbytes"):
                assert getattr(got, field) == pytest.approx(
                    getattr(want, field), rel=1e-12), (cat, field)


class TestWireBytes:
    """Walker arrays cross processes only through shared memory.  A
    generation's wire traffic is one ``("gen", step, e_trial)`` bcast
    plus one ``("done", accepts)`` allgather, so its pickled size is the
    same at W = 8 and W = 64 up to the widths of pickled integers."""

    def _wire_bytes(self, spec, monkeypatch, walkers, steps):
        """Pickled bytes of every message the parent sends or receives
        over one 2-worker DMC run (every message passes through rank 0)."""
        sizes = []
        send, recv = SharedMemComm._send_raw, SharedMemComm._recv_routed

        def counted_send(comm, dst, msg):
            sizes.append(len(pickle.dumps(msg)))
            return send(comm, dst, msg)

        def counted_recv(comm, src, timeout):
            msg = recv(comm, src, timeout)
            sizes.append(len(pickle.dumps(msg)))
            return msg

        with monkeypatch.context() as m:
            m.setattr(SharedMemComm, "_send_raw", counted_send)
            m.setattr(SharedMemComm, "_recv_routed", counted_recv)
            drv = ParallelCrowdDriver(spec, walkers, SEED, workers=2,
                                      timestep=0.3)
            with drv:
                drv.run(steps, mode="dmc")
        return sum(sizes)

    def test_generation_bytes_independent_of_walker_count(self, spec,
                                                          monkeypatch):
        G, extra = 2, 4
        per_gen = {}
        for walkers in (8, 64):
            # The difference of two runs cancels spawn and shutdown.
            per_gen[walkers] = (
                self._wire_bytes(spec, monkeypatch, walkers, G + extra)
                - self._wire_bytes(spec, monkeypatch, walkers, G)) / extra
        assert all(b < 1024 for b in per_gen.values()), per_gen
        assert per_gen[64] - per_gen[8] <= 16, per_gen


class TestArgumentHandling:
    def test_workers_clamped_to_population(self, spec):
        drv = ParallelCrowdDriver(spec, 2, SEED, workers=8)
        assert drv.workers == 2

    def test_invalid_arguments(self, spec):
        with pytest.raises(ValueError, match="walker"):
            ParallelCrowdDriver(spec, 0, SEED)
        with pytest.raises(ValueError, match="workers"):
            ParallelCrowdDriver(spec, 4, SEED, workers=-1)
        drv = ParallelCrowdDriver(spec, 4, SEED)
        with pytest.raises(ValueError, match="mode"):
            drv.run(1, mode="pimc")
        with pytest.raises(ValueError, match="step"):
            drv.run(0)


class TestRuntimeSanitizers:
    """REPRO_SANITIZE=1 arms the ShmRace/RngStream/CollectiveOrder
    sanitizers inside the driver.  The env var (not force_sanitizers)
    is what the tests set so spawned pool workers inherit it."""

    def test_armed_vmc_trace_unchanged(self, spec, serial_vmc, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        _, *run = _run(spec, 2, "vmc")
        _assert_same_trace(serial_vmc, run, "vmc")

    def test_armed_dmc_trace_unchanged(self, spec, serial_dmc, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        _, *run = _run(spec, 2, "dmc")
        _assert_same_trace(serial_dmc, run, "dmc")

    def test_injected_out_of_epoch_write_is_caught(self, spec, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with pytest.raises(ShmRaceError, match="local_energy"):
            _run(spec, 2, "vmc", race_plan={0: 2})
        assert _shm_segments() == []

    def test_race_fixture_unarmed_corrupts_trace_silently(self, spec,
                                                          serial_vmc,
                                                          monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        kept = {}
        finalize = ParallelCrowdDriver._finalize

        def keep_trace_block(drv):
            payloads = finalize(drv)  # every worker is done writing
            kept["local_energy"] = np.array(drv._trace.local_energy)
            return payloads

        monkeypatch.setattr(ParallelCrowdDriver, "_finalize",
                            keep_trace_block)
        # Sanitizer off: the injected write lands in the shared trace
        # history and the run completes.  This proves the armed
        # detection above is not a tautology.
        _, res, series = _run(spec, 2, "vmc", race_plan={0: 2})
        ref, ref_series = serial_vmc
        assert not np.array_equal(kept["local_energy"].ravel(),
                                  ref_series["LocalEnergy"])
        # The streamed samples were taken row by row as each generation
        # ended, before the scribble on an older row.
        np.testing.assert_array_equal(series["LocalEnergy"],
                                      ref_series["LocalEnergy"])
        assert res.energies == ref.energies  # live state untouched
