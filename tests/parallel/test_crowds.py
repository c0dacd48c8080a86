"""Tests for the process-pool crowd driver (repro.parallel.crowds).

The load-bearing claims, from the module's determinism contract:

* energy traces (and every per-sample series of the streamed trace)
  are **bitwise identical** for workers in {0, 1, N}, VMC and DMC alike;
* shared-memory segments are gone from ``/dev/shm`` after a normal run
  *and* after an injected worker death;
* a killed worker, or a live one that stops answering, is detected and
  respawned, and the post-crash trace is bitwise equal to the crash-free
  one;
* a reply that does not match its command (wrong kind or step) raises
  ``CollectiveOrderError``, sanitizers armed or not;
* each worker's metrics tree is merged into the parent registry;
* no walker state rides the pipes: a generation is one command and one
  reply per worker, and their pickled bytes do not grow with the
  population.

Workloads are deliberately tiny (n=8 electrons, 6 walkers, 3 steps):
these are correctness tests, so oversubscribing a small host with more
crowd processes than cores is fine — the scaling *performance* numbers
are the end-to-end benchmark's (``j96-dmc-w2`` vs ``j96-dmc-serial``).
"""

import glob
import multiprocessing as mp
import os
import pickle
import tempfile
import time
from multiprocessing.connection import Connection

import numpy as np
import pytest

from repro.batched.driver import BatchedCrowdDriver
from repro.batched.system import JastrowSystemSpec
from repro.sanitizers import CollectiveOrderError, ShmRaceError
from repro.metrics.profile import category_view
from repro.metrics.registry import METRICS
from repro.output.stream import StreamSet, TraceReader
from repro.parallel import crowds
from repro.parallel.crowds import ParallelCrowdDriver
from repro.parallel.shm import SharedTraceBlock, SharedWalkerState

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
        # command rounds: ready, one per generation, stop
        assert res.extra["comm_allreduces"] == STEPS + 2
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

    def test_segments_released_when_run_raises(self, spec, monkeypatch):
        monkeypatch.setattr(crowds, "MAX_RESPAWNS", 0)
        before = _shm_segments()
        drv = ParallelCrowdDriver(spec, WALKERS, SEED, workers=2,
                                  timestep=0.3, crash_plan={0: 1, 1: 1})
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
        drv, *run = _run(spec, 2, mode, crash_plan={1: 2})
        assert drv.respawns == 1
        assert run[0].extra["respawns"] == 1.0
        _assert_same_trace(ref, run, mode)

    def test_crash_in_first_generation(self, spec, serial_vmc):
        drv, *run = _run(spec, 3, "vmc", crash_plan={2: 1})
        assert drv.respawns == 1
        _assert_same_trace(serial_vmc, run, "vmc")

    def test_gives_up_after_max_respawns(self, spec, monkeypatch):
        # incarnation 0 crashes worker 0; MAX_RESPAWNS = 0 forbids retry
        monkeypatch.setattr(crowds, "MAX_RESPAWNS", 0)
        drv = ParallelCrowdDriver(spec, WALKERS, SEED, workers=2,
                                  timestep=0.3, crash_plan={0: 1})
        with pytest.raises(RuntimeError, match="gave up after 0 respawns"):
            drv.run(STEPS, mode="vmc")

    def test_silent_worker_is_respawned_bitwise(self, spec, serial_dmc,
                                                monkeypatch, tmp_path):
        """A worker that is alive but stops answering (the sentinel
        never fires) is caught by SYNC_TIMEOUT, and the rerun is the
        crash-free trace."""
        marker = str(tmp_path / "wedged")
        run_generation = BatchedCrowdDriver.run_generation

        def wedge_once(crowd, step, e_trial):
            if step == 2:
                try:  # the first crowd process to get here wedges, once
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    time.sleep(60.0)  # until the parent terminates it
            return run_generation(crowd, step, e_trial)

        # set before the fork, so the pool's children inherit both
        monkeypatch.setattr(BatchedCrowdDriver, "run_generation",
                            wedge_once)
        monkeypatch.setattr(crowds, "SYNC_TIMEOUT", 1.0)
        t0 = time.monotonic()
        drv, *run = _run(spec, 2, "dmc")
        assert os.path.exists(marker)
        assert drv.respawns == 1
        assert time.monotonic() - t0 < 30.0
        _assert_same_trace(serial_dmc, run, "dmc")


class TestReplyCheck:
    """Every reply must answer the command the parent sent: the parent
    checks its kind and step on receipt, with the sanitizers off too."""

    @pytest.mark.parametrize("wrong", ["step", "kind"])
    def test_mismatched_reply_raises(self, spec, monkeypatch, wrong):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        send = Connection.send

        def skewed(conn, msg):
            if (mp.current_process().name == "repro-crowd-1"
                    and msg[:2] == ("done", 2)):
                msg = (("done", 3) if wrong == "step"
                       else ("final", 2)) + msg[2:]
            return send(conn, msg)

        # set before the fork, so the pool's children inherit it
        monkeypatch.setattr(Connection, "send", skewed)
        before = _shm_segments()
        with pytest.raises(CollectiveOrderError, match="crowd 1 replied"):
            _run(spec, 2, "vmc")
        assert _shm_segments() == before


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
    generation's wire traffic is one ``("gen", step, e_trial)`` command
    and one ``("done", step, accepts)`` reply per worker, so its pickled
    size is the same at W = 8 and W = 64 up to the widths of pickled
    integers."""

    def _wire(self, spec, monkeypatch, walkers, steps):
        """(messages, pickled bytes) the parent sends and receives over
        one 2-worker DMC run (every message passes through the
        parent)."""
        parent = os.getpid()
        sizes = []
        send, recv = Connection.send, Connection.recv

        def counted_send(conn, msg):
            if os.getpid() == parent:
                sizes.append(len(pickle.dumps(msg)))
            return send(conn, msg)

        def counted_recv(conn):
            msg = recv(conn)
            if os.getpid() == parent:
                sizes.append(len(pickle.dumps(msg)))
            return msg

        with monkeypatch.context() as m:
            m.setattr(Connection, "send", counted_send)
            m.setattr(Connection, "recv", counted_recv)
            drv = ParallelCrowdDriver(spec, walkers, SEED, workers=2,
                                      timestep=0.3)
            with drv:
                drv.run(steps, mode="dmc")
        return len(sizes), sum(sizes)

    def test_generation_bytes_independent_of_walker_count(self, spec,
                                                          monkeypatch):
        G, extra = 2, 4
        per_gen = {}
        for walkers in (8, 64):
            # The difference of two runs cancels spawn and shutdown.
            (m0, b0), (m1, b1) = (
                self._wire(spec, monkeypatch, walkers, steps)
                for steps in (G, G + extra))
            per_gen[walkers] = ((m1 - m0) / extra, (b1 - b0) / extra)
        # one command out and one reply back per worker (2 workers)
        assert all(msgs == 2 * 2 for msgs, _ in per_gen.values()), per_gen
        assert all(b < 1024 for _, b in per_gen.values()), per_gen
        assert per_gen[64][1] - per_gen[8][1] <= 16, per_gen


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
    """REPRO_SANITIZE=1 arms the ShmRace/RngStream sanitizers inside the
    driver.  The env var (not force_sanitizers)
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
