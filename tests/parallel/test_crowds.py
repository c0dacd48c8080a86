"""Tests for the process-pool crowd driver (repro.parallel.crowds).

The load-bearing claims, from the module's determinism contract:

* energy traces (and every per-sample series of the streamed trace)
  are **bitwise identical** for workers in {0, 1, N}, VMC and DMC alike;
* a pool run maps one shared-memory segment, the walker block, whose
  size does not depend on the number of steps, and it is gone from
  ``/dev/shm`` after a normal run *and* after an injected worker death;
* a killed worker, or a live one that stops answering, is detected and
  respawned, and the post-crash trace is bitwise equal to the crash-free
  one;
* a reply that does not match its command (wrong kind or step) raises
  ``CollectiveOrderError``, sanitizers armed or not;
* a pool torn down after a crash or an error terminates its workers
  without waiting on them;
* each worker's metrics tree is merged into the parent registry;
* no walker position rides the pipes: a generation is one command and
  one reply per worker, and the reply carries only the crowd's
  per-walker estimator rows.

Faults are injected by monkeypatching before the fork, which the pool's
children inherit; an ``O_EXCL`` marker file makes a fault fire once.

Workloads are deliberately tiny (n=8 electrons, 6 walkers, 3 steps):
these are correctness tests, so oversubscribing a small host with more
crowd processes than cores is fine — the scaling *performance* numbers
are the end-to-end benchmark's (``j96-dmc-w2`` vs ``j96-dmc-serial``).
"""

import gc
import glob
import multiprocessing as mp
import os
import pickle
import tempfile
import time
from multiprocessing.connection import Connection
from multiprocessing.process import BaseProcess

import numpy as np
import pytest

from repro.batched.driver import BatchedCrowdDriver
from repro.batched.system import BatchedHamiltonian, JastrowSystemSpec
from repro.sanitizers import CollectiveOrderError, ShmRaceError
from repro.metrics.profile import category_view
from repro.metrics.registry import METRICS
from repro.output.stream import StreamSet, TraceReader
from repro.parallel import crowds
from repro.parallel.crowds import ParallelCrowdDriver
from repro.parallel.shm import SharedWalkerState

N = 8
WALKERS = 6
STEPS = 3
SEED = 11


def _shm_segments():
    """Names of the crowd pool's live shared-memory segments."""
    return sorted(glob.glob("/dev/shm/repro-crowds-*"))


def _attach_and_die(name, nwalkers):
    SharedWalkerState.attach(name, nwalkers, N)
    os._exit(9)  # no close(), no interpreter shutdown


def _first_time(marker):
    """True for the first process (of any) to claim ``marker``."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return False
    return True


def _crash_once(monkeypatch, marker, crowd, generation):
    """Patch before the fork: the first time worker ``crowd`` is sent a
    generation >= ``generation`` it dies without cleanup; the respawned
    pool runs clean."""
    run_generation = BatchedCrowdDriver.run_generation

    def crash(drv, step, *args):
        if (step >= generation
                and mp.current_process().name == f"repro-crowd-{crowd}"
                and _first_time(marker)):
            os._exit(23)
        return run_generation(drv, step, *args)

    monkeypatch.setattr(BatchedCrowdDriver, "run_generation", crash)


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
        assert drv._state is None
        drv.close()  # idempotent

    def test_pool_maps_one_segment_sized_by_population(self, spec,
                                                       monkeypatch):
        """While a run is live the pool maps the walker block and
        nothing else, at the same size for 3 and 30 steps."""
        before = set(glob.glob("/dev/shm/repro-*"))
        live = []
        end_generation = ParallelCrowdDriver._end_generation

        def look(drv, step):
            live.append({path: os.path.getsize(path) for path in
                         set(glob.glob("/dev/shm/repro-*")) - before})
            end_generation(drv, step)

        monkeypatch.setattr(ParallelCrowdDriver, "_end_generation", look)
        sizes = {}
        for steps in (3, 30):
            live.clear()
            with ParallelCrowdDriver(spec, WALKERS, SEED, workers=2,
                                     timestep=0.3) as drv:
                drv.run(steps, mode="dmc")
            assert len(live) == steps
            assert all(len(segments) == 1 for segments in live), live[0]
            sizes[steps] = {size for segments in live
                            for size in segments.values()}
        assert sizes[3] == sizes[30] == {SharedWalkerState(WALKERS,
                                                           N).nbytes}

    def test_segments_released_after_worker_death(self, spec, monkeypatch,
                                                  tmp_path):
        _crash_once(monkeypatch, str(tmp_path / "crashed"), 0, 2)
        before = _shm_segments()
        _run(spec, 2, "dmc")
        assert _shm_segments() == before

    def test_segments_released_when_run_raises(self, spec, monkeypatch,
                                               tmp_path):
        monkeypatch.setattr(crowds, "MAX_RESPAWNS", 0)
        _crash_once(monkeypatch, str(tmp_path / "crashed"), 0, 1)
        before = _shm_segments()
        drv = ParallelCrowdDriver(spec, WALKERS, SEED, workers=2,
                                  timestep=0.3)
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

    def test_owner_close_is_idempotent(self):
        state = SharedWalkerState.create(4, N)
        state.close()
        state.close()
        state.unlink()
        assert not glob.glob(f"/dev/shm/{state.name}")

    def test_violent_attacher_death_leaves_the_segment(self):
        # A worker that maps the block and dies without cleanup must not
        # reap the parent's segment; the owner still unlinks it once.
        before = _shm_segments()
        with SharedWalkerState.create(4, N) as state:
            state.R[...] = 1.5
            proc = mp.get_context("fork").Process(
                target=_attach_and_die, args=(state.name, 4))
            proc.start()
            proc.join(timeout=30.0)
            assert proc.exitcode == 9
            assert glob.glob(f"/dev/shm/{state.name}")
            assert np.all(state.R == 1.5)
        assert _shm_segments() == before

    def test_forgotten_owner_is_finalized(self):
        before = _shm_segments()
        state = SharedWalkerState.create(4, N)
        assert len(_shm_segments()) == len(before) + 1
        del state  # no close(): the weakref.finalize guard must unlink
        gc.collect()
        assert _shm_segments() == before

    def test_repr_names_the_segment(self):
        with SharedWalkerState.create(4, N) as state:
            assert state.name in repr(state)
            assert "owner=True" in repr(state)


class TestCrashRecovery:
    @pytest.mark.parametrize("mode", ["vmc", "dmc"])
    def test_respawned_run_is_bitwise_identical(self, spec, serial_vmc,
                                                serial_dmc, mode,
                                                monkeypatch, tmp_path):
        ref = serial_vmc if mode == "vmc" else serial_dmc
        _crash_once(monkeypatch, str(tmp_path / "crashed"), 1, 2)
        drv, *run = _run(spec, 2, mode)
        assert drv.respawns == 1
        assert run[0].extra["respawns"] == 1.0
        _assert_same_trace(ref, run, mode)

    def test_crash_in_first_generation(self, spec, serial_vmc, monkeypatch,
                                       tmp_path):
        _crash_once(monkeypatch, str(tmp_path / "crashed"), 2, 1)
        drv, *run = _run(spec, 3, "vmc")
        assert drv.respawns == 1
        _assert_same_trace(serial_vmc, run, "vmc")

    def test_gives_up_after_max_respawns(self, spec, monkeypatch, tmp_path):
        # worker 0 crashes once; MAX_RESPAWNS = 0 forbids retry
        monkeypatch.setattr(crowds, "MAX_RESPAWNS", 0)
        _crash_once(monkeypatch, str(tmp_path / "crashed"), 0, 1)
        drv = ParallelCrowdDriver(spec, WALKERS, SEED, workers=2,
                                  timestep=0.3)
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
            # the first crowd process to get here wedges, once
            if step == 2 and _first_time(marker):
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


def _skew_reply(monkeypatch, wrong):
    """Patch before the fork: worker 1 answers generation 2 with the
    wrong step or the wrong kind."""
    send = Connection.send

    def skewed(conn, msg):
        if (mp.current_process().name == "repro-crowd-1"
                and msg[:2] == ("done", 2)):
            msg = (("done", 3) if wrong == "step"
                   else ("final", 2)) + msg[2:]
        return send(conn, msg)

    monkeypatch.setattr(Connection, "send", skewed)


class TestReplyCheck:
    """Every reply must answer the command the parent sent: the parent
    checks its kind and step on receipt, with the sanitizers off too."""

    @pytest.mark.parametrize("wrong", ["step", "kind"])
    def test_mismatched_reply_raises(self, spec, monkeypatch, wrong):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        _skew_reply(monkeypatch, wrong)
        before = _shm_segments()
        with pytest.raises(CollectiveOrderError, match="crowd 1 replied"):
            _run(spec, 2, "vmc")
        assert _shm_segments() == before


class TestTeardown:
    """Only workers told to "stop" leave their loop on their own; after a
    crash or an error the survivors sit in ``recv``, so the pool
    terminates them without joining them first."""

    @pytest.mark.parametrize("path", ["crash", "reply"])
    def test_no_join_before_terminate_without_stop(self, spec, monkeypatch,
                                                   tmp_path, path):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        terminated, waited = set(), []
        join, terminate = BaseProcess.join, BaseProcess.terminate

        def recording_terminate(proc):
            terminated.add(proc.pid)
            return terminate(proc)

        def recording_join(proc, timeout=None):
            if proc.pid not in terminated:
                waited.append((proc.name, timeout))
            return join(proc, timeout)

        monkeypatch.setattr(BaseProcess, "terminate", recording_terminate)
        monkeypatch.setattr(BaseProcess, "join", recording_join)
        if path == "crash":
            monkeypatch.setattr(crowds, "MAX_RESPAWNS", 0)
            _crash_once(monkeypatch, str(tmp_path / "crashed"), 0, 1)
            raised = pytest.raises(RuntimeError, match="gave up")
        else:
            _skew_reply(monkeypatch, "step")
            raised = pytest.raises(CollectiveOrderError)
        with raised:
            _run(spec, 2, "vmc")
        assert terminated  # a live worker was torn down...
        assert waited == []  # ...and none was waited on first


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
    """Walker positions cross processes only through shared memory.  A
    generation's wire traffic is one ``("gen", step, e_trial)`` command
    and one ``("done", step, (accepts, rows))`` reply per worker, where
    ``rows`` holds E_L, the weight and the Hamiltonian components of the
    crowd's walkers: a generation grows with W by those float64 columns
    and by nothing the size of a walker's positions."""

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

    def test_walker_positions_never_ride_the_pipe(self, spec, monkeypatch):
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
        growth = per_gen[64][1] - per_gen[8][1]
        ncomp = len(BatchedHamiltonian.term_names(spec.with_nlpp))
        rows = (64 - 8) * (2 + ncomp) * 8
        positions = (64 - 8) * N * 3 * 8
        # pickled float64 rows are their raw bytes; the slack covers
        # the widths of pickled integers
        assert rows <= growth <= rows + 64, per_gen
        assert growth < positions, per_gen


class TestArgumentHandling:
    @pytest.mark.parametrize("with_nlpp", [False, True],
                             ids=["plain", "nlpp"])
    def test_parent_names_the_rows_as_a_crowd_orders_them(self, with_nlpp):
        """The parent labels each reply's component rows with its own
        name list; it must be the order a hosted crowd writes them in."""
        spec = JastrowSystemSpec(n=N, seed=7, with_nlpp=with_nlpp)
        drv = ParallelCrowdDriver(spec, WALKERS, SEED, workers=2)
        state = SharedWalkerState(WALKERS, N)
        state.R[...] = spec.initial_positions(WALKERS)
        crowd = crowds._host_crowd(spec, state, 1, 2, SEED, 0.3, 1)
        assert drv._ham_names == crowd.ham.names
        assert ("NonLocalECP" in drv._ham_names) == with_nlpp

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
        _scribble_at_stop(monkeypatch)
        with pytest.raises(ShmRaceError, match="state/local_energy"):
            _run(spec, 2, "vmc")
        assert _shm_segments() == []

    def test_unarmed_out_of_epoch_write_lands(self, spec, serial_vmc,
                                              monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        _scribble_at_stop(monkeypatch)
        kept = {}
        finalize = ParallelCrowdDriver._finalize

        def keep_block(drv, step):
            payloads = finalize(drv, step)  # every worker has replied
            kept["local_energy"] = np.array(drv._state.local_energy)
            return payloads

        monkeypatch.setattr(ParallelCrowdDriver, "_finalize", keep_block)
        # Sanitizer off: the injected write lands in the walker block and
        # the run completes.  This proves the armed detection above is
        # not a tautology.
        _, res, series = _run(spec, 2, "vmc")
        ref, ref_series = serial_vmc
        # a VMC block ends holding the last generation's E_L
        want = ref_series["LocalEnergy"][-WALKERS:].copy()
        want[0] += 1.0
        np.testing.assert_array_equal(kept["local_energy"], want)
        # the write came after the last generation was recorded
        np.testing.assert_array_equal(series["LocalEnergy"],
                                      ref_series["LocalEnergy"])
        assert res.energies == ref.energies


def _scribble_at_stop(monkeypatch):
    """Patch before the fork: worker 0 adds 1 to walker 0's E_L in the
    walker block as it handles "stop", before its "final" reply — after
    the parent sealed the block at the last generation's end and before
    it verifies the seal, so an out-of-epoch write."""
    hosted = []
    host_crowd = crowds._host_crowd

    def keep_block(spec, state, *args):
        hosted.append(state)
        return host_crowd(spec, state, *args)

    send = Connection.send

    def scribble(conn, msg):
        if (msg[0] == "final"
                and mp.current_process().name == "repro-crowd-0"):
            hosted[-1].local_energy[0] += 1.0
        return send(conn, msg)

    monkeypatch.setattr(crowds, "_host_crowd", keep_block)
    monkeypatch.setattr(Connection, "send", scribble)
