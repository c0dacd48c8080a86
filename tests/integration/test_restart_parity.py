"""Kill-and-restart parity battery — the streaming pipeline's gate.

The contract under test (docs/streaming_stats.md): a run killed after
generation G and resumed from its last checkpoint produces

* a **byte-identical** trace file, and
* **bit-identical** online error bars,

versus the same run left uninterrupted.  Asserted for the scalar VMC and
DMC drivers, for :class:`~repro.batched.driver.BatchedCrowdDriver` (VMC
with and without NLPP, and DMC) and for
:class:`~repro.parallel.crowds.ParallelCrowdDriver`
at workers in {0, 2} — the parallel kill is a real ``SIGKILL``-style
death (``os._exit`` mid-run in a forked child), so the resume path is
exercised against a genuinely torn-down process tree.  The two crowd
hosts write one checkpoint kind, ``"crowd"``: a checkpoint of either
resumes on the other.

Checkpoint cadence is a multiple of the trace flush cadence throughout,
so chunk boundaries align and byte comparison is meaningful.
"""

import contextlib
import glob
import multiprocessing as mp
import os

import numpy as np
import pytest

from repro.batched.driver import BatchedCrowdDriver
from repro.batched.system import JastrowSystemSpec
from repro.core.system import QmcSystem
from repro.core.version import CodeVersion
from repro.output.runstate import load_run_checkpoint
from repro.output.stream import StreamSet, TraceCorruptionError, TraceReader
from repro.parallel.crowds import ParallelCrowdDriver
from repro.precision.policy import FULL, MIXED

STEPS = 10
CKPT_EVERY = 4
FLUSH_EVERY = 2
KILL_AFTER = 7  # die after generation 7; last durable checkpoint is at 4


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


# ----------------------------------------------------------------------
# In-process drivers: kill simulated by abandoning the run mid-stream
# ----------------------------------------------------------------------

def _scalar_driver(mode, timestep=None, precision=FULL, **spec):
    """The driver of ``mode``; the keywords change the run parameters
    (``spec`` those of the batched model; ``precision`` only a
    per-walker driver's) from the battery's."""
    if mode.startswith("batched"):
        spec = JastrowSystemSpec(
            n=8, seed=7, **{"with_nlpp": mode == "batched-nlpp", **spec})
        return BatchedCrowdDriver(spec, 6, 11, timestep=timestep or 0.3)
    sys_ = QmcSystem.from_workload("Graphite", scale=0.125, seed=6,
                                   with_nlpp=False)
    parts = sys_.build(CodeVersion.CURRENT)
    if mode == "vmc":
        from repro.drivers.vmc import VMCDriver
        return VMCDriver(parts.electrons, parts.twf, parts.ham,
                         np.random.default_rng(99),
                         timestep=timestep or 0.3, precision=precision)
    from repro.drivers.dmc import DMCDriver
    return DMCDriver(parts.electrons, parts.twf, parts.ham,
                     np.random.default_rng(99), timestep=timestep or 0.02,
                     precision=precision)


def _run(mode, steps, streams, resume=None, drv=None):
    drv = drv or _scalar_driver(mode)
    if mode.startswith("batched"):  # the population is the driver's own
        return drv.run(steps, mode="dmc" if mode == "batched-dmc" else "vmc",
                       streams=streams, resume=resume)
    if resume is not None:
        return drv.run(steps=steps, streams=streams, resume=resume)
    return drv.run(walkers=3, steps=steps, streams=streams)


class TestScalarKillRestart:
    @pytest.mark.parametrize(
        "mode", ["vmc", "dmc", "batched", "batched-nlpp", "batched-dmc"])
    def test_restart_trace_bitwise_and_error_bars_exact(self, mode,
                                                        tmp_path):
        # Reference: uninterrupted run.
        full_trace = str(tmp_path / "full.trace")
        full = StreamSet(trace_path=full_trace, meta={"mode": mode},
                         flush_every=FLUSH_EVERY)
        with full:
            res_full = _run(mode, STEPS, full)
        # Killed run: checkpoint at 4, abandoned after generation 7.
        trace = str(tmp_path / "killed.trace")
        ckpt_path = str(tmp_path / "run.ckpt")
        killed = StreamSet(trace_path=trace, meta={"mode": mode},
                           flush_every=FLUSH_EVERY,
                           checkpoint_path=ckpt_path,
                           checkpoint_every=CKPT_EVERY)
        with killed:
            _run(mode, KILL_AFTER, killed)
        assert _read(trace) != _read(full_trace)  # 7 vs 10 generations
        # Restart: fresh driver + resumed streams continue to the end.
        ckpt = load_run_checkpoint(ckpt_path)
        assert ckpt.kind == ("crowd" if mode.startswith("batched")
                             else mode)
        assert ckpt.step == CKPT_EVERY
        resumed = StreamSet.resume(ckpt, trace_path=trace,
                                   flush_every=FLUSH_EVERY,
                                   checkpoint_path=ckpt_path,
                                   checkpoint_every=CKPT_EVERY)
        with resumed:
            res_b = _run(mode, STEPS - ckpt.step, resumed, resume=ckpt)
        assert _read(trace) == _read(full_trace)
        est_full = res_full.online.estimate("LocalEnergy")
        est_b = res_b.online.estimate("LocalEnergy")
        assert est_b == est_full  # exact, not approx
        assert np.array_equal(np.asarray(res_b.energies),
                              np.asarray(res_full.energies[ckpt.step:]))

    def test_wrong_kind_rejected(self, tmp_path):
        ckpt_path = str(tmp_path / "run.ckpt")
        streams = StreamSet(checkpoint_path=ckpt_path,
                            checkpoint_every=CKPT_EVERY)
        _scalar_driver("vmc").run(walkers=2, steps=CKPT_EVERY,
                                  streams=streams)
        ckpt = load_run_checkpoint(ckpt_path)
        with pytest.raises(ValueError, match="not a DMC run"):
            _scalar_driver("dmc").run(steps=2, resume=ckpt)

    def test_restart_refuses_corrupt_trace(self, tmp_path):
        trace = str(tmp_path / "t.trace")
        ckpt_path = str(tmp_path / "run.ckpt")
        streams = StreamSet(trace_path=trace, flush_every=FLUSH_EVERY,
                            checkpoint_path=ckpt_path,
                            checkpoint_every=CKPT_EVERY)
        with streams:
            _scalar_driver("vmc").run(walkers=3, steps=KILL_AFTER,
                                      streams=streams)
        with TraceReader(trace) as reader:
            header_bytes = reader.header_bytes
        data = bytearray(_read(trace))
        data[header_bytes + 25] ^= 0xFF  # damage inside chunk 0
        with open(trace, "wb") as fh:
            fh.write(bytes(data))
        ckpt = load_run_checkpoint(ckpt_path)
        with pytest.raises(TraceCorruptionError) as err:
            StreamSet.resume(ckpt, trace_path=trace,
                             flush_every=FLUSH_EVERY)
        assert err.value.chunk_index == 0


# ----------------------------------------------------------------------
# Parallel crowds: kill is a real mid-run process death (os._exit)
# ----------------------------------------------------------------------

N_ELECTRONS = 8
WALKERS = 6
SEED = 11


def _crowd_driver(workers, **spec):
    """The crowd host: ``workers=None`` is the in-process
    BatchedCrowdDriver, otherwise a ParallelCrowdDriver."""
    spec = JastrowSystemSpec(n=N_ELECTRONS, seed=7, **spec)
    if workers is None:
        return BatchedCrowdDriver(spec, WALKERS, SEED, timestep=0.3)
    return ParallelCrowdDriver(spec, WALKERS, SEED, workers=workers,
                               timestep=0.3)


def _streams(root, resume=None):
    """The battery's streams under ``root``: fresh, or resuming."""
    paths = {"trace_path": os.path.join(root, "trace.bin"),
             "flush_every": FLUSH_EVERY,
             "checkpoint_path": os.path.join(root, "run.ckpt"),
             "checkpoint_every": CKPT_EVERY}
    if resume is not None:
        return StreamSet.resume(resume, **paths)
    return StreamSet(meta={"battery": "restart"}, **paths)


def _parallel_run(root, workers, mode, steps=STEPS, resume=None):
    streams = _streams(root, resume)
    drv = _crowd_driver(workers)
    with (contextlib.nullcontext() if workers is None else drv), streams:
        res = drv.run(steps, mode=mode, streams=streams, resume=resume)
    return res, streams.trace_path, os.path.join(root, "run.ckpt")


def _abort_child(root, workers, mode):
    # Dies via os._exit(17) right after generation KILL_AFTER's branch:
    # no stream close, no driver close, no atexit — a hard kill.  The
    # pool's parent dies at the end of that generation, like a SIGKILL
    # landing between generations (shared segments are left for
    # _ReapShm); an in-process crowd runs KILL_AFTER generations and
    # dies without closing its streams, which leaves the same durable
    # state.
    if workers:
        end_generation = ParallelCrowdDriver._end_generation

        def kill_after(drv, step):
            end_generation(drv, step)
            if step >= KILL_AFTER:
                # Workers go first only because each inherits the
                # parent's ends of the pipes made before it at fork:
                # orphans would block in recv() holding each other's
                # pipes open (they carry no durable state).
                drv._terminate_pool()
                os._exit(17)

        # this forked child is the pool's parent: the patch is its own
        ParallelCrowdDriver._end_generation = kill_after
        _parallel_run(root, workers, mode)
        os._exit(0)  # the kill did not fire: the test sees exit code 0
    _crowd_driver(workers).run(KILL_AFTER, mode=mode, streams=_streams(root))
    os._exit(17)


class _ReapShm:
    """Remove /dev/shm segments a killed child could not clean up."""

    def __enter__(self):
        self.before = set(glob.glob("/dev/shm/repro-*"))
        return self

    def __exit__(self, *exc):
        for path in set(glob.glob("/dev/shm/repro-*")) - self.before:
            try:
                os.unlink(path)
            except OSError:
                pass


class TestResumeRefusesAnotherRun:
    """A checkpoint records the run's time step, drift and model (and a
    per-walker run its precision policy); resuming it as a different run
    is refused, naming the key.  Every run drifts now, so a no-drift run
    is a checkpoint of older code: one whose meta says so."""

    @pytest.mark.parametrize("kind, change, key", [
        ("crowd", {"timestep": 0.1}, "timestep"),
        ("crowd", {"use_drift": False}, "use_drift"),
        ("crowd", {"with_nlpp": True}, "spec"),
        ("crowd", {"aa_flavor": "soa"}, "spec"),
        ("vmc", {"timestep": 0.1}, "timestep"),
        ("vmc", {"use_drift": False}, "use_drift"),
        ("vmc", {"precision": MIXED}, "precision"),
        ("dmc", {"precision": MIXED}, "precision"),
    ], ids=lambda v: v if isinstance(v, str) else "-".join(v))
    def test_resume_of_another_run_rejected(self, kind, change, key,
                                            tmp_path):
        root = str(tmp_path)
        ckpt_path = os.path.join(root, "run.ckpt")
        change = dict(change)
        old_meta = {k: change.pop(k) for k in ("use_drift",) if k in change}

        def checkpoint():
            ckpt = load_run_checkpoint(ckpt_path)
            ckpt.meta.update(old_meta)
            return ckpt

        mismatch = pytest.raises(
            ValueError, match=f"checkpoint {key} .* do not match")
        if kind != "crowd":
            _run(kind, CKPT_EVERY, StreamSet(checkpoint_path=ckpt_path,
                                             checkpoint_every=CKPT_EVERY))
            with mismatch:
                _run(kind, 2, None, resume=checkpoint(),
                     drv=_scalar_driver(kind, **change))
            return
        with _ReapShm():
            _parallel_run(root, 0, "vmc", steps=CKPT_EVERY)
        run = {"timestep": 0.3}
        spec = {k: v for k, v in change.items() if k not in run}
        run.update((k, v) for k, v in change.items() if k in run)
        drv = ParallelCrowdDriver(
            JastrowSystemSpec(n=N_ELECTRONS, seed=7, **spec),
            WALKERS, SEED, workers=0, **run)
        with drv, mismatch:
            drv.run(2, mode="vmc", resume=checkpoint())


class TestParallelKillRestart:
    @pytest.mark.parametrize("workers", [0, 2])
    @pytest.mark.parametrize("mode", ["vmc", "dmc"])
    def test_restart_trace_bitwise_and_error_bars_exact(self, mode, workers,
                                                        tmp_path):
        a_root = str(tmp_path / "a")
        b_root = str(tmp_path / "b")
        os.makedirs(a_root)
        os.makedirs(b_root)
        with _ReapShm():
            res_a, trace_a, _ = _parallel_run(a_root, workers, mode)
            # Hard-kill a run mid-flight in a forked child.
            proc = mp.get_context("fork").Process(
                target=_abort_child, args=(b_root, workers, mode))
            proc.start()
            proc.join(timeout=300)
            assert proc.exitcode == 17
            ckpt = load_run_checkpoint(os.path.join(b_root, "run.ckpt"))
            assert ckpt.kind == "crowd"
            assert ckpt.step == CKPT_EVERY
            res_b, trace_b, _ = _parallel_run(
                b_root, workers, mode, steps=STEPS - ckpt.step, resume=ckpt)
        assert _read(trace_a) == _read(trace_b)
        est_a = res_a.online.estimate("LocalEnergy")
        est_b = res_b.online.estimate("LocalEnergy")
        assert est_b == est_a  # error bars exact to the last bit
        assert np.array_equal(np.asarray(res_b.energies),
                              np.asarray(res_a.energies[ckpt.step:]))

    def test_resume_meta_mismatch_rejected(self, tmp_path):
        root = str(tmp_path)
        with _ReapShm():
            _parallel_run(root, 0, "vmc", steps=CKPT_EVERY)
            ckpt = load_run_checkpoint(os.path.join(root, "run.ckpt"))
            spec = JastrowSystemSpec(n=N_ELECTRONS, seed=7)
            drv = ParallelCrowdDriver(spec, WALKERS + 2, SEED, workers=0,
                                      timestep=0.3)
            with drv, pytest.raises(ValueError, match="do not match"):
                drv.run(2, mode="vmc", resume=ckpt)

    def test_no_shm_leaks_after_battery(self):
        assert not glob.glob("/dev/shm/repro-*")


class TestOneCrowdKind:
    """Both crowd hosts write and resume one ``"crowd"`` checkpoint, so
    a run checkpointed by one continues bitwise on the other; the kinds
    the two hosts wrote before there was one are refused."""

    @pytest.mark.parametrize("mode", ["vmc", "dmc"])
    @pytest.mark.parametrize("first, then", [(None, 2), (2, None)],
                             ids=["batched-to-pool", "pool-to-batched"])
    def test_checkpoint_resumes_on_the_other_host(self, first, then, mode,
                                                  tmp_path):
        a_root = str(tmp_path / "a")
        b_root = str(tmp_path / "b")
        os.makedirs(a_root)
        os.makedirs(b_root)
        with _ReapShm():
            res_a, trace_a, _ = _parallel_run(a_root, first, mode)
            _parallel_run(b_root, first, mode, steps=KILL_AFTER)
            ckpt = load_run_checkpoint(os.path.join(b_root, "run.ckpt"))
            assert (ckpt.kind, ckpt.step) == ("crowd", CKPT_EVERY)
            res_b, trace_b, _ = _parallel_run(
                b_root, then, mode, steps=STEPS - ckpt.step, resume=ckpt)
        assert _read(trace_a) == _read(trace_b)
        assert (res_b.online.estimate("LocalEnergy")
                == res_a.online.estimate("LocalEnergy"))
        assert np.array_equal(np.asarray(res_b.energies),
                              np.asarray(res_a.energies[ckpt.step:]))

    def _checkpoint(self, root, mode="vmc"):
        ckpt_path = os.path.join(root, "run.ckpt")
        _crowd_driver(None).run(CKPT_EVERY, mode=mode, streams=StreamSet(
            checkpoint_path=ckpt_path, checkpoint_every=CKPT_EVERY))
        return load_run_checkpoint(ckpt_path)

    @pytest.mark.parametrize("host", [None, 2], ids=["batched", "pool"])
    def test_vmc_checkpoint_refused_as_dmc(self, host, tmp_path):
        ckpt = self._checkpoint(str(tmp_path))
        drv = _crowd_driver(host)
        with pytest.raises(ValueError, match="checkpoint mode 'vmc' and "
                                             "this run's 'dmc' do not match"):
            drv.run(2, mode="dmc", resume=ckpt)

    @pytest.mark.parametrize("kind", ["batched", "parallel"])
    @pytest.mark.parametrize("host", [None, 2], ids=["batched", "pool"])
    def test_old_kinds_refused(self, host, kind, tmp_path):
        ckpt = self._checkpoint(str(tmp_path), "dmc")
        ckpt.kind = kind
        drv = _crowd_driver(host)
        with pytest.raises(ValueError, match=f"checkpoint kind '{kind}' "
                                             "is not a crowd run"):
            drv.run(2, mode="dmc", resume=ckpt)
