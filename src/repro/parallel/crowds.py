"""Process-pool crowds over shared-memory WalkerBatch blocks.

This is the repo's real-cores realization of the paper's hierarchical
parallelism: the population of W walkers is dealt round-robin into K
*crowds*, each driven by a :class:`~repro.batched.driver.BatchedCrowdDriver`
running in its own OS process.  The canonical walker state — positions,
weights, log Psi, E_L, age — lives in one
:class:`~repro.parallel.shm.SharedWalkerState` segment; every worker's
``WalkerBatch`` is built over *strided views* of that segment
(``arr[c::K]``), so an accepted Metropolis move is committed straight
into shared memory and **no walker state is ever pickled per step**
(``tests/parallel/test_shmcomm.py`` measures the wire bytes per
generation).

Per generation the parent (rank 0 of a :class:`SharedMemComm`) runs the
genuine Alg.-1 sync pattern: broadcast the step command with the trial
energy, gather each crowd's population/acceptance token, then reduce
E_mixed **in walker order over the full shared arrays** — the
shared-memory form of the E_T allreduce, and the reason collective
results are bitwise independent of the worker count.  DMC branching
(stochastic-reconfiguration comb, fixed population) is applied by the
parent directly to the shared block, which *is* the walker migration
between crowds: a clone landing in another crowd's slot is nothing more
than the parent rewriting that slot's slices.

Determinism contract (tested in ``tests/parallel/test_crowds.py``):
walker ``w`` owns RNG stream ``w`` of the master seed regardless of
which crowd or process hosts it, per-walker batched arithmetic is
independent of batch width (the differential gate), and all
numerically sensitive reductions happen parent-side over walker-ordered
arrays — so energy traces are **bitwise identical** for
``workers`` in {1, N} and for ``workers=0``, which is the in-process
:class:`~repro.batched.driver.BatchedCrowdDriver` itself.  Both write
and resume the one ``"crowd"`` checkpoint
(:class:`~repro.drivers.generation.CrowdLoop`).

Crash semantics: every generation starts with a parent-side checkpoint
of the shared block.  A dead or wedged worker is detected by liveness
polling inside the collectives; the parent then terminates the pool,
restores the checkpoint, respawns all crowds with
``start_generation = g`` (workers fast-forward their walkers' RNG
streams by replaying the per-generation draw pattern) and re-issues
generation ``g`` — so the post-crash energy trace is bitwise equal to
the crash-free one.  Incidents are counted in ``result.extra`` and the
``crowd_worker_respawns`` metrics counter.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.batched.driver import BatchedCrowdDriver
from repro.batched.system import BatchedHamiltonian, JastrowSystemSpec, \
    walker_streams
from repro.batched.walkerbatch import WalkerBatch
from repro.drivers.generation import STATE_FIELDS, CrowdLoop, Generation
from repro.drivers.result import QMCResult
from repro.sanitizers import (CollectiveOrderChecker,
                              RngStreamSanitizer, ShmRaceSanitizer,
                              sanitizers_enabled)
from repro.metrics.registry import METRICS
from repro.parallel.shm import SharedTraceBlock, SharedWalkerState
from repro.parallel.shmcomm import CommPeerLost, CommTimeout, SharedMemComm
from repro.splines.slab import SharedCoefSlab, SlabDescriptor

__all__ = ["ParallelCrowdDriver"]

#: Seconds a root-side collective waits on live but silent workers
#: before the pool counts as wedged and is respawned.
SYNC_TIMEOUT = 120.0


class _WorkerDown(RuntimeError):
    """A worker process died or stopped responding (internal signal)."""


def _host_crowd(spec: JastrowSystemSpec, state: SharedWalkerState,
                crowd: int, n_crowds: int, master_seed: int,
                timestep: float, use_drift: bool, start_generation: int,
                spo_slab=None) -> BatchedCrowdDriver:
    """Crowd ``crowd`` of ``n_crowds``: a batched driver over its strided
    views of the walker block, ready to run ``start_generation``; what
    every worker process hosts.  Set up exactly as the in-process
    ``BatchedCrowdDriver.run`` sets up crowd 0 of 1, which is what makes
    ``workers=0`` a bitwise reference for ``workers=N``.
    """
    # Round-robin deal: crowd c hosts global walkers w with
    # w % n_crowds == c, as strided views of the block.
    ids = np.arange(crowd, state.nw, n_crowds)
    batch = WalkerBatch.attach(*(getattr(state, name)[crowd::n_crowds]
                                 for name in STATE_FIELDS))
    # RNG-stream contract: walker w owns stream w of the master seed no
    # matter which crowd hosts it; a respawned crowd fast-forwards by
    # replaying the per-generation draw pattern of the sweep.
    streams = walker_streams(master_seed, state.nw)
    drv = BatchedCrowdDriver(
        spec, len(ids), master_seed, timestep, use_drift, batch=batch,
        rngs=[streams[w] for w in ids], spo_slab=spo_slab)
    drv.skip_generations(start_generation - 1)
    # After a DMC comb the crowd gathers its tables from the slots the
    # picks name instead of rebuilding them.
    drv.comb = (state.source[crowd::n_crowds], crowd, n_crowds)
    nlpp = getattr(drv.ham, "nlpp", None)
    if nlpp is not None:
        # Quadrature-rotation contract: rotations are keyed on the
        # *global* walker id and the master seed, so crowd membership
        # cannot perturb the NLPP trace.
        nlpp.set_rotations(nlpp.rotations, walker_ids=ids)
    # Set-up is one from-scratch pass: the constructor built the tables
    # and log Psi (leaving G/L), this adds E_L on top of them.
    drv.evaluate_energies(start_generation - 1)
    return drv


def _record_row(trace: SharedTraceBlock, row: int, cols: slice,
                gen: Generation, names: tuple) -> None:
    """Write one crowd's generation into its columns of the trace block
    (strided shared-memory columns — never pickled), components in
    ``names`` order."""
    trace.local_energy[row, cols] = gen.energies
    trace.weight[row, cols] = gen.weights
    for i, name in enumerate(names):
        trace.components[row, cols, i] = gen.components[name]


@dataclass
class _WorkerConfig:
    """Everything a worker process needs, shipped once at spawn."""

    spec: JastrowSystemSpec
    master_seed: int
    total_walkers: int
    crowd: int
    n_crowds: int
    timestep: float
    use_drift: bool
    steps: int
    start_generation: int
    state_name: str
    trace_name: str
    #: trace-block component columns: Hamiltonian terms, then the
    #: optional SPO diagnostic column
    component_names: tuple
    comm: SharedMemComm
    metrics_enabled: bool
    crash_generation: Optional[int] = None  # injected-fault hook (tests)
    #: injected-fault hook (tests): after running this generation, write
    #: into a *frozen* trace row out of band — the race the
    #: ShmRaceSanitizer quiescent-window checksums must catch
    race_generation: Optional[int] = None
    #: generations completed before this run (full-run resume);
    #: trace-block row 0 holds generation ``trace_base + 1``
    trace_base: int = 0
    #: shared read-only SPO coefficient slab to attach (descriptor only
    #: crosses the process boundary — the table itself never pickles)
    slab: Optional[SlabDescriptor] = None


def _worker_main(cfg: _WorkerConfig) -> None:
    """Worker-process entry: attach shared blocks, host this crowd,
    then serve generation commands until told to stop."""
    comm = cfg.comm
    state = None
    trace = None
    slab = None
    failed = False
    armed = False
    try:
        METRICS.enabled = bool(cfg.metrics_enabled)
        METRICS.reset()
        if sanitizers_enabled():
            # Fail fast on any global-RNG draw for this whole process:
            # every legitimate stream is a per-walker Generator.
            RngStreamSanitizer.arm()
            armed = True
        state = SharedWalkerState.attach(
            cfg.state_name, cfg.total_walkers, cfg.spec.n)
        trace = SharedTraceBlock.attach(
            cfg.trace_name, cfg.steps, cfg.total_walkers,
            len(cfg.component_names))
        if cfg.slab is not None:
            # Map the one shared coefficient table (read-only) instead
            # of rebuilding or copying it per worker.
            slab = SharedCoefSlab.attach(cfg.slab)
        crowd = _host_crowd(
            cfg.spec, state, cfg.crowd, cfg.n_crowds, cfg.master_seed,
            cfg.timestep, cfg.use_drift, cfg.start_generation,
            slab.as_spline() if slab is not None else None)
        cols = slice(cfg.crowd, None, cfg.n_crowds)
        comm.allgather(("ready", cfg.crowd, os.getpid()))
        with METRICS.scope("Crowd"):
            while True:
                cmd = comm.bcast()
                if cmd[0] == "stop":
                    break
                _, step, e_trial = cmd
                if (cfg.crash_generation is not None
                        and step >= cfg.crash_generation):
                    os._exit(23)  # injected fault: die without cleanup
                _record_row(trace, step - 1 - cfg.trace_base, cols,
                            crowd.run_generation(step, e_trial),
                            cfg.component_names)
                if cfg.race_generation == step and step >= 2:
                    # Injected fault, a deliberate race: scribble on a
                    # frozen history row outside its generation's commit —
                    # exactly the out-of-band mutation the parent's
                    # quiescent-window checksums exist to catch.
                    trace.local_energy[0, cfg.crowd] += 1.0
                comm.allgather(
                    ("done", int(np.sum(crowd.last_sweep_accepts))))
        collective_log = list(comm.order_log)
        payload = {
            "crowd": cfg.crowd,
            "n_moves": crowd.n_moves,
            "n_accept": crowd.n_accept,
            "metrics": METRICS.snapshot() if METRICS.enabled else None,
            "allreduce_count": comm.allreduce_count,
            "collective_log": collective_log,
        }
        comm.allgather(payload)
    except (CommTimeout, CommPeerLost, EOFError, OSError):
        failed = True  # the parent vanished or replaced this incarnation
    finally:
        if armed:
            RngStreamSanitizer.disarm()
        for obj in (slab, trace, state):
            if obj is not None:
                try:
                    obj.close()
                except Exception:  # pragma: no cover
                    pass
        try:
            comm.close()
        except Exception:  # pragma: no cover
            pass
    if failed:
        os._exit(1)


class ParallelCrowdDriver(CrowdLoop):
    """VMC/DMC over K crowd processes sharing one walker-state block.

    ``workers=K >= 1`` spawns K crowd processes over a shared-memory
    block; ``workers=0`` is the in-process crowd driver,
    :class:`~repro.batched.driver.BatchedCrowdDriver`, run as it stands.
    Either way the generation loop is
    :class:`~repro.drivers.generation.CrowdLoop`.  See the module
    docstring for the determinism and crash contracts.
    """

    def __init__(self, spec: JastrowSystemSpec, nwalkers: int,
                 master_seed: int, workers: int = 0, timestep: float = 0.5,
                 use_drift: bool = True, liveness_poll: float = 0.25,
                 max_respawns: int = 3,
                 crash_plan: Optional[Dict[int, int]] = None,
                 race_plan: Optional[Dict[int, int]] = None,
                 spo_slab=None):
        if nwalkers < 1:
            raise ValueError(f"need at least one walker, got {nwalkers}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.spec = spec
        self.nw = int(nwalkers)
        self.master_seed = int(master_seed)
        self.workers = min(int(workers), self.nw)
        self.tau = float(timestep)
        self.use_drift = use_drift
        self.liveness_poll = float(liveness_poll)
        self.max_respawns = int(max_respawns)
        #: optional SPO orbital table for the crowds' "SpoNorm" trace
        #: component (see BatchedCrowdDriver): a BSpline3D (promoted to
        #: one shared read-only SharedCoefSlab for the pool) or an
        #: already-built SharedCoefSlab.
        self.spo_slab = spo_slab
        self._slab: Optional[SharedCoefSlab] = None
        self._slab_owned = False
        #: {crowd: generation} — worker ``crowd`` (incarnation 0 only)
        #: calls ``os._exit`` on reaching that generation; test hook for
        #: the detect-and-respawn path.  Ignored when ``workers == 0``.
        self.crash_plan = dict(crash_plan) if crash_plan else None
        #: {crowd: generation} — worker ``crowd`` (incarnation 0 only)
        #: writes a frozen trace row out of band after that generation;
        #: test hook proving the ShmRaceSanitizer fires.  Only active
        #: when sanitizers are armed (the write itself always happens).
        self.race_plan = dict(race_plan) if race_plan else None
        # fork where the platform has it: cheapest respawn; spawn also works
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None)
        self._ham_names = tuple(BatchedHamiltonian.BASE_NAMES)
        if getattr(spec, "with_nlpp", False):
            self._ham_names += ("NonLocalECP",)
        if spo_slab is not None:
            self._ham_names += ("SpoNorm",)
        self.respawns = 0
        self._procs: Dict[int, mp.process.BaseProcess] = {}
        self._comm: Optional[SharedMemComm] = None
        self._state = None
        self._trace = None
        self._race: Optional[ShmRaceSanitizer] = None
        #: generation-start copy of the shared block (crash recovery)
        self._snapshot: Optional[Dict[str, np.ndarray]] = None
        self._comm_allreduces = 0

    # -- the run -----------------------------------------------------------------
    def run(self, steps: int = 10, mode: str = "vmc", streams=None,
            resume=None, abort_after: Optional[int] = None) -> QMCResult:
        """Run ``steps`` generations; one fresh worker pool per call.

        ``streams`` (a :class:`repro.output.stream.StreamSet`) streams
        each generation's walker-ordered trace row to the binary trace +
        online reblocker and checkpoints the full run every
        ``checkpoint_every`` generations.  ``resume`` (a ``kind ==
        "crowd"`` :class:`~repro.output.runstate.RunCheckpoint`, written
        by either crowd host) continues a checkpointed run bitwise: the
        shared walker block, branch RNG and feedback scalars are
        restored and every crowd respawns at ``start_generation = step +
        1`` — the same fast-forward path that makes within-run crash
        recovery bitwise, so the continued trace and error bars equal an
        uninterrupted run's; a checkpoint of another run (mode,
        population, seed, time step, drift or model) is refused with a
        ValueError.  ``abort_after`` is the pool's kill hook for the
        restart battery: the parent ``os._exit(17)`` s right after that
        generation's checkpoint, like a SIGKILL landing between
        generations (shared segments are left for the harness to reap).
        """
        if self.workers == 0:
            if abort_after is not None:
                raise ValueError("abort_after needs workers >= 1")
            spline = (self.spo_slab.as_spline()
                      if isinstance(self.spo_slab, SharedCoefSlab)
                      else self.spo_slab)
            t_setup = time.perf_counter()
            crowd = BatchedCrowdDriver(self.spec, self.nw, self.master_seed,
                                       self.tau, self.use_drift,
                                       spo_slab=spline)
            setup_s = time.perf_counter() - t_setup
            result = crowd.run(steps, mode, streams, resume)
            result.extra.update(workers=0.0, respawns=0.0,
                                setup_seconds=float(setup_s))
            return result
        self._branch_rng = None  # each pool run starts a fresh population
        start_gen = self._start(steps, mode, resume)
        self._steps = int(steps)
        self._trace_base = start_gen
        self._abort_after = abort_after
        self._incarnation = 0
        self.respawns = 0
        self.n_moves = self.n_accept = 0
        self._comm_allreduces = 0
        if self.spo_slab is not None and self._slab is None:
            # One physical table for the whole pool: promote once, ship
            # only the picklable descriptor to each crowd.
            self._slab_owned = not isinstance(self.spo_slab, SharedCoefSlab)
            self._slab = (SharedCoefSlab.promote(self.spo_slab)
                          if self._slab_owned else self.spo_slab)
        t_setup = time.perf_counter()
        self._state = SharedWalkerState.create(self.nw, self.spec.n)
        self._trace = SharedTraceBlock.create(steps, self.nw,
                                              len(self._ham_names))
        if resume is not None:
            self._restore_walkers(resume)
        else:
            self._state.R[...] = self.spec.initial_positions(self.nw)
        if sanitizers_enabled():
            self._race = ShmRaceSanitizer()
        try:
            self._ensure_pool(start_gen + 1)
            setup_s = time.perf_counter() - t_setup
            result = self._run_crowd(steps, streams, start_gen, resume,
                                     f"crowds x{self.workers}", "Parallel")
            worker_stats = self._finalize()
        finally:
            self.close()
        result.extra.update(workers=float(self.workers),
                            respawns=float(self.respawns),
                            setup_seconds=float(setup_s),
                            comm_allreduces=float(self._comm_allreduces))
        if worker_stats:
            result.extra["worker_moves"] = float(
                sum(p["n_moves"] for p in worker_stats))
        return result

    # -- what K crowds over one block add to the generation loop -----------------
    def _walkers(self):
        return self._state, self._state.source

    def _advance(self, step: int, e_trial: Optional[float]) -> Generation:
        """One generation across the pool; the pre-reweight rows come
        back through the trace block in walker order, so the recorded
        trace and online results are bitwise independent of the worker
        count."""
        self._snapshot = self._block_state()
        self._race_state("verify")
        self._race_history("seal", step)
        self.n_accept += self._parallel_generation(step, e_trial)
        self.n_moves += self.nw * self.spec.n
        self._race_history("verify", step)
        trace = self._trace
        row = step - 1 - self._trace_base
        return Generation(
            np.array(trace.local_energy[row]), np.array(trace.weight[row]),
            {name: np.array(trace.components[row, :, i])
             for i, name in enumerate(self._ham_names)})

    def _end_generation(self, step: int) -> None:
        self._race_state("seal")
        if self._abort_after is not None and step >= self._abort_after:
            # Restart-battery kill hook: die like a SIGKILL between
            # generations — checkpoint and trace are already durable; no
            # flush/close/unlink runs.  Workers are torn down first only
            # because they inherit every comm pipe fd at fork: orphans
            # would deadlock in recv() holding each other's write ends
            # open (they carry no durable state).
            self._terminate_pool()
            os._exit(17)

    # -- shm race quiescent windows (ShmRaceSanitizer, armed runs only) ----------
    def _race_state(self, op: str) -> None:
        """``seal`` opens the inter-generation window (the parent's
        commits — branch comb, weight resets — are done; nothing may
        write walker state until the next generation command),
        ``verify`` closes it."""
        if self._race is not None:
            for name in STATE_FIELDS:
                getattr(self._race, op)(f"state/{name}",
                                        getattr(self._state, name))

    def _race_history(self, op: str, step: int) -> None:
        """``seal`` the frozen trace history before workers write row
        ``step - 1``; ``verify`` it once every worker's done token has
        happened-before — so an out-of-band write to the history is
        detected deterministically, not probabilistically."""
        hist = step - 1 - self._trace_base
        if self._race is not None and hist > 0:
            for name in ("local_energy", "weight", "components"):
                getattr(self._race, op)(f"trace/{name}",
                                        getattr(self._trace, name)[:hist])

    # -- process-pool management -------------------------------------------------
    def _spawn_pool(self, start_generation: int) -> None:
        """Build a fresh communicator and spawn all K crowd processes;
        completes the ready barrier (engines built, E_L initialized)."""
        K = self.workers
        endpoints = SharedMemComm.world(K + 1, ctx=self._ctx)
        self._comm = endpoints[0]
        crash_plan = self.crash_plan if self._incarnation == 0 else None
        race_plan = self.race_plan if self._incarnation == 0 else None
        self._incarnation += 1
        for r in range(1, K + 1):
            crowd = r - 1
            cfg = _WorkerConfig(
                spec=self.spec, master_seed=self.master_seed,
                total_walkers=self.nw, crowd=crowd,
                n_crowds=K, timestep=self.tau, use_drift=self.use_drift,
                steps=self._steps,
                start_generation=start_generation,
                state_name=self._state.name, trace_name=self._trace.name,
                component_names=self._ham_names, comm=endpoints[r],
                metrics_enabled=METRICS.enabled,
                crash_generation=(crash_plan or {}).get(crowd),
                race_generation=(race_plan or {}).get(crowd),
                trace_base=self._trace_base,
                slab=(self._slab.descriptor
                      if self._slab is not None else None))
            proc = self._ctx.Process(
                target=_worker_main, args=(cfg,),
                name=f"repro-crowd-{crowd}", daemon=True)
            proc.start()
            endpoints[r].close()  # parent drops its copy of the child end
            self._procs[r] = proc
        self._sync(lambda t: self._comm.allgather(None, timeout=t))

    def _ensure_pool(self, step: int) -> None:
        while self._comm is None:
            try:
                self._spawn_pool(step)
            except _WorkerDown as exc:
                self._handle_crash(exc)

    def _parallel_generation(self, step: int,
                             e_trial: Optional[float]) -> int:
        """One generation across the pool, surviving worker crashes:
        command broadcast, crowd execution, done-token allgather."""
        while True:
            try:
                self._ensure_pool(step)
                self._sync(lambda t: self._comm.bcast(
                    ("gen", step, e_trial), timeout=t))
                stats = self._sync(lambda t: self._comm.allgather(
                    None, timeout=t))
                return sum(s[1] for s in stats if s is not None)
            except _WorkerDown as exc:
                self._handle_crash(exc)

    def _sync(self, op):
        """Run a root-side collective with liveness-aware polling: wait
        in short slices, checking worker processes between slices, so a
        dead worker surfaces in ~``liveness_poll`` seconds rather than
        after the full ``SYNC_TIMEOUT``."""
        deadline = time.monotonic() + SYNC_TIMEOUT
        call = op
        while True:
            try:
                return call(self.liveness_poll)
            except CommPeerLost as exc:
                raise _WorkerDown(str(exc)) from exc
            except CommTimeout as exc:
                dead = [r for r, p in self._procs.items()
                        if not p.is_alive()]
                if dead:
                    raise _WorkerDown(
                        f"worker ranks {dead} died "
                        f"(exitcodes {[self._procs[r].exitcode for r in dead]})"
                    ) from exc
                if time.monotonic() > deadline:
                    raise _WorkerDown(
                        f"ranks {exc.missing} unresponsive for "
                        f"{SYNC_TIMEOUT:.0f}s") from exc
                if self._comm is not None and self._comm.pending:
                    call = lambda t: self._comm.resume(timeout=t)

    def _handle_crash(self, exc: _WorkerDown) -> None:
        """Detect-and-respawn: count the incident, tear the pool down,
        re-deal the walkers from the generation-start checkpoint.  The
        next ``_ensure_pool`` respawns every crowd at the current
        generation (RNG streams fast-forwarded), so the rerun is bitwise
        identical to a crash-free run."""
        self.respawns += 1
        METRICS.count("crowd_worker_respawns")
        self._terminate_pool()
        if self._race is not None:
            # the restored checkpoint legitimately rewrites shared state
            self._race.clear()
        if self.respawns > self.max_respawns:
            raise RuntimeError(
                f"gave up after {self.respawns - 1} respawns: {exc}")
        if self._snapshot is not None:
            self._restore_block(self._snapshot)

    def _terminate_pool(self) -> None:
        for proc in self._procs.values():
            proc.join(timeout=0.5)  # grace for workers already exiting
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck in kernel
                proc.kill()
                proc.join(timeout=5.0)
        self._procs = {}
        if self._comm is not None:
            self._comm_allreduces += self._comm.allreduce_count
            self._comm.close()
            self._comm = None

    def _finalize(self) -> List[dict]:
        """Stop the pool and collect the one-shot final payloads (crowd
        counters + metrics snapshots), merging each worker's metrics tree
        into the parent registry in crowd order."""
        payloads = None
        while payloads is None:
            try:
                self._ensure_pool(self._trace_base + self._steps + 1)
                self._sync(lambda t: self._comm.bcast(("stop",), timeout=t))
                gathered = self._sync(lambda t: self._comm.allgather(
                    None, timeout=t))
                payloads = [p for p in gathered if p is not None]
            except _WorkerDown as exc:
                self._handle_crash(exc)
        for p in sorted(payloads, key=lambda d: d["crowd"]):
            if p.get("metrics") and METRICS.enabled:
                METRICS.merge_snapshot(p["metrics"],
                                       label=f"crowd-{p['crowd']}")
            self._comm_allreduces += p["allreduce_count"]
        # every worker's final payload happened-before this point: the
        # state sealed after the last generation must be intact
        self._race_state("verify")
        if sanitizers_enabled() and self.respawns == 0 \
                and len(payloads) == self.workers:
            # Cross-check the SPMD collective call sequences.  Skipped
            # after a respawn: a replacement incarnation's log starts
            # mid-run, so per-rank logs legitimately differ in length.
            checker = CollectiveOrderChecker()
            for p in payloads:
                if p.get("collective_log") is not None:
                    checker.add_sequence(p["crowd"], p["collective_log"])
            checker.verify()
        self._terminate_pool()
        return payloads

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Idempotent cleanup of the pool and the shared segments."""
        self._terminate_pool()
        for obj in (self._trace, self._state):
            if obj is not None:
                obj.close()
        if self._slab is not None and self._slab_owned:
            self._slab.close()
        self._slab_owned = False
        self._slab = self._trace = self._state = None
        self._race = self._snapshot = None

    def __enter__(self) -> "ParallelCrowdDriver":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ParallelCrowdDriver(nw={self.nw}, workers={self.workers}, "
                f"seed={self.master_seed})")
