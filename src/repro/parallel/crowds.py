"""Process-pool crowds over shared-memory WalkerBatch blocks.

This is the repo's real-cores realization of the paper's hierarchical
parallelism: the population of W walkers is dealt round-robin into K
*crowds*, each driven by a :class:`~repro.batched.driver.BatchedCrowdDriver`
running in its own OS process.  The canonical walker state — positions,
weights, log Psi, E_L, age — lives in one
:class:`~repro.parallel.shm.SharedWalkerState` segment; every worker's
``WalkerBatch`` is built over *strided views* of that segment
(``arr[c::K]``), so an accepted Metropolis move is committed straight
into shared memory and **no walker position is ever pickled**
(``tests/parallel/test_crowds.py`` measures the wire bytes per
generation).  That segment is the only one the pool maps.

The control plane is a star of pipes, one per crowd, and every exchange
on it is one command out and one reply back.  Per generation the parent
sends ``("gen", step, e_trial)`` and each crowd answers ``("done", step,
(accepts, rows))``, where ``rows`` is one float64 block of its walkers'
E_L, pre-branch weights and Hamiltonian components; the parent checks
every reply's kind and step against the command it sent and raises
:class:`~repro.sanitizers.CollectiveOrderError` on a mismatch.  It then
interleaves the rows into walker order and reduces E_mixed **in walker
order over the full population** — the single-node form of the paper's
one E_T allreduce per generation (Alg. 1, L14), and the reason the
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
of the shared block.  The parent waits on the pipes still owed a reply
and on the worker processes' sentinels, so a dead worker wakes it at
once and a live but silent one is caught after ``SYNC_TIMEOUT``; the
parent then terminates the pool at once (only after "stop" does it wait
for workers to exit), restores the checkpoint, respawns all
crowds with ``start_generation = g`` (workers fast-forward their
walkers' RNG streams by replaying the per-generation draw pattern) and
re-issues generation ``g`` — so the post-crash energy trace is bitwise
equal to the crash-free one.  Incidents are counted in ``result.extra``
and the ``crowd_worker_respawns`` metrics counter; after
``MAX_RESPAWNS`` of them the run gives up.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Dict, List, Optional

import numpy as np

from repro.batched.driver import BatchedCrowdDriver
from repro.batched.system import BatchedHamiltonian, JastrowSystemSpec, \
    walker_streams
from repro.batched.walkerbatch import WalkerBatch
from repro.drivers.generation import STATE_FIELDS, CrowdLoop, Generation
from repro.drivers.result import QMCResult
from repro.sanitizers import (CollectiveOrderError, RngStreamSanitizer,
                              ShmRaceSanitizer, sanitizers_enabled)
from repro.metrics.registry import METRICS
from repro.parallel.shm import SharedWalkerState

__all__ = ["ParallelCrowdDriver"]

#: Seconds the parent waits on live but silent workers for their
#: replies before the pool counts as wedged and is respawned.
SYNC_TIMEOUT = 120.0

#: Pool incidents (a dead or wedged worker) a run survives; the next one
#: makes it give up.
MAX_RESPAWNS = 3

#: The reply kind each command (and the spawn, "ready") is owed.
_REPLY = {"ready": "ready", "gen": "done", "stop": "final"}


class _WorkerDown(RuntimeError):
    """A worker process died or stopped responding (internal signal)."""


def _host_crowd(spec: JastrowSystemSpec, state: SharedWalkerState,
                crowd: int, n_crowds: int, master_seed: int,
                timestep: float, start_generation: int) -> BatchedCrowdDriver:
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
        spec, len(ids), master_seed, timestep, batch=batch,
        rngs=[streams[w] for w in ids])
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


def _rows(gen: Generation, names: tuple) -> np.ndarray:
    """One crowd's generation as the one block its "done" reply carries:
    E_L, the pre-branch weight, then the Hamiltonian components in
    ``names`` order, one row each and one column per walker."""
    return np.stack((gen.energies, gen.weights,
                     *(gen.components[name] for name in names)))


@dataclass
class _WorkerConfig:
    """Everything a worker process needs, shipped once at spawn."""

    spec: JastrowSystemSpec
    master_seed: int
    total_walkers: int
    crowd: int
    n_crowds: int
    timestep: float
    start_generation: int
    state_name: str
    #: this crowd's end of its pipe to the parent
    conn: Connection
    metrics_enabled: bool


def _worker_main(cfg: _WorkerConfig) -> None:
    """Worker-process entry: attach the walker block, host this crowd,
    then answer each command from the parent with one reply until
    "stop"."""
    conn = cfg.conn
    state = None
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
        crowd = _host_crowd(
            cfg.spec, state, cfg.crowd, cfg.n_crowds, cfg.master_seed,
            cfg.timestep, cfg.start_generation)
        conn.send(("ready", cfg.start_generation, None))
        with METRICS.scope("Crowd"):
            while True:
                kind, step, e_trial = conn.recv()
                if kind == "stop":
                    break
                gen = crowd.run_generation(step, e_trial)
                conn.send(("done", step,
                           (int(np.sum(crowd.last_sweep_accepts)),
                            _rows(gen, crowd.ham.names))))
        conn.send(("final", step, {
            "crowd": cfg.crowd,
            "n_moves": crowd.n_moves,
            "n_accept": crowd.n_accept,
            "metrics": METRICS.snapshot() if METRICS.enabled else None,
        }))
    except (EOFError, OSError):
        failed = True  # the parent vanished or replaced this incarnation
    finally:
        if armed:
            RngStreamSanitizer.disarm()
        if state is not None:
            try:
                state.close()
            except Exception:  # pragma: no cover
                pass
        conn.close()
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
                 master_seed: int, workers: int = 0, timestep: float = 0.5):
        if nwalkers < 1:
            raise ValueError(f"need at least one walker, got {nwalkers}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.spec = spec
        self.nw = int(nwalkers)
        self.master_seed = int(master_seed)
        self.workers = min(int(workers), self.nw)
        self.tau = float(timestep)
        # fork where the platform has it: cheapest respawn; spawn also works
        self._ctx = mp.get_context(
            "fork" if "fork" in mp.get_all_start_methods() else None)
        self._ham_names = BatchedHamiltonian.term_names(spec.with_nlpp)
        self.respawns = 0
        #: crowd -> worker process, and crowd -> the parent's pipe end
        self._procs: Dict[int, mp.process.BaseProcess] = {}
        self._conns: Dict[int, Connection] = {}
        self._state = None
        self._race: Optional[ShmRaceSanitizer] = None
        #: generation-start copy of the shared block (crash recovery)
        self._snapshot: Optional[Dict[str, np.ndarray]] = None
        #: command rounds the parent ran (ready, each generation, stop)
        self._rounds = 0

    # -- the run -----------------------------------------------------------------
    def run(self, steps: int = 10, mode: str = "vmc", streams=None,
            resume=None) -> QMCResult:
        """Run ``steps`` generations; one fresh worker pool per call.

        ``streams`` (a :class:`repro.output.stream.StreamSet`) streams
        each generation's walker-ordered rows to the binary trace +
        online reblocker and checkpoints the full run every
        ``checkpoint_every`` generations.  ``resume`` (a ``kind ==
        "crowd"`` :class:`~repro.output.runstate.RunCheckpoint`, written
        by either crowd host) continues a checkpointed run bitwise: the
        shared walker block, branch RNG and feedback scalars are
        restored and every crowd respawns at ``start_generation = step +
        1`` — the same fast-forward path that makes within-run crash
        recovery bitwise, so the continued trace and error bars equal an
        uninterrupted run's; a checkpoint of another run (mode,
        population, seed, time step or model) is refused with a
        ValueError.
        """
        if self.workers == 0:
            t_setup = time.perf_counter()
            crowd = BatchedCrowdDriver(self.spec, self.nw, self.master_seed,
                                       self.tau)
            setup_s = time.perf_counter() - t_setup
            result = crowd.run(steps, mode, streams, resume)
            result.extra.update(workers=0.0, respawns=0.0,
                                setup_seconds=float(setup_s))
            return result
        self._branch_rng = None  # each pool run starts a fresh population
        start_gen = self._start(steps, mode, resume)
        self.respawns = 0
        self.n_moves = self.n_accept = 0
        self._rounds = 0
        t_setup = time.perf_counter()
        self._state = SharedWalkerState.create(self.nw, self.spec.n)
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
            worker_stats = self._finalize(start_gen + steps + 1)
        finally:
            self.close()
        result.extra.update(workers=float(self.workers),
                            respawns=float(self.respawns),
                            setup_seconds=float(setup_s),
                            comm_allreduces=float(self._rounds))
        if worker_stats:
            result.extra["worker_moves"] = float(
                sum(p["n_moves"] for p in worker_stats))
        return result

    # -- what K crowds over one block add to the generation loop -----------------
    def _walkers(self):
        return self._state, self._state.source

    def _advance(self, step: int, e_trial: Optional[float]) -> Generation:
        """One generation across the pool.  Each crowd's "done" reply
        carries its walkers' pre-reweight rows, interleaved here into
        walker order, so the recorded trace and online results are
        bitwise independent of the worker count."""
        self._snapshot = self._block_state()
        self._race_state("verify")
        rows = np.empty((2 + len(self._ham_names), self.nw))
        for crowd, (accepts, block) in enumerate(
                self._parallel_generation(step, e_trial)):
            self.n_accept += accepts
            rows[:, crowd::self.workers] = block
        self.n_moves += self.nw * self.spec.n
        energies, weights, *components = rows
        return Generation(energies, weights,
                          dict(zip(self._ham_names, components)))

    def _end_generation(self, step: int) -> None:
        self._race_state("seal")

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

    # -- process-pool management -------------------------------------------------
    def _spawn_pool(self, start_generation: int) -> None:
        """Spawn all K crowd processes, one pipe each, and take every
        crowd's "ready" reply (engines built, E_L initialized)."""
        for crowd in range(self.workers):
            parent_end, child_end = self._ctx.Pipe()
            cfg = _WorkerConfig(
                spec=self.spec, master_seed=self.master_seed,
                total_walkers=self.nw, crowd=crowd,
                n_crowds=self.workers, timestep=self.tau,
                start_generation=start_generation,
                state_name=self._state.name, conn=child_end,
                metrics_enabled=METRICS.enabled)
            proc = self._ctx.Process(
                target=_worker_main, args=(cfg,),
                name=f"repro-crowd-{crowd}", daemon=True)
            proc.start()
            child_end.close()  # parent drops its copy of the child end
            self._procs[crowd] = proc
            self._conns[crowd] = parent_end
        self._round("ready", start_generation)

    def _ensure_pool(self, step: int) -> None:
        while not self._procs:
            try:
                self._spawn_pool(step)
            except _WorkerDown as exc:
                self._handle_crash(exc)

    def _round(self, kind: str, step: int, arg=None) -> List:
        """One command round: send ``(kind, step, arg)`` to every crowd
        (nothing for "ready", which the spawn itself commands) and take
        one reply from each.  Returns the replies' payloads in crowd
        order.  A reply of the wrong kind or step raises
        :class:`CollectiveOrderError`; a dead worker, or one silent for
        ``SYNC_TIMEOUT`` seconds, raises ``_WorkerDown``."""
        self._rounds += 1
        if kind != "ready":
            for crowd, conn in self._conns.items():
                try:
                    conn.send((kind, step, arg))
                except OSError as exc:
                    raise _WorkerDown(
                        f"crowd {crowd}: pipe closed ({exc})") from exc
        want = (_REPLY[kind], step)
        owed = dict(self._conns)
        replies = {}
        deadline = time.monotonic() + SYNC_TIMEOUT
        while owed:
            sentinels = {self._procs[c].sentinel: c for c in owed}
            ready = wait(list(owed.values()) + list(sentinels),
                         max(0.0, deadline - time.monotonic()))
            if not ready:
                raise _WorkerDown(f"crowds {sorted(owed)} unresponsive "
                                  f"for {SYNC_TIMEOUT:g}s")
            woken = {c for c, conn in owed.items() if conn in ready}
            woken |= {sentinels[obj] for obj in ready if obj in sentinels}
            for crowd in sorted(woken):
                conn = owed.pop(crowd)
                try:
                    # a worker that replied and then exited still has
                    # its reply in the pipe
                    if not conn.poll():
                        raise EOFError
                    msg = conn.recv()
                except (EOFError, OSError) as exc:
                    raise _WorkerDown(f"crowd {crowd} died") from exc
                if msg[:2] != want:
                    raise CollectiveOrderError(
                        f"crowd {crowd} replied {msg[:2]!r} to the "
                        f"{kind!r} command of step {step}; expected "
                        f"{want!r}")
                replies[crowd] = msg[2]
        return [replies[c] for c in sorted(replies)]

    def _parallel_generation(self, step: int,
                             e_trial: Optional[float]) -> List:
        """One generation across the pool, surviving worker crashes: the
        "gen" command out, each crowd's ``(accepts, rows)`` back in crowd
        order."""
        while True:
            try:
                self._ensure_pool(step)
                return self._round("gen", step, e_trial)
            except _WorkerDown as exc:
                self._handle_crash(exc)

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
        if self.respawns > MAX_RESPAWNS:
            raise RuntimeError(
                f"gave up after {self.respawns - 1} respawns: {exc}")
        if self._snapshot is not None:
            self._restore_block(self._snapshot)

    def _terminate_pool(self, grace: float = 0.0) -> None:
        """Tear the pool down.  Only workers told to "stop" exit on their
        own, so only that path passes a ``grace`` to wait for them; after
        a crash or an error the survivors sit in ``recv`` and are
        terminated at once."""
        if grace:
            for proc in self._procs.values():
                proc.join(timeout=grace)
        for proc in self._procs.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
            if proc.is_alive():  # pragma: no cover - stuck in kernel
                proc.kill()
                proc.join(timeout=5.0)
        for conn in self._conns.values():
            conn.close()
        self._procs = {}
        self._conns = {}

    def _finalize(self, step: int) -> List[dict]:
        """Stop the pool with command ``("stop", step)`` and collect the
        one-shot final payloads (crowd counters + metrics snapshots),
        merging each worker's metrics tree into the parent registry in
        crowd order."""
        payloads = None
        while payloads is None:
            try:
                self._ensure_pool(step)
                payloads = self._round("stop", step)
            except _WorkerDown as exc:
                self._handle_crash(exc)
        for p in payloads:
            if p.get("metrics") and METRICS.enabled:
                METRICS.merge_snapshot(p["metrics"],
                                       label=f"crowd-{p['crowd']}")
        # every worker's final payload happened-before this point: the
        # state sealed after the last generation must be intact
        self._race_state("verify")
        self._terminate_pool(grace=0.5)
        return payloads

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Idempotent cleanup of the pool and the walker segment."""
        self._terminate_pool()
        if self._state is not None:
            self._state.close()
        self._state = None
        self._race = self._snapshot = None

    def __enter__(self) -> "ParallelCrowdDriver":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ParallelCrowdDriver(nw={self.nw}, workers={self.workers}, "
                f"seed={self.master_seed})")
