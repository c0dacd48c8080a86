"""``BatchedCrowdDriver`` — one fused accept/reject step per electron.

Where the per-walker drivers (:class:`~repro.drivers.vmc.VMCDriver`,
:class:`~repro.drivers.dmc.DMCDriver`) loop
``load_walker/sweep/store_walker`` per walker, this driver moves electron
``k`` of *all* W walkers at once: one batched distance-row recompute, one
batched Jastrow ratio, one masked commit.  The Python-interpreter
overhead per Metropolis move is paid once per crowd instead of once per
walker — the walker-axis analogue of the paper's SoA argument, following
the batched QMCPACK drivers and QMCkl.

RNG-stream contract (see docs/batched_walkers.md): walker ``w`` owns
stream ``w`` and draws, per sweep, first its (n, 3) Gaussian block and
then its n uniforms — the identical call pattern the per-walker driver
makes, so with equal seeds both paths see equal random numbers and the
accept/reject sequences match bitwise.

One crowd advances one generation in :meth:`BatchedCrowdDriver.run_generation`
— the same call whether the crowd owns its walkers (``run``, VMC or DMC
in process) or hosts a strided slice of a
:class:`~repro.parallel.shm.SharedWalkerState` in a worker process of
:class:`~repro.parallel.crowds.ParallelCrowdDriver`.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.backend import active
from repro.batched.sanitize import BatchedSanitizerSuite
from repro.batched.sweep import SweepPlan, SweepWorkspace
from repro.batched.system import JastrowSystemSpec, walker_streams
from repro.batched.walkerbatch import WalkerBatch
from repro.drivers.generation import CrowdLoop, DMCPolicy, Generation
from repro.drivers.result import QMCResult
from repro.hamiltonian.nlpp import QuadratureRotations
from repro.memory.heap import keep_freed_heap
from repro.sanitizers import sanitizers_enabled
from repro.metrics.registry import METRICS


class BatchedCrowdDriver(CrowdLoop):
    """One crowd: a WalkerBatch advanced with per-walker RNG streams."""

    def __init__(self, spec: JastrowSystemSpec, nwalkers: int,
                 master_seed: int, timestep: float = 0.5,
                 batch: Optional[WalkerBatch] = None,
                 rngs: Optional[List[np.random.Generator]] = None):
        # per-call kernel temporaries: reuse freed heap, do not re-fault
        keep_freed_heap()
        self.spec = spec
        self.master_seed = int(master_seed)
        self.nw = int(nwalkers)
        self.n = spec.n
        self.tau = float(timestep)
        # A crowd hosting a subset of a larger population injects its
        # walkers' streams and a batch viewing shared storage; the
        # default standalone driver owns both (stream w of master_seed,
        # private canonical arrays).
        self.rngs = (rngs if rngs is not None
                     else walker_streams(master_seed, nwalkers))
        if len(self.rngs) != self.nw:
            raise ValueError(f"need {self.nw} RNG streams, "
                             f"got {len(self.rngs)}")
        self.batch = (batch if batch is not None
                      else WalkerBatch.from_positions(
                          spec.initial_positions(nwalkers)))
        if self.batch.nw != self.nw:
            raise ValueError(f"batch holds {self.batch.nw} walkers, "
                             f"expected {self.nw}")
        self.tables, self.components, self.ham = spec.build_batched(nwalkers)
        self._nlpp = getattr(self.ham, "nlpp", None)
        if self._nlpp is not None and self._nlpp.rotations is None:
            # Stateless quadrature-rotation streams keyed on the same
            # master seed as the walker RNGs; crowds hosting a subset of
            # a larger population re-key with their global walker ids
            # via nlpp.set_rotations(...).
            self._nlpp.set_rotations(QuadratureRotations(master_seed))
        #: per-walker grad/lap of log Psi: (W, n, 3) and (W, n)
        self.G = np.zeros((self.nw, self.n, 3))
        self.L = np.zeros((self.nw, self.n))
        self.n_accept = 0
        self.n_moves = 0
        #: (W,) accepted-move counts of the most recent sweep (DMC's
        #: age-based stuck-walker control reads this)
        self.last_sweep_accepts = np.zeros(self.nw, dtype=np.int64)
        self.sanitizers = (BatchedSanitizerSuite()
                           if sanitizers_enabled() else None)
        #: optional fused-step trace: list of (W,) bool masks, one per move
        self.move_log: Optional[List[np.ndarray]] = None
        #: an external writer (the DMC branch commit) rewrote the walker
        #: block after the last generation; resync before the next sweep
        self._stale = False
        #: where that writer took each slot's walker from: this crowd's
        #: view of ``SharedWalkerState.source``, plus the crowd's place
        #: in the round-robin deal — ``(source, crowd, n_crowds)``, set by
        #: the crowd host; on its own the driver is one crowd whose
        #: walkers stay in their slots
        self.comb = (np.arange(self.nw), 0, 1)
        # Fused-sweep state (docs/sweep_fusion.md): one workspace of
        # per-sweep/per-move scratch allocated here and reused for the
        # driver's whole lifetime, and one plan bundling everything a
        # sweep_run call needs.
        self._workspace = SweepWorkspace(self.nw, self.n)
        self._plan = SweepPlan(self.batch, self.tables, self.components,
                               self._workspace, tau=self.tau)
        self.resync_tables()
        self._evaluate_log()

    # -- wavefunction over components ---------------------------------------------
    def _evaluate_log(self, fresh: bool = True) -> None:
        """The wavefunction pass: G, L and ``batch.logpsi`` from the
        current tables, so log Psi always sits beside the ``R`` it
        describes, and the e-e Coulomb sum ``ham.evaluate`` reads next.

        J2 streams the AA rows (each computed once on the
        compute-on-the-fly table) and hands each to that sum.  ``fresh``
        (set-up, resume) rebuilds J1's carried arrays from its table;
        otherwise (measure, the NLPP post-branch step) J1 reads what it
        carries."""
        self.G[...] = 0.0
        self.L[...] = 0.0
        j2, *rest = self.components
        logpsi = np.zeros(self.nw)
        logpsi += j2.evaluate_log(self.batch, self.tables, self.G, self.L,
                                  on_row=self.ham.ee_row)
        for c in rest:
            evaluate = c.evaluate_log if fresh else c.measure_log
            logpsi += evaluate(self.batch, self.tables, self.G, self.L)
        self.batch.logpsi[...] = logpsi
        if self.sanitizers is not None:
            self.sanitizers.check_carried_j2(self.batch, self.tables,
                                             self.components)

    # -- the fused sweep -----------------------------------------------------------
    def sweep(self) -> int:
        """One PbyP pass: W walkers advance electron k together."""
        with METRICS.scope("sweep"):
            return self._sweep()

    def _sweep(self) -> int:
        """Fused sweep: one ``sweep_run`` kernel call for the whole
        PbyP pass (docs/sweep_fusion.md).

        The randoms are drawn host-side into the standing workspace with
        the per-walker call pattern of the RNG contract; the plan's
        ``move_log``/``sanitizers`` are re-synced because tests attach
        them to the driver after construction.  Bitwise-pinned against
        :func:`repro.batched.reference.loop_sweep` by the differential
        suite.
        """
        plan = self._plan
        plan.workspace.fill(self.rngs, plan.sqrt_tau)
        plan.move_log = self.move_log
        plan.sanitizers = self.sanitizers
        accepts, accepted_total = active().sweep_run(plan)
        self.last_sweep_accepts = np.asarray(accepts, dtype=np.int64)
        self.n_accept += accepted_total
        self.n_moves += self.n * self.nw
        return accepted_total

    # -- external-commit resync -----------------------------------------------------
    def resync_tables(self) -> None:
        """Rebuild the position-derived structures (Rsoa, distance
        tables) from the canonical ``batch.R`` alone: set-up and resume."""
        self.batch.sync_soa()
        for t in self.tables:
            with METRICS.scope(t.category):
                t.evaluate(self.batch)

    def gather_tables(self) -> None:
        """All a crowd owes the DMC branch commit, which rewrites
        positions behind the driver's back but carries
        ``logpsi``/``local_energy`` along with them: Rsoa from ``R``,
        and each table gathered from the slots the comb's picks name
        (a walker from another crowd costs a pair pass over its slot
        alone).  The crowd's ``source`` entries are reset to its own
        walker ids, so a generation with no comb gathers nothing.
        Components carrying per-electron state (J1) gather it the same
        way."""
        source, crowd, n_crowds = self.comb
        ids = np.arange(crowd, crowd + n_crowds * self.nw, n_crowds)
        src = np.where(source % n_crowds == crowd, source // n_crowds, -1)
        source[...] = ids
        self.batch.sync_soa()
        for t in self.tables:
            with METRICS.scope(t.category):
                t.gather(self.batch, src)
        for c in self.components:
            c.gather(self.tables, src)
        if self.sanitizers is not None:
            self.sanitizers.check_state(self.batch, self.tables,
                                        self.components)

    def refresh_from_positions(self, serial: int) -> None:
        """Recompute everything (Rsoa, tables, log Psi, E_L with its
        rotations keyed on ``serial``) from the canonical ``batch.R``
        alone: the resume path."""
        self.resync_tables()
        self._evaluate_log()
        self.evaluate_energies(serial)

    # -- measurement ----------------------------------------------------------------
    def measure(self) -> np.ndarray:
        """Settle the tables and evaluate E_L per walker — the batched
        ``store_walker``."""
        with METRICS.scope("measure"):
            return self._measure()

    def _measure(self) -> np.ndarray:
        for t in self.tables:
            with METRICS.scope(t.category):
                t.settle(self.batch)
        if self.sanitizers is not None:
            self.sanitizers.check_state(self.batch, self.tables,
                                        self.components)
        self._evaluate_log(fresh=False)
        el = self.ham.evaluate(self.batch, self.tables, self.G, self.L)
        self.batch.local_energy[...] = el
        return el

    # -- one generation ---------------------------------------------------------------
    def skip_generations(self, generations: int) -> None:
        """Fast-forward every walker stream by replaying the sweep's
        per-generation draw pattern (one (n, 3) Gaussian block, then n
        uniforms, per walker) — how a respawned or resumed crowd lands
        on the RNG position of an uninterrupted one."""
        sqrt_tau = math.sqrt(self.tau)
        for _ in range(generations):
            for rng in self.rngs:
                rng.normal(scale=sqrt_tau, size=(self.n, 3))
            for rng in self.rngs:
                rng.uniform(size=self.n)

    def key_rotations(self, serial: int) -> None:
        """Key the next Hamiltonian evaluation's NLPP quadrature
        rotations on ``serial``.  Convention on every path: generation
        g's measurement uses serial g, the setup (or post-branch
        refresh) evaluation before it g - 1 — a function of the
        generation alone, so respawned and resumed crowds agree with
        uninterrupted ones."""
        if self._nlpp is not None:
            # evaluate() bumps the serial before using it
            self._nlpp.set_rotations(self._nlpp.rotations, serial=serial - 1)

    def evaluate_energies(self, serial: int) -> None:
        """E_L from the G/L the last :meth:`_evaluate_log` pass left
        (set-up: the constructor's — nothing has moved since), through
        the ``ham.evaluate`` :meth:`measure` uses, so a respawn
        reproduces checkpointed values bitwise."""
        self.key_rotations(serial)
        self.batch.local_energy[...] = self.ham.evaluate(
            self.batch, self.tables, self.G, self.L)

    def run_generation(self, step: int, e_trial: Optional[float] = None
                       ) -> Generation:
        """Advance the crowd one generation: sweep, measure, then age
        the walkers (VMC, ``e_trial is None``) or reweight them against
        ``e_trial`` (DMC, Alg. 1 L13).  Returns the generation in walker
        order — the weights are the ones before the reweight, which the
        trace records."""
        batch = self.batch
        if self._stale:
            # The comb carried logpsi/local_energy with the
            # positions (bitwise what a recompute would give).
            self.gather_tables()
            self._stale = False
            if self._nlpp is not None:
                # NLPP quadrature rotations are keyed on the walker
                # *slot*, so a walker the comb moved has a different
                # E_L there than the one it carried along: recompute.
                self._evaluate_log(fresh=False)
                self.evaluate_energies(step - 1)
        if e_trial is not None:
            el_old = batch.local_energy.copy()
        self.sweep()
        self.key_rotations(step)
        el = self.measure()
        weights = batch.weight.copy()
        if e_trial is None:
            batch.age += 1
        else:
            DMCPolicy.reweight(batch.weight, batch.age,
                               self.last_sweep_accepts, el_old, el,
                               e_trial, self.tau)
            self._stale = True  # the branch commit follows
        comps = self.ham.last_components
        components = {name: comps[name] for name in self.ham.names}
        return Generation(el, weights, components)

    _advance = run_generation  # the GenerationLoop hook

    # -- the driver loop --------------------------------------------------------------
    def _walkers(self):
        return self.batch, self.comb[0]

    def run(self, steps: int = 10, mode: str = "vmc", streams=None,
            resume=None) -> QMCResult:
        """Run ``steps`` fused VMC or DMC (``mode``) generations over the
        whole crowd.

        ``streams`` (a :class:`repro.output.stream.StreamSet`) streams
        each generation's per-walker energies, weights and Hamiltonian
        components to the binary trace + online reblocker and
        checkpoints the run every ``checkpoint_every`` generations.
        ``resume`` (a ``kind == "crowd"``
        :class:`~repro.output.runstate.RunCheckpoint` of either crowd
        host, on a freshly constructed driver) continues such a run
        bitwise: the walker block, move counters, branch stream and DMC
        feedback are restored, the walker streams fast-forwarded, and
        generation numbering carries on; a checkpoint of another run
        (mode, population, seed, time step or model) is refused
        with a ValueError.  A further ``run`` on the same driver goes on
        from its walkers, walker streams and branch stream; generation
        numbering restarts at 1."""
        start = self._start(steps, mode, resume)
        if resume is not None:
            self._restore_walkers(resume)
            self.skip_generations(start)
            self.refresh_from_positions(start)
        elif mode == "dmc" and not self._stale:
            # The first reweight reads the walkers' set-up E_L (after a
            # previous DMC run, the E_L its comb carried); the
            # constructor left the G/L it needs.
            self.evaluate_energies(start)
        return self._run_crowd(steps, streams, start, resume,
                               "batched", "Batched")
