"""Alg. 1 written once: the generation loop and the DMC policy.

Every driver runs the same loop — advance the population one generation,
record it, (DMC) branch and update the trial energy, checkpoint — and
differs only in *who advances the walkers* (per-walker load/sweep/store,
one batched crowd, K crowd processes) and *what the population looks
like* (Walker list or walker block); the table is in
docs/parallel_crowds.md.

:class:`GenerationLoop` is that loop.  :class:`DMCPolicy` is the
population control of Alg. 1 L13-L14 over plain weight arrays, so the
Walker-list and walker-block forms share one definition.
:class:`CrowdLoop` is what the two hosts of a walker block (the
in-process crowd and the process pool) add to it: one comb, one branch
stream and one ``"crowd"`` checkpoint.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.drivers.result import QMCResult
from repro.metrics.registry import METRICS
from repro.output.stream import StreamSet
from repro.sanitizers import RngStreamSanitizer, sanitizers_enabled


class Generation(NamedTuple):
    """One advanced generation as the trace records it, in walker order:
    E_L after the sweep, the weights (None = unit) and the Hamiltonian
    components by name."""

    energies: np.ndarray
    weights: Optional[np.ndarray] = None
    components: Optional[Dict[str, np.ndarray]] = None


@dataclass
class DMCPolicy:
    """Population control of Alg. 1 L13-L14 and its feedback state.

    The trial energy is fed back as
    ``E_T = E_best - ln(Nw / N_target) / (g * tau)``, so a population
    imbalance is worked off over about ``g`` generations regardless of
    the time step.
    """

    tau: float
    target: int
    e_trial: float
    e_best: Optional[float] = None  # starts at e_trial

    #: hard cap on children per walker per generation (stochastic rounding)
    MAX_MULTIPLICITY = 2
    #: generations over which the feedback restores the target population
    FEEDBACK_GENERATIONS = 5.0
    #: generations without a single accepted move before a walker is
    #: considered stuck and its branching weight is damped (QMCPACK's
    #: age-based persistent-walker control)
    MAX_AGE = 5

    def __post_init__(self) -> None:
        if self.e_best is None:
            self.e_best = self.e_trial

    @classmethod
    def reweight(cls, weight: np.ndarray, age: np.ndarray,
                 accepted: np.ndarray, el_old: np.ndarray,
                 el_new: np.ndarray, e_trial: float, tau: float) -> None:
        """Alg. 1 L13 in place over (nw,) arrays: the symmetric-rule
        growth estimator, then the age rule — a walker whose sweep
        accepted nothing grows old, and a persistent one has its weight
        damped so it dies out instead of multiplying a pathological
        configuration."""
        age[...] = np.where(accepted == 0, age + 1, 0)
        weight *= np.exp(-tau * (0.5 * (el_old + el_new) - e_trial))
        aged = age > cls.MAX_AGE
        if np.any(aged):
            weight[aged] = np.minimum(weight[aged], 0.5)

    @staticmethod
    def mixed_energy(weights: np.ndarray, energies: np.ndarray) -> float:
        """Weighted mean of E_L; an extinct population (zero total
        weight) falls back to the plain mean."""
        wsum = float(np.sum(weights))
        if wsum > 0.0:
            return float(np.sum(weights * energies) / wsum)
        return float(np.mean(energies))

    def feedback(self, e_mixed: float, population: int) -> None:
        """Alg. 1 L14.  E_best tracks the mixed estimator closely: with
        a drifting E_L during equilibration a heavily-smoothed E_best
        starves the population."""
        self.e_best = 0.25 * self.e_best + 0.75 * e_mixed
        feedback = 1.0 / (self.FEEDBACK_GENERATIONS * self.tau)
        self.e_trial = self.e_best - feedback * math.log(
            max(population, 1) / self.target)

    @staticmethod
    def comb_picks(weights: np.ndarray, target: int,
                   u0: float) -> Tuple[np.ndarray, np.ndarray]:
        """Stochastic reconfiguration ('comb'): systematic resampling of
        exactly ``target`` walkers with probabilities proportional to
        their weights, from one uniform ``u0`` in ``[0, 1/target)`` — the
        fixed-population scheme of several production codes.

        Returns ``(picks, clone)``: the source index of every survivor,
        and which survivors repeat an index already picked (their
        stuck-walker clock restarts).  Zero total weight combs as if all
        weights were equal."""
        weights = np.asarray(weights, dtype=np.float64)
        total = float(np.sum(weights))
        if total <= 0.0:
            weights = np.ones_like(weights)
            total = float(weights.size)
        cum = np.cumsum(weights) / total
        points = u0 + np.arange(target) / target
        picks = np.minimum(np.searchsorted(cum, points), weights.size - 1)
        clone = np.ones(target, dtype=bool)
        clone[np.unique(picks, return_index=True)[1]] = False
        return picks, clone

    def scalars(self) -> Dict[str, float]:
        """The feedback state a checkpoint carries."""
        return {"e_trial": float(self.e_trial), "e_best": float(self.e_best),
                "target": float(self.target)}

    def restore(self, scalars: Dict[str, float]) -> None:
        self.e_trial = float(scalars["e_trial"])
        self.e_best = float(scalars["e_best"])
        self.target = int(scalars.get("target", self.target))


#: cap on one move's drift displacement, in units of sqrt(tau): the one
#: value both stacks' drift limiters read, as the bitwise
#: per-walker/batched differential requires
DRIFT_CAP = 2.0

#: per-walker fields of a walker block (a ``WalkerBatch`` or a
#: ``SharedWalkerState``), in layout order — what a crowd checkpoint carries
STATE_FIELDS = ("R", "weight", "logpsi", "local_energy", "age")


def resample(block, source: np.ndarray, picks: np.ndarray,
             clone: np.ndarray) -> None:
    """Apply comb picks (:meth:`DMCPolicy.comb_picks`) to a walker block
    by rewriting slots: slot i takes walker ``picks[i]``, weights reset
    to 1, clones restart the stuck-walker clock.  ``logpsi`` and
    ``local_energy`` travel with the positions they describe, and
    ``source`` records the picks, so a crowd only gathers its distance
    tables afterwards (``BatchedCrowdDriver.gather_tables``).  On a
    shared block this *is* the inter-crowd walker migration (a pick
    landing in another crowd's slot)."""
    source[...] = picks
    age = block.age[picks]
    age[clone] = 0
    block.R[...] = block.R[picks]
    block.logpsi[...] = block.logpsi[picks]
    block.local_energy[...] = block.local_energy[picks]
    block.age[...] = age
    block.weight[...] = 1.0


class GenerationLoop:
    """The generation skeleton every driver's ``run`` goes through.

    A driver sets up (or restores) its population, then calls
    :meth:`_run_generations`.  It provides

    * ``_advance(step, e_trial) -> Generation`` — advance the whole
      population one generation, reweighting it against ``e_trial`` when
      that is not None (DMC);
    * ``n_moves``/``n_accept`` attributes and a ``population`` list —
      or a ``_population_size()`` override;
    * to run DMC, ``_branch_population(policy)`` — and ``_mixed_energy``
      when the branch weights are not the recorded ones;
    * to be resumable, ``checkpoint_kind``, ``_run_meta()`` — the run
      parameters a checkpoint records and a resume must match — and
      ``_checkpoint_state()`` — the ``RunCheckpoint`` fields only the
      driver knows: rng_states, scalars, any further meta and the
      population (walkers or shared_state).

    Every generation's rows have one consumer, the run's
    :class:`~repro.output.stream.StreamSet`: the trace and the online
    statistics ``result.online`` reports.
    """

    #: ``RunCheckpoint.kind`` this driver writes and accepts; None for a
    #: driver that cannot be resumed (its checkpoint cadence is ignored)
    checkpoint_kind: Optional[str] = None

    def _population_size(self) -> int:
        return len(self.population)

    def _mixed_energy(self, policy: DMCPolicy, gen: Generation) -> float:
        return policy.mixed_energy(gen.weights, gen.energies)

    def _end_generation(self, step: int) -> None:
        """Called last in every generation, after any checkpoint."""

    def _run_meta(self) -> dict:
        """The run parameters a checkpoint records and a resume must
        match (JSON values)."""
        return {}

    def _resume_step(self, resume, label: str) -> int:
        """Generations a checkpoint already holds (0 without one), after
        checking its kind and that its ``meta`` records this run's
        parameters (:meth:`_run_meta`)."""
        if resume is None:
            return 0
        if resume.kind != self.checkpoint_kind:
            raise ValueError(
                f"checkpoint kind {resume.kind!r} is not a {label} run")
        for key, value in self._run_meta().items():
            if resume.meta.get(key) != value:
                raise ValueError(
                    f"checkpoint {key} {resume.meta.get(key)!r} and this "
                    f"run's {value!r} do not match")
        return int(resume.step)

    def _run_generations(self, steps: int, method: str,
                         scope: str, streams=None, start: int = 0,
                         policy: Optional[DMCPolicy] = None,
                         profile: Optional[str] = None) -> QMCResult:
        """Run generations ``start + 1 .. start + steps`` (Alg. 1).

        ``streams`` (a :class:`repro.output.stream.StreamSet`; an
        in-memory one when None) gets each generation's walker-ordered
        rows and sets the checkpoint cadence; ``policy`` turns the
        branch + E_T update on; ``profile`` labels a hot-spot profile of
        the run."""
        if streams is None:
            streams = StreamSet()
        t0 = time.perf_counter()
        result = QMCResult(method=method, steps=steps)
        with (METRICS.scope(scope) if profile is None
              else METRICS.profile_run(scope, profile)) as run:
            for step in range(start + 1, start + steps + 1):
                gen = self._advance(
                    step, None if policy is None else policy.e_trial)
                # Pre-branch values in walker order.
                streams.record(step, *gen)
                if policy is None:
                    result.energies.append(float(np.mean(gen.energies)))
                else:
                    e_mixed = self._mixed_energy(policy, gen)
                    result.energies.append(e_mixed)
                    with METRICS.scope("branch"):
                        self._branch_population(policy)
                    policy.feedback(e_mixed, self._population_size())
                    result.trial_energies.append(policy.e_trial)
                result.populations.append(self._population_size())
                if (self.checkpoint_kind is not None
                        and streams.want_checkpoint(step)):
                    # Post-branch population, post-draw RNG and updated
                    # feedback scalars: a resume continues at step + 1.
                    self._save_checkpoint(streams, step, policy)
                self._end_generation(step)
        result.elapsed = time.perf_counter() - t0
        moves, accepted = self.n_moves, self.n_accept
        result.acceptance = accepted / moves if moves else 0.0
        result.online = streams.online
        result.extra["moves"] = float(moves)
        result.extra["accepted"] = float(accepted)
        if profile is not None:
            result.profile = run
        return result

    def _save_checkpoint(self, streams, step: int,
                         policy: Optional[DMCPolicy]) -> None:
        """Durable end-of-generation snapshot (atomic; see runstate)."""
        from repro.output.runstate import RunCheckpoint, save_run_checkpoint
        state = self._checkpoint_state()
        if policy is not None:
            state["scalars"].update(policy.scalars())
        state["meta"] = {**self._run_meta(), **state.get("meta", {})}
        save_run_checkpoint(streams.checkpoint_path, RunCheckpoint(
            kind=self.checkpoint_kind, step=step,
            online_state=streams.online.state_dict(),
            trace_position=streams.trace_position.as_array(),
            **state))


class CrowdLoop(GenerationLoop):
    """The generation loop over one walker block of ``nw`` walkers.

    Both hosts — :class:`~repro.batched.driver.BatchedCrowdDriver` (the
    block is its own ``WalkerBatch``) and
    :class:`~repro.parallel.crowds.ParallelCrowdDriver` (a shared
    ``SharedWalkerState``) — set ``spec``, ``nw``, ``master_seed`` and
    ``tau``, keep ``n_moves``/``n_accept`` and provide
    ``_walkers() -> (block, source)``: the walker block
    (:data:`STATE_FIELDS`) and where the last comb took each slot's
    walker from.  Everything else a crowd run owes the loop is here
    once: the mode check, the branch stream, the comb on the block, and
    the ``"crowd"`` checkpoint, which either host writes and resumes.
    """

    checkpoint_kind = "crowd"
    _branch_rng: Optional[np.random.Generator] = None

    def _start(self, steps: int, mode: str, resume) -> int:
        """Check the run's arguments and ``resume`` (see
        :meth:`_resume_step`) and start the branch stream: the stream
        after the W walker streams of the master seed, at its
        checkpointed position on a resume.  A host that ran before keeps
        its stream where the last run left it.  Returns the generations
        the checkpoint already holds."""
        if mode not in ("vmc", "dmc"):
            raise ValueError(f"unknown mode {mode!r}")
        if steps < 1:
            raise ValueError(f"need at least one step, got {steps}")
        self._mode = mode
        start = self._resume_step(resume, "crowd")
        if self._branch_rng is None:
            seq = np.random.SeedSequence(self.master_seed).spawn(self.nw + 1)
            self._branch_rng = np.random.default_rng(seq[self.nw])
        if resume is not None:
            self._branch_rng.bit_generator.state = resume.rng_states["branch"]
        return start

    def _block_state(self) -> Dict[str, np.ndarray]:
        """A private copy of the walker block: a checkpoint's payload,
        and the pool's generation-start crash snapshot."""
        block, _ = self._walkers()
        return {name: np.array(getattr(block, name))
                for name in STATE_FIELDS}

    def _restore_block(self, state: Dict[str, np.ndarray]) -> None:
        """Overwrite the walker block from :meth:`_block_state` output;
        every crowd then rebuilds from ``R``, so ``source`` goes back to
        identity."""
        block, source = self._walkers()
        for name in STATE_FIELDS:
            getattr(block, name)[...] = state[name]
        source[...] = np.arange(self.nw)

    def _restore_walkers(self, resume) -> None:
        """The walker block and move counters of a checkpoint."""
        self._restore_block(resume.shared_state)
        self.n_accept = int(resume.scalars["n_accept"])
        self.n_moves = int(resume.scalars["n_moves"])

    def _run_crowd(self, steps: int, streams, start: int, resume,
                   host: str, scope: str) -> QMCResult:
        """The generation loop of this run: method ``"MODE(host)"``,
        metrics scope ``scope + "MODE"``.  DMC starts its policy from
        the block's E_L (restored from ``resume`` if given); the comb
        holds the population at W, so the feedback term vanishes and E_T
        tracks E_best.  Armed sanitizers make every global-RNG draw fail
        fast for the whole loop: a legitimate draw comes from a walker
        or branch stream."""
        policy = None
        if self._mode == "dmc":
            block, _ = self._walkers()
            policy = DMCPolicy(self.tau, self.nw,
                               float(np.mean(block.local_energy)))
            if resume is not None:
                policy.restore(resume.scalars)
        mode = self._mode.upper()
        with (RngStreamSanitizer() if sanitizers_enabled()
              else contextlib.nullcontext()):
            return self._run_generations(
                steps, f"{mode}({host})", scope + mode,
                streams=streams, start=start, policy=policy)

    def _mixed_energy(self, policy: DMCPolicy, gen: Generation) -> float:
        """E_T sync (Alg. 1, L14): the reweighted block in walker order."""
        return policy.mixed_energy(self._walkers()[0].weight, gen.energies)

    def _branch_population(self, policy: DMCPolicy) -> None:
        """The comb over the block: exactly W survivors."""
        block, source = self._walkers()
        picks, clone = policy.comb_picks(
            block.weight, self.nw,
            self._branch_rng.uniform(0.0, 1.0 / self.nw))
        resample(block, source, picks, clone)

    def _population_size(self) -> int:
        return self.nw

    def _checkpoint_state(self) -> dict:
        """The walker block (post-branch), the branch stream and the move
        counters.  Walker streams are *not* stored: every crowd of a
        resumed run fast-forwards fresh ones, like a respawned one."""
        return {"rng_states": {"branch": self._branch_rng.bit_generator.state},
                "scalars": {"n_accept": float(self.n_accept),
                            "n_moves": float(self.n_moves)},
                "shared_state": self._block_state()}

    def _run_meta(self) -> dict:
        return {"mode": self._mode, "nwalkers": self.nw,
                "seed": self.master_seed, "timestep": self.tau,
                # every run drifts; the key refuses older no-drift runs
                "use_drift": True,
                "spec": self.spec.checkpoint_key()}
