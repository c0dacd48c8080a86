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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.drivers.result import QMCResult
from repro.metrics.registry import METRICS
from repro.output.stream import StreamSet


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


class GenerationLoop:
    """The generation skeleton every driver's ``run`` goes through.

    A driver sets up (or restores) its population, then calls
    :meth:`_run_generations`.  It provides

    * ``_advance(step, e_trial) -> Generation`` — advance the whole
      population one generation, reweighting it against ``e_trial`` when
      that is not None (DMC);
    * a ``population`` list and ``n_moves``/``n_accept`` attributes —
      or ``_population_size()``/``_move_counts()`` overrides;
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

    def _move_counts(self) -> Tuple[int, int]:
        """(proposed, accepted) moves over the whole run."""
        return self.n_moves, self.n_accept

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
        moves, accepted = self._move_counts()
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
