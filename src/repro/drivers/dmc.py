"""Diffusion Monte Carlo driver (Alg. 1)."""

from __future__ import annotations

from typing import List

import numpy as np

from repro.drivers.base import QMCDriverBase
from repro.drivers.generation import DMCPolicy
from repro.drivers.result import QMCResult
from repro.particles.walker import Walker


class DMCDriver(QMCDriverBase):
    """DMC with weights, branching and trial-energy feedback.

    The reweight rule, age damping and E_T feedback are the shared
    :class:`~repro.drivers.generation.DMCPolicy`; this class adds the two
    ways a Walker list branches: the stochastic-rounding scheme (each
    walker's multiplicity is floor(weight + xi), capped to avoid
    population blow-up) and the fixed-population comb.
    """

    checkpoint_kind = "dmc"

    MAX_MULTIPLICITY = DMCPolicy.MAX_MULTIPLICITY
    FEEDBACK_GENERATIONS = DMCPolicy.FEEDBACK_GENERATIONS
    MAX_AGE = DMCPolicy.MAX_AGE

    #: branching scheme of the current run: "stochastic" or "comb"
    branching = "stochastic"

    def run(self, walkers: int | List[Walker] = 16, steps: int = 20,
            profile: bool = False, label: str = "dmc",
            target_population: int | None = None,
            branching: str = "stochastic",
            streams=None, resume=None) -> QMCResult:
        """``streams``/``resume`` follow the VMC driver's contract: stream
        per-generation rows (trace + online reblocker), checkpoint the
        full run state — including the trial-energy feedback scalars and
        the post-branch population — and continue bitwise from a
        :class:`~repro.output.runstate.RunCheckpoint`."""
        if branching not in ("stochastic", "comb"):
            raise ValueError(f"unknown branching scheme {branching!r}")
        start = self._begin(walkers, resume, "DMC")
        pop = self.population
        policy = DMCPolicy(
            self.tau, target_population if target_population else len(pop),
            float(np.mean([w.properties["local_energy"] for w in pop])))
        if resume is not None:
            policy.restore(resume.scalars)
            branching = resume.meta.get("branching", branching)
        self.branching = branching
        result = self._run_generations(
            steps, "DMC", "DMC", streams=streams, start=start, policy=policy,
            profile=label if profile else None)
        result.extra["final_population"] = len(self.population)
        return result

    def _checkpoint_state(self) -> dict:
        state = super()._checkpoint_state()
        state["meta"] = {"branching": self.branching}
        return state

    def _branch_population(self, policy: DMCPolicy) -> None:
        if self.branching == "comb":
            self.population = self._branch_comb(self.population,
                                                policy.target)
        else:
            self.population = self._branch(self.population)

    def _branch(self, pop: List[Walker]) -> List[Walker]:
        """Stochastic-rounding branching; resets surviving weights to ~1."""
        new_pop: List[Walker] = []
        for w in pop:
            m = int(w.weight + self.rng.uniform())
            m = min(m, self.MAX_MULTIPLICITY)
            if m <= 0:
                continue
            w.multiplicity = m
            w.weight = 1.0
            new_pop.append(w)
            for _ in range(m - 1):
                child = w.copy()
                child.age = 0
                new_pop.append(child)
        if not new_pop:
            # Population extinction guard: resurrect the last walker.
            survivor = pop[len(pop) // 2].copy()
            survivor.weight = 1.0
            new_pop.append(survivor)
        return new_pop

    def _branch_comb(self, pop: List[Walker], target: int) -> List[Walker]:
        """The comb over a Walker list: the first pick of an index keeps
        the walker, every further pick is an independent copy whose age
        restarts.  Surviving weights reset to 1."""
        picks, clone = DMCPolicy.comb_picks(
            [w.weight for w in pop], target,
            self.rng.uniform(0.0, 1.0 / target))
        new_pop: List[Walker] = []
        for idx, is_clone in zip(picks, clone):
            child = pop[idx]
            if is_clone:
                child = child.copy()
                child.age = 0
            child.weight = 1.0
            new_pop.append(child)
        return new_pop
