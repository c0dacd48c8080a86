"""Distributed DMC: the full multi-rank algorithm over SimComm.

This is Alg. 1 with its communication pattern made explicit — what an
MPI-parallel QMCPACK run does every generation:

1. each rank sweeps its local walkers (drift-diffusion + branching
   weights) on its own compute clones;
2. one **allreduce** combines the weighted energy sums into the global
   mixed estimator and the trial energy E_T;
3. each rank branches locally;
4. an **allgather** of population counts feeds the load balancer, and
   surplus walkers travel **rank-to-rank as serialized messages**
   (positions + properties + anonymous buffer), with every byte counted.

Ranks live in one process (deterministic, testable); the communication
volume and pattern match the real thing — the paper's point that the
transformation leaves communications untouched is directly checkable
here (Ref and Current runs produce identical message *counts*, different
message *sizes*).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.version import CodeVersion
from repro.drivers.crowd import CloneDrivers
from repro.drivers.dmc import DMCDriver
from repro.drivers.generation import DMCPolicy, Generation, advance_walkers
from repro.drivers.result import QMCResult
from repro.parallel.balancer import WalkerLoadBalancer
from repro.parallel.simcomm import SimComm
from repro.particles.walker import Walker


@dataclass
class DistributedStats:
    """Communication accounting for a distributed run."""

    allreduces: int = 0
    messages: int = 0
    bytes: float = 0.0
    migrated_walkers: int = 0
    per_generation_imbalance: List[int] = field(default_factory=list)


class DistributedDMCDriver(CloneDrivers):
    """DMC over ``ranks`` in-process MPI ranks, each with its own clones.

    The generation loop, reweight/age rule and E_T feedback are the
    shared ones (:mod:`repro.drivers.generation`); this class adds what
    ranks add — the allreduce behind the mixed estimator, per-rank
    branching and the walker exchange, with every message counted."""

    def __init__(self, parts, ranks: int, rng: np.random.Generator,
                 timestep: float = 0.005, use_drift: bool = True,
                 version=None):
        if ranks < 1:
            raise ValueError("need at least one rank")
        self.ranks = ranks
        self.comm = SimComm(ranks)
        super().__init__(DMCDriver, parts, ranks, rng, timestep, use_drift,
                         version or CodeVersion.CURRENT)
        self.tau = timestep
        self.stats = DistributedStats()
        #: per-rank Walker lists
        self.pops: List[List[Walker]] = []

    def run(self, walkers_per_rank: int = 4, steps: int = 5) -> QMCResult:
        self.pops = [d.create_walkers(walkers_per_rank)
                     for d in self.drivers]
        # Initial E_T from a real allreduce of local sums.
        sums = [sum(w.properties["local_energy"] for w in pop)
                for pop in self.pops]
        counts = [float(len(pop)) for pop in self.pops]
        tot_e = self.comm.allreduce(sums)[0]
        tot_n = self.comm.allreduce(counts)[0]
        self.stats.allreduces += 2
        policy = DMCPolicy(self.tau, walkers_per_rank * self.ranks,
                           tot_e / tot_n)
        result = self._run_generations(steps, "DMC(distributed)",
                                       "DistributedDMC", policy=policy)
        result.extra["final_population"] = self._population_size()
        result.extra["migrated_walkers"] = self.stats.migrated_walkers
        result.extra["comm_bytes"] = self.stats.bytes
        return result

    # -- what ranks add to the shared generation loop -------------------------------
    def _population_size(self) -> int:
        return sum(len(pop) for pop in self.pops)

    def _advance(self, step: int, e_trial: float) -> Generation:
        """Local sweeps + reweighting on every rank, rank-major."""
        owners = [d for d, pop in zip(self.drivers, self.pops) for _ in pop]
        walkers = [w for pop in self.pops for w in pop]
        return advance_walkers(walkers, owners.__getitem__, step, e_trial)

    def _mixed_energy(self, policy: DMCPolicy, gen: Generation) -> float:
        """One allreduce of the packed per-rank [sum wE, sum w] pair, as
        production codes do."""
        bounds = np.cumsum([len(pop) for pop in self.pops])[:-1]
        packed = [np.array([np.sum(w * e), np.sum(w)])
                  for w, e in zip(np.split(gen.weights, bounds),
                                  np.split(gen.energies, bounds))]
        tot = self.comm.allreduce_array(packed)[0]
        self.stats.allreduces += 1
        return float(tot[0] / tot[1]) if tot[1] > 0 else policy.e_best

    def _branch_population(self, policy: DMCPolicy) -> None:
        """Local branching, then load balancing with real serialized
        walkers."""
        self.pops = [d._branch(pop)
                     for d, pop in zip(self.drivers, self.pops)]
        before = [len(p) for p in self.pops]
        self.stats.per_generation_imbalance.append(max(before) - min(before))
        m0, b0 = self.comm.p2p_messages, self.comm.p2p_bytes
        self.pops = WalkerLoadBalancer.apply(self.pops, self.comm)
        moved = self.comm.p2p_messages - m0
        self.stats.messages += moved
        self.stats.bytes += self.comm.p2p_bytes - b0
        self.stats.migrated_walkers += moved
