"""Crowd driver: the OpenMP thread-level structure of Fig. 4.

QMCPACK creates per-thread clones of the compute objects (``Particles
E_th(E); TrialWaveFunction Psi_th(Psi)`` in the paper's pseudo-code) and
distributes the walker population over them with ``omp for nowait``.
:class:`CrowdDriver` reproduces that structure: N "threads" each own a
cloned (ParticleSet + TrialWaveFunction) pair sharing the read-only
resources (ion set, B-spline table, functors), and each generation
deals walkers round-robin to the crowds.

Execution is cooperative (one OS thread — the structural fidelity is
the point: clone correctness, shared read-only state, disjoint mutable
state).  For real multi-core crowds use
:class:`repro.parallel.crowds.ParallelCrowdDriver`, which runs one crowd
per OS *process* over shared-memory walker blocks.
"""

from __future__ import annotations

import copy
from typing import List

import numpy as np

from repro.core.version import VERSION_CONFIGS, CodeVersion
from repro.drivers.base import QMCDriverBase
from repro.drivers.generation import (Generation, GenerationLoop,
                                      advance_walkers)
from repro.drivers.result import QMCResult
from repro.drivers.vmc import VMCDriver
from repro.estimators.scalar import EstimatorManager
from repro.workloads.builder import SystemParts


def shared_functors(twf):
    """Yield the read-only Jastrow functors reachable from *any*
    wavefunction component — clones alias these rather than copying.
    Components without a ``functors`` dict (determinants, test doubles)
    simply contribute nothing."""
    for c in twf.components:
        functors = getattr(c, "functors", None)
        if isinstance(functors, dict):
            yield from functors.values()


def clone_parts(parts: SystemParts) -> SystemParts:
    """Per-thread clone: deep-copies all mutable state (electron set,
    distance tables, wavefunction components) while sharing the
    read-only resources (ions, SPO coefficient tables, functors,
    Hamiltonian constants) — QMCPACK's cloning contract."""
    memo = {}
    # Shared read-only objects: register them in the memo so deepcopy
    # aliases instead of copying.
    for shared in (parts.ions, parts.lattice, parts.workload):
        if shared is not None:
            memo[id(shared)] = shared
    for spo in (parts.spo_up, parts.spo_dn):
        spline = getattr(spo, "spline", None)
        if spline is not None:
            memo[id(spline)] = spline
    for f in shared_functors(parts.twf):
        memo[id(f)] = f
    electrons = copy.deepcopy(parts.electrons, memo)
    twf = copy.deepcopy(parts.twf, memo)
    ham = copy.deepcopy(parts.ham, memo)
    return SystemParts(
        workload=parts.workload, scale=parts.scale, lattice=parts.lattice,
        ions=parts.ions, electrons=electrons, twf=twf, ham=ham,
        spo_up=parts.spo_up, spo_dn=parts.spo_dn,
        n_electrons=parts.n_electrons, n_ions=parts.n_ions,
    )


class CloneDrivers(GenerationLoop):
    """N clones of the compute objects, one scalar driver each — the
    per-thread (:class:`CrowdDriver`) or per-rank
    (:class:`~repro.parallel.distributed.DistributedDMCDriver`) layer
    under the one generation loop."""

    def __init__(self, driver_cls, parts: SystemParts, n: int,
                 rng: np.random.Generator, timestep: float,
                 use_drift: bool, version: CodeVersion):
        cfg = VERSION_CONFIGS[version]
        self.drivers: List[QMCDriverBase] = []
        for c in range(n):
            p = parts if c == 0 else clone_parts(parts)
            self.drivers.append(driver_cls(
                p.electrons, p.twf, p.ham,
                np.random.default_rng(rng.integers(2 ** 63)),
                timestep=timestep, use_drift=use_drift,
                precision=cfg.precision))

    def _move_counts(self):
        return (sum(d.n_moves for d in self.drivers),
                sum(d.n_accept for d in self.drivers))

    def _estimators(self) -> EstimatorManager:
        """Reduce the per-clone accumulators, as the per-walker driver
        reports its own (same QMCResult surface for all drivers)."""
        merged = EstimatorManager()
        for d in self.drivers:
            merged.merge(d.estimators)
        return merged


class CrowdDriver(CloneDrivers):
    """VMC over a walker population partitioned across per-thread clones."""

    def __init__(self, parts: SystemParts, n_crowds: int,
                 rng: np.random.Generator, timestep: float = 0.3,
                 use_drift: bool = True,
                 version: CodeVersion = CodeVersion.CURRENT):
        if n_crowds < 1:
            raise ValueError("need at least one crowd")
        self.n_crowds = n_crowds
        # Walker-level seed drawn FIRST: the per-walker streams (spawn
        # jitter + sweep randomness) depend only on the master rng, not
        # on how many per-crowd seeds are drawn afterwards.  That is what
        # makes run() bitwise-reproducible across crowd counts.
        self._walker_seed = int(rng.integers(2 ** 63))
        super().__init__(VMCDriver, parts, n_crowds, rng, timestep,
                         use_drift, version)

    def run(self, walkers: int = 8, steps: int = 5,
            streams=None) -> QMCResult:
        """Distribute ``walkers`` over crowds with fixed dealing
        (walker w drives crowd ``w % n_crowds``) and run.

        Determinism contract: walker w's spawn jitter and sweep
        randomness come from stream w of one SeedSequence, and the
        per-step mean reduces a walker-indexed array — so the energy
        trace is bitwise identical across crowd counts.

        ``streams`` streams each generation's walker-ordered energies to
        the binary trace + online reblocker (energies and unit weights
        only: per-crowd Hamiltonian components are reduced at end of run
        by the estimator merge, not per generation).
        """
        children = np.random.SeedSequence(self._walker_seed).spawn(
            walkers + 1)
        self._streams = [np.random.default_rng(c) for c in children[1:]]
        # Spawn the whole population centrally (crowd clones evaluate
        # identically, so any driver may host the initial evaluation).
        d0 = self.drivers[0]
        saved_rng = d0.rng
        d0.rng = np.random.default_rng(children[0])
        self.population = d0.create_walkers(walkers)
        d0.rng = saved_rng
        return self._run_generations(steps, "VMC(crowds)", "CrowdVMC",
                                     streams=streams)

    def _clone_for(self, i: int) -> QMCDriverBase:
        d = self.drivers[i % self.n_crowds]
        d.rng = self._streams[i]  # walker i always consumes stream i
        return d

    def _advance(self, step: int, e_trial=None) -> Generation:
        gen = advance_walkers(self.population, self._clone_for, step)
        return Generation(gen.energies)  # unit weights, no components
