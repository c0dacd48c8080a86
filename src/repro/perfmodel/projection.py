"""Measure-and-project workflow: op mixes -> machine-model predictions.

This is the programmatic form of the benchmark harness's core loop:
run a short profiled calculation, read its per-category seconds and
flop/byte counts off the one profile, and project the counts onto any
:class:`HardwareModel` — the engine behind Table 2, Figs. 1, 7 and 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.system import QmcSystem, run_vmc
from repro.core.version import VERSION_CONFIGS, CodeVersion
from repro.metrics.profile import KernelOps
from repro.perfmodel.hardware import HardwareModel
from repro.perfmodel.roofline import RooflineModel


@dataclass
class WorkloadMeasurement:
    """Timings + op mix from one profiled run."""

    workload: str
    version: CodeVersion
    n_electrons: int
    seconds_per_sweep: float
    throughput: float
    profile_seconds: Dict[str, float]
    total_seconds: float
    opcounts: Dict[str, KernelOps] = field(default_factory=dict)

    def project_time(self, machine: HardwareModel,
                     memory_mode: str = "flat") -> float:
        """Roofline-projected run time of this op mix on ``machine``."""
        cfg = VERSION_CONFIGS[self.version]
        itemsize = np.dtype(cfg.value_dtype).itemsize
        return RooflineModel(machine, memory_mode).project_total(
            self.opcounts, cfg.simd_profile, itemsize)


def measure_workload(workload: str, version: CodeVersion,
                     scale: float = 0.25, steps: int = 2, walkers: int = 1,
                     with_nlpp: bool = False, seed: int = 21,
                     system: Optional[QmcSystem] = None
                     ) -> WorkloadMeasurement:
    """Run a short profiled VMC and bundle its seconds and op counts per
    category, both read off the run's own profile (walker creation comes
    before it and counts in neither)."""
    sys_ = system if system is not None else QmcSystem.from_workload(
        workload, scale=scale, seed=seed, with_nlpp=with_nlpp)
    parts = sys_.build(version)
    res = run_vmc(sys_, version, walkers=walkers, steps=steps,
                  parts=parts, profile=True, seed=seed + 1)
    return WorkloadMeasurement(
        workload=sys_.workload.name,
        version=version,
        n_electrons=parts.n_electrons,
        seconds_per_sweep=res.elapsed / (steps * walkers),
        throughput=res.throughput,
        profile_seconds=dict(res.profile.seconds),
        total_seconds=res.profile.total,
        opcounts=res.profile.ops,
    )
