"""Shared measurement harness for the per-figure/table benchmarks.

Every benchmark regenerates one table or figure of the paper at reduced
scale, printing BOTH:

* **measured** rows — wall-clock numbers from this Python substrate
  (who wins, and by what factor); and
* **modeled** rows — cross-platform projections from the op-count +
  hardware models, which are the numbers directly compared against the
  paper's absolute figures.

EXPERIMENTS.md records the mapping and the paper-vs-ours comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict

import numpy as np

from repro.core.system import QmcSystem, run_vmc
from repro.core.version import VERSION_CONFIGS, CodeVersion
from repro.perfmodel.opcount import OPS, KernelOps

#: Scales keeping pure-Python Ref runs to seconds while preserving the
#: workload's species mix, density and code paths.
BENCH_SCALE: Dict[str, float] = {
    "Graphite": 0.25,    # 4 cells  -> 64 electrons
    "Be-64": 0.125,      # 4 cells  -> 32 electrons
    "NiO-32": 0.25,      # 2 cells  -> 96 electrons
    "NiO-64": 0.25,      # 4 cells  -> 192 electrons
}

_system_cache: Dict[tuple, QmcSystem] = {}
_measure_cache: Dict[tuple, "Measurement"] = {}


def clear_caches() -> None:
    """Drop memoized systems and measurements.

    The conftest fixture calls this between benchmark modules so a
    mutated cached ``QmcSystem`` (or a measurement taken under one
    precision policy) can never bleed into the next figure's numbers.
    """
    _system_cache.clear()
    _measure_cache.clear()


@dataclass
class Measurement:
    """One (workload, version) measurement bundle."""

    workload: str
    version: CodeVersion
    n_electrons: int
    seconds_per_sweep: float
    throughput: float              # walker-steps / sec
    profile_seconds: Dict[str, float]
    total_seconds: float
    opcounts: Dict[str, KernelOps]

    @property
    def profile_normalized(self) -> Dict[str, float]:
        tot = self.total_seconds
        return {k: v / tot for k, v in self.profile_seconds.items()} \
            if tot > 0 else {}


def get_system(workload: str, with_nlpp: bool = False,
               scale: float | None = None, seed: int = 21) -> QmcSystem:
    scale = scale if scale is not None else BENCH_SCALE[workload]
    key = (workload, with_nlpp, scale, seed)
    if key not in _system_cache:
        _system_cache[key] = QmcSystem.from_workload(
            workload, scale=scale, seed=seed, with_nlpp=with_nlpp)
    return _system_cache[key]


def measure(workload: str, version: CodeVersion, steps: int = 2,
            walkers: int = 1, with_nlpp: bool = False,
            scale: float | None = None, seed: int = 21) -> Measurement:
    """Run a short profiled VMC and collect timings + op counts (cached
    per configuration so multiple figures reuse one run)."""
    cfg = VERSION_CONFIGS[version]
    key = (workload, version, steps, walkers, with_nlpp, scale, seed,
           cfg.precision.name, np.dtype(cfg.value_dtype).str)
    if key in _measure_cache:
        return _measure_cache[key]
    sys_ = get_system(workload, with_nlpp, scale, seed)
    parts = sys_.build(version)
    OPS.reset()
    with OPS.enabled_scope():
        res = run_vmc(sys_, version, walkers=walkers, steps=steps,
                      parts=parts, profile=True, seed=seed + 1)
    counts = OPS.totals()
    OPS.reset()
    m = Measurement(
        workload=workload,
        version=version,
        n_electrons=parts.n_electrons,
        seconds_per_sweep=res.elapsed / (steps * walkers),
        throughput=res.throughput,
        profile_seconds=dict(res.profile.seconds),
        total_seconds=res.profile.total,
        opcounts=counts,
    )
    _measure_cache[key] = m
    return m


def best_of(legs: Dict[str, Callable[[], object]], reps: int,
            check: Callable[[Dict[str, object]], None]) -> Dict[str, float]:
    """Fastest wall time of each leg, for two code paths on one input.

    Each leg first runs once untimed (page faults, lazy setup) and
    ``check`` gets those results by label: it asserts the exactness
    contract, so a silently wrong fast path fails before anything is
    timed.  Then ``reps`` rounds run the legs interleaved (host drift
    hits all equally) and the fastest repetition of each is kept.
    """
    check({label: leg() for label, leg in legs.items()})
    best = dict.fromkeys(legs, float("inf"))
    for _ in range(reps):
        for label, leg in legs.items():
            t0 = time.perf_counter()
            leg()
            best[label] = min(best[label], time.perf_counter() - t0)
    return best


def projected_node_time(m: Measurement, machine, version: CodeVersion,
                        memory_mode: str = "flat") -> float:
    """Roofline-projected time of the measured op mix on a machine."""
    from repro.perfmodel.roofline import RooflineModel
    cfg = VERSION_CONFIGS[version]
    itemsize = np.dtype(cfg.value_dtype).itemsize
    model = RooflineModel(machine, memory_mode)
    return model.project_total(m.opcounts, cfg.simd_profile, itemsize)


def heading(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def row(label: str, *cols) -> None:
    print(f"  {label:<28s}" + "".join(f"{c:>14}" for c in cols))
