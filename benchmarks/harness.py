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
from typing import Callable, Dict

import numpy as np

from repro.core.system import QmcSystem
from repro.core.version import VERSION_CONFIGS, CodeVersion
from repro.perfmodel.projection import WorkloadMeasurement, measure_workload

#: Scales keeping pure-Python Ref runs to seconds while preserving the
#: workload's species mix, density and code paths.
BENCH_SCALE: Dict[str, float] = {
    "Graphite": 0.25,    # 4 cells  -> 64 electrons
    "Be-64": 0.125,      # 4 cells  -> 32 electrons
    "NiO-32": 0.25,      # 2 cells  -> 96 electrons
    "NiO-64": 0.25,      # 4 cells  -> 192 electrons
}

_system_cache: Dict[tuple, QmcSystem] = {}
_measure_cache: Dict[tuple, WorkloadMeasurement] = {}


def clear_caches() -> None:
    """Drop memoized systems and measurements.

    The conftest fixture calls this between benchmark modules so a
    mutated cached ``QmcSystem`` (or a measurement taken under one
    precision policy) can never bleed into the next figure's numbers.
    """
    _system_cache.clear()
    _measure_cache.clear()


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
            scale: float | None = None,
            seed: int = 21) -> WorkloadMeasurement:
    """:func:`repro.perfmodel.projection.measure_workload` on the cached
    system, itself cached per configuration so several figures reuse one
    run."""
    cfg = VERSION_CONFIGS[version]
    key = (workload, version, steps, walkers, with_nlpp, scale, seed,
           cfg.precision.name, np.dtype(cfg.value_dtype).str)
    if key not in _measure_cache:
        _measure_cache[key] = measure_workload(
            workload, version, steps=steps, walkers=walkers, seed=seed,
            system=get_system(workload, with_nlpp, scale, seed))
    return _measure_cache[key]


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


def heading(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


def row(label: str, *cols) -> None:
    print(f"  {label:<28s}" + "".join(f"{c:>14}" for c in cols))
