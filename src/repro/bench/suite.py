"""Workload suites for the ``python -m repro.bench`` CLI.

``BENCH_SCALE`` is the canonical home of the reduced scales the
per-figure benchmarks under ``benchmarks/`` also use (``harness.py``
imports it from here): each keeps a pure-Python Ref run to seconds while
preserving the workload's species mix, density and code paths.

The three kinds (:data:`repro.bench.runner.KINDS`: ``nlpp``, ``sweep``,
``spline_memory``) are isolated ratio guards for things the
end-to-end benchmark (``benchmarks/e2e/``) does not see.  Each asserts
its exactness contract in-runner before timing and gates its first
speedup with ``floor``; the ``run_*_case`` docstrings say what the legs
are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.bench.runner import KINDS

#: Scales keeping pure-Python Ref runs to seconds while preserving the
#: workload's species mix, density and code paths.
BENCH_SCALE: Dict[str, float] = {
    "Graphite": 0.25,    # 4 cells  -> 64 electrons
    "Be-64": 0.125,      # 4 cells  -> 32 electrons
    "NiO-32": 0.25,      # 2 cells  -> 96 electrons
    "NiO-64": 0.25,      # 4 cells  -> 192 electrons
}


@dataclass(frozen=True)
class BenchCase:
    """One row of a bench suite."""

    name: str
    kind: str    # a key of repro.bench.runner.KINDS
    versions: Tuple[str, ...]   # the legs, in artifact order
    # nlpp: the workload and its scale
    workload: str = ""
    scale: float = 1.0
    # electrons (spline_memory: orbitals) and crowd size
    n: int = 0
    nwalkers: int = 0
    # nlpp: quadrature size
    npoints: int = 12
    # floor on the kind's first speedup (0 = report only, don't gate)
    floor: float = 0.0
    # spline_memory: orbital tile width, grid points per axis of the
    # fitted table, forked RSS-probe children per strategy
    tile: int = 64
    grid: int = 12
    workers: int = 4
    # nlpp, sweep: steps per repetition; spline_memory: repetitions
    steps: int = 2
    seed: int = 21

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown bench kind {self.kind!r}")


#: The CI / acceptance suite and the committed baseline: every kind at
#: the size its floor was set on.  About a minute on a laptop.
QUICK_SUITE = (
    BenchCase(name="nlpp-NiO32-x0.25", kind="nlpp",
              versions=("scalar", "batched"),
              workload="NiO-32", scale=BENCH_SCALE["NiO-32"],
              npoints=12, floor=3.0, steps=2),
    BenchCase(name="spline-mem-M256-W32", kind="spline_memory",
              versions=("flat", "tiled"),
              n=256, nwalkers=32, grid=16, tile=64, workers=4,
              steps=3, floor=1.2),
    BenchCase(name="sweep-N24-W8", kind="sweep",
              versions=("loop", "fused"),
              n=24, nwalkers=8, steps=3, floor=1.15),
)

#: Seconds-long smoke suite for the test suite itself.
SMOKE_SUITE = (
    BenchCase(name="nlpp-NiO32-x0.125", kind="nlpp",
              versions=("scalar", "batched"),
              workload="NiO-32", scale=0.125, npoints=6, steps=1),
    BenchCase(name="spline-mem-M16-W8", kind="spline_memory",
              versions=("flat", "tiled"),
              n=16, nwalkers=8, grid=8, tile=4, workers=2, steps=1),
    BenchCase(name="sweep-N10-W4", kind="sweep",
              versions=("loop", "fused"), n=10, nwalkers=4, steps=1),
)

#: Spline-memory suite (``make bench-spline``): the shared-slab +
#: tiled-vgh gate at more repetitions, plus a larger-table sweep.
SPLINE_SUITE = (
    BenchCase(name="spline-mem-M256-W32", kind="spline_memory",
              versions=("flat", "tiled"),
              n=256, nwalkers=32, grid=16, tile=64, workers=4,
              steps=5, floor=1.2),
    BenchCase(name="spline-mem-M512-W32", kind="spline_memory",
              versions=("flat", "tiled"),
              n=512, nwalkers=32, grid=16, tile=64, workers=4,
              steps=3, floor=1.2),
)

SUITES = {"quick": QUICK_SUITE, "smoke": SMOKE_SUITE,
          "spline": SPLINE_SUITE}
