"""Roofline model (Fig. 7) and cross-platform time projection (Table 2).

Inputs are the per-category flop/byte counts a profiled run records on
its ``METRICS`` scopes (``HotspotProfile.ops``), which reflect the
*algorithmic* changes: single precision halves bytes, compute-on-the-fly
removes stores, SoA turns strided traffic into streams.  A kernel's
projected time on a machine is the classical roofline bound

    t = max( flops / (peak x simd_efficiency), bytes / bandwidth )

where ``simd_efficiency`` encodes what fraction of the vector units the
code version keeps busy — scalar AoS code is pinned to one lane, the SoA
version reaches the per-category efficiencies the paper reports (ideal
for DistTable's contiguous streams, slightly lower for Jastrow because
of the cutoff branches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping

from repro.metrics.profile import KernelOps
from repro.perfmodel.hardware import HardwareModel


#: Fraction of vector peak each kernel category sustains, per code version.
#: REF kernels run essentially scalar except the B-spline routines, which
#: already used intrinsics/single precision before this work (Sec. 6.2).
SIMD_EFFICIENCY: Dict[str, Dict[str, float]] = {
    "ref": {
        "DistTable-AA": None,  # None = scalar: 1/simd_lanes of peak
        "DistTable-AB": None,
        "J1": None,
        "J2": None,
        "Bspline-v": 0.35,
        "Bspline-vgh": 0.35,
        "SPO-vgl": 0.30,
        "DetUpdate": 0.50,
        "NLPP": None,
        "Other": None,
    },
    "current": {
        "DistTable-AA": 0.90,   # "close to the ideal speedup" — contiguous
        "DistTable-AB": 0.90,
        "J1": 0.60,             # "slightly lower due to the branch conditions"
        "J2": 0.60,
        "Bspline-v": 0.45,      # kernel unchanged; efficiency from memory opts
        "Bspline-vgh": 0.60,
        "SPO-vgl": 0.60,
        "DetUpdate": 0.50,      # BLAS2, untouched by this work
        "NLPP": 0.60,
        "Other": 0.20,
    },
}


@dataclass
class RooflinePoint:
    """One kernel on the roofline plot."""

    kernel: str
    arithmetic_intensity: float  # flops / DRAM byte
    gflops: float                # attained
    seconds: float               # projected time
    bound: str                   # "memory" or "compute"


class RooflineModel:
    """Project kernel times / roofline points for one machine."""

    def __init__(self, machine: HardwareModel, memory_mode: str = "flat"):
        self.machine = machine
        self.memory_mode = memory_mode

    # -- single-kernel projection --------------------------------------------------
    def kernel_time(self, category: str, ops: KernelOps, version: str,
                    itemsize: int) -> float:
        """Roofline-bounded execution time in seconds."""
        eff_table = SIMD_EFFICIENCY[version]
        eff = eff_table.get(category, eff_table.get("Other"))
        bw = self.machine.effective_bw_gbs(self.memory_mode)
        if eff is None:
            compute_gflops = self.machine.scalar_dp_gflops
            if itemsize == 4:
                compute_gflops *= self.machine.sp_speedup
            bw *= self.machine.scalar_bw_fraction
        else:
            compute_gflops = eff * self.machine.peak_gflops(itemsize)
        t_compute = ops.flops / (compute_gflops * 1e9) if ops.flops else 0.0
        t_memory = ops.bytes_moved / (bw * 1e9) if ops.bytes_moved else 0.0
        return max(t_compute, t_memory)

    def kernel_point(self, category: str, ops: KernelOps, version: str,
                     itemsize: int) -> RooflinePoint:
        t = self.kernel_time(category, ops, version, itemsize)
        ai = ops.arithmetic_intensity
        gflops = ops.flops / (t * 1e9) if t > 0 else 0.0
        eff = SIMD_EFFICIENCY[version].get(
            category, SIMD_EFFICIENCY[version].get("Other"))
        bw = self.machine.effective_bw_gbs(self.memory_mode)
        if eff is None:
            bw *= self.machine.scalar_bw_fraction
        t_mem = ops.bytes_moved / (bw * 1e9)
        bound = "memory" if t_mem >= t * 0.999 and t > 0 else "compute"
        return RooflinePoint(category, ai, gflops, t, bound)

    # -- whole-run projection ---------------------------------------------------------
    def project_run(self, counts: Mapping[str, KernelOps], version: str,
                    itemsize: int) -> Dict[str, float]:
        """Projected seconds per kernel for a whole run's counts."""
        return {c: self.kernel_time(c, ops, version, itemsize)
                for c, ops in counts.items()}

    def project_total(self, counts: Mapping[str, KernelOps], version: str,
                      itemsize: int) -> float:
        return sum(self.project_run(counts, version, itemsize).values())

    # -- plot ceilings ------------------------------------------------------------------
    def ceilings(self, itemsize: int = 8) -> Dict[str, float]:
        """Roofline ceilings for plotting: GFLOPS peak + BW slopes (GB/s)."""
        out = {
            "peak_gflops": self.machine.peak_gflops(itemsize),
            "scalar_gflops": (self.machine.scalar_dp_gflops if itemsize == 8
                              else 2 * self.machine.scalar_dp_gflops),
            "mem_bw_gbs": self.machine.effective_bw_gbs(self.memory_mode),
        }
        if self.machine.cache_bw_gbs > 0:
            out["cache_bw_gbs"] = self.machine.cache_bw_gbs
        return out
