"""Problem-size scaling of kernel op counts.

The paper's complexity discussion (Secs. 6.2, 8.4): per PbyP sweep the
distance/Jastrow/B-spline work grows as O(N^2), DetUpdate as O(N^2) per
sweep with an O(N^3) recompute, and the asymptotic O(N^3) DetUpdate
share is why the delayed-update outlook matters.  This module encodes
those laws so a measurement at bench scale can be projected to full
problem size (used by the Fig. 1 harness) — and so the laws themselves
can be validated against measurements at two different N.
"""

from __future__ import annotations

from typing import Dict

from repro.metrics.profile import KernelOps

#: Per-sweep scaling exponent of each kernel category with electron count.
#: (flops and bytes share the exponent at leading order.)
SCALING_EXPONENTS: Dict[str, float] = {
    "DistTable-AA": 2.0,   # N moves x O(N) rows
    "DistTable-AB": 1.0,   # N moves x O(Nion); Nion ~ N/12 => ~2 if ions scale
    "J1": 1.0,             # same caveat as AB
    "J2": 2.0,
    "Bspline-v": 2.0,      # N moves x O(norb), norb = N/2
    "Bspline-vgh": 2.0,
    "SPO-vgl": 2.0,
    "DetUpdate": 2.0,      # Sherman-Morrison: N moves x O(N) -- the
                           # O(N^3) recompute term dominates only at
                           # recompute steps (Sec. 8.4's concern)
    "NLPP": 2.0,
    "Other": 2.0,
}

#: Categories whose work also scales with the ion count (which tracks N
#: at fixed stoichiometry): add one power of N when ions scale along.
ION_COUPLED = {"DistTable-AB", "J1"}


def scale_ops(ops: KernelOps, category: str, n_ratio: float,
              ions_scale: bool = True) -> KernelOps:
    """Scale one category's counts by an electron-count ratio."""
    if n_ratio <= 0:
        raise ValueError("n_ratio must be positive")
    expo = SCALING_EXPONENTS.get(category, 2.0)
    if ions_scale and category in ION_COUPLED:
        expo += 1.0
    f = n_ratio ** expo
    return KernelOps(flops=ops.flops * f, rbytes=ops.rbytes * f,
                     wbytes=ops.wbytes * f)


def scale_opcounts(counts: Dict[str, KernelOps], n_ratio: float,
                   ions_scale: bool = True) -> Dict[str, KernelOps]:
    """Scale a whole measurement's per-kernel counts to a new N."""
    return {c: scale_ops(k, c, n_ratio, ions_scale)
            for c, k in counts.items()}
