"""The paper view of a scope tree: flat hot-spot profiles (Figs. 2 and 7).

Kernels open a scope named after their paper category (``J2``,
``DetUpdate``, ...) and record their modelled flops and bytes inside
it; drivers open structural scopes (``VMC``, ``sweep``, ``measure``,
...) around them.  :func:`category_view` reduces one run's subtree to
exclusive seconds and op counts per category and folds every structural
scope into ``Other``, so the seconds sum to the run's wall time;
``METRICS.profile_run`` records such a subtree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

__all__ = ["PAPER_CATEGORIES", "PROFILE_CATEGORIES", "KernelOps",
           "HotspotProfile", "category_view"]

#: Profile rows in the paper's display order (Figs. 2 and 7).
PAPER_CATEGORIES = ["DistTable-AA", "DistTable-AB", "J1", "J2", "Bspline-v",
                    "Bspline-vgh", "SPO-vgl", "DetUpdate", "NLPP", "Other"]

#: Scope names the view keeps as rows of their own: the paper's
#: categories plus ``Sweep``, the one scope the fused pipeline hoists
#: its per-kernel timers into (docs/sweep_fusion.md).
PROFILE_CATEGORIES = frozenset(PAPER_CATEGORIES) | {"Sweep"}


@dataclass
class KernelOps:
    """Modelled operation counts of one category — a roofline point's
    input."""

    flops: float = 0.0
    rbytes: float = 0.0
    wbytes: float = 0.0

    @property
    def bytes_moved(self) -> float:
        return self.rbytes + self.wbytes

    @property
    def arithmetic_intensity(self) -> float:
        """Flops per byte of DRAM traffic (the roofline x-axis)."""
        b = self.bytes_moved
        return self.flops / b if b > 0 else 0.0


@dataclass
class HotspotProfile:
    """A finished profile: seconds and op counts per category plus total
    wall time."""

    seconds: Dict[str, float]
    total: float
    label: str = ""
    ops: Dict[str, KernelOps] = field(default_factory=dict)

    def fraction(self, category: str) -> float:
        """Fraction of total time spent in ``category``."""
        if self.total <= 0:
            return 0.0
        return self.seconds.get(category, 0.0) / self.total

    def normalized(self) -> Dict[str, float]:
        """All categories (plus implicit Other) as fractions summing to 1."""
        out = {c: self.fraction(c) for c in self.seconds}
        accounted = sum(self.seconds.values())
        if self.total > accounted:
            out["Other"] = out.get("Other", 0.0) + (self.total - accounted) / self.total
        return out

    def top(self, n: int = 5) -> List[tuple]:
        """The n hottest categories as (name, fraction), descending."""
        norm = self.normalized()
        return sorted(norm.items(), key=lambda kv: -kv[1])[:n]

    def format_table(self) -> str:
        """Fixed-width text table, one row per category."""
        lines = [f"profile: {self.label}  (total {self.total:.3f} s)"]
        norm = self.normalized()
        order = [c for c in PAPER_CATEGORIES if c in norm]
        order += [c for c in norm if c not in order]
        for c in order:
            secs = self.seconds.get(c, 0.0)
            lines.append(f"  {c:<14s} {secs:10.4f} s  {100 * norm[c]:6.2f} %")
        return "\n".join(lines)


def category_view(node, categories: Iterable[str] = PROFILE_CATEGORIES
                  ) -> Tuple[Dict[str, float], Dict[str, KernelOps]]:
    """Exclusive seconds and recorded op counts of the subtree under
    ``node`` (a :class:`~repro.metrics.registry.ScopeNode`, itself
    included) summed by scope name; names outside ``categories`` count
    as ``Other``.  The seconds sum to ``node.seconds``; a category gets
    an ops entry only where something recorded work."""
    seconds: Dict[str, float] = {}
    ops: Dict[str, KernelOps] = {}

    def walk(n) -> None:
        name = n.name if n.name in categories else "Other"
        seconds[name] = seconds.get(name, 0.0) + n.exclusive
        if n.flops or n.rbytes or n.wbytes:
            k = ops.setdefault(name, KernelOps())
            k.flops += n.flops
            k.rbytes += n.rbytes
            k.wbytes += n.wbytes
        for child in n.children.values():
            walk(child)

    walk(node)
    return seconds, ops
