"""The paper view of a scope tree: flat hot-spot profiles (Figs. 2 and 7).

Kernels open a scope named after their paper category (``J2``,
``DetUpdate``, ...); drivers open structural scopes (``VMC``, ``sweep``,
``measure``, ...) around them.  :func:`category_seconds` reduces one
run's subtree to exclusive seconds per category and folds every
structural scope into ``Other``, so the seconds sum to the run's wall
time; ``METRICS.profile_run`` records such a subtree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

__all__ = ["PAPER_CATEGORIES", "PROFILE_CATEGORIES", "HotspotProfile",
           "category_seconds"]

#: Profile rows in the paper's display order (Figs. 2 and 7).
PAPER_CATEGORIES = ["DistTable-AA", "DistTable-AB", "J1", "J2", "Bspline-v",
                    "Bspline-vgh", "SPO-vgl", "DetUpdate", "NLPP", "Other"]

#: Scope names the view keeps as rows of their own: the paper's
#: categories plus ``Sweep``, the one scope the fused pipeline hoists
#: its per-kernel timers into (docs/sweep_fusion.md).
PROFILE_CATEGORIES = frozenset(PAPER_CATEGORIES) | {"Sweep"}


@dataclass
class HotspotProfile:
    """A finished profile: seconds per category plus total wall time."""

    seconds: Dict[str, float]
    total: float
    label: str = ""

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


def category_seconds(node, categories: Iterable[str] = PROFILE_CATEGORIES
                     ) -> Dict[str, float]:
    """Exclusive seconds of the subtree under ``node`` (a
    :class:`~repro.metrics.registry.ScopeNode`, itself included) summed
    by scope name; names outside ``categories`` count as ``Other``.  The
    values sum to ``node.seconds``."""
    out: Dict[str, float] = {}

    def walk(n) -> None:
        name = n.name if n.name in categories else "Other"
        out[name] = out.get(name, 0.0) + n.exclusive
        for child in n.children.values():
            walk(child)

    walk(node)
    return out
