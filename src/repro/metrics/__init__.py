"""repro.metrics — hierarchical timers and counters.

The :data:`METRICS` registry is the process-global instrumentation
spine: hot paths open named scopes (``with METRICS.scope("sweep")``),
record their modelled flops and bytes into the innermost one
(``METRICS.record(flops=..., rbytes=..., wbytes=...)``) and bump event
counters.  It is a near-zero-cost no-op unless armed by
``REPRO_METRICS=1`` or, for one run, by ``METRICS.profile_run(...)``,
which yields the paper-category :class:`HotspotProfile` — seconds and
op counts per category — of that run.
"""

from repro.metrics.profile import (PAPER_CATEGORIES, HotspotProfile,
                                   KernelOps, category_view)
from repro.metrics.registry import (METRICS, MetricsRegistry, ScopeNode,
                                    metrics_enabled)

__all__ = ["METRICS", "MetricsRegistry", "ScopeNode", "metrics_enabled",
           "PAPER_CATEGORIES", "HotspotProfile", "KernelOps",
           "category_view"]
