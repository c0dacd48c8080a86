"""Performance models: operation counting, hardware models, roofline, energy.

The paper's cross-platform results (Table 2, Figs 1, 7, 8, 10) were taken
on BDW/KNL/BG/Q hardware with VTune/Advisor/turbostat.  Here the same
quantities are produced from first principles:

* every kernel records its flops and bytes moved on the ``METRICS``
  scope it runs under (:meth:`repro.metrics.MetricsRegistry.record`), so
  a profiled run's ``HotspotProfile.ops`` is its per-category op mix;
* :class:`~repro.perfmodel.hardware.HardwareModel` describes a machine
  (SIMD width, cores, frequencies, cache/memory bandwidths, power);
* :class:`~repro.perfmodel.roofline.RooflineModel` combines the two into
  per-kernel arithmetic intensity / attainable-FLOPS points (Fig. 7);
* :class:`~repro.perfmodel.energy.EnergyModel` integrates modeled power
  over modeled runtime (Fig. 10).
"""

from repro.perfmodel.hardware import (
    HardwareModel, BDW, KNL, KNL_DDR, BGQ, MACHINES,
)
from repro.perfmodel.roofline import RooflineModel, RooflinePoint
from repro.perfmodel.energy import EnergyModel, PowerTrace

__all__ = [
    "HardwareModel", "BDW", "KNL", "KNL_DDR", "BGQ", "MACHINES",
    "RooflineModel", "RooflinePoint",
    "EnergyModel", "PowerTrace",
    # measure-and-project workflow lives in repro.perfmodel.projection
    # (imported lazily to avoid a circular import with repro.core).
]
