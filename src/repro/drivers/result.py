"""Run results and figures of merit."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


@dataclass
class QMCResult:
    """Outcome of a VMC or DMC run."""

    method: str
    steps: int
    energies: List[float] = field(default_factory=list)   # per-step <E_L>
    populations: List[int] = field(default_factory=list)  # per-step Nw
    trial_energies: List[float] = field(default_factory=list)
    acceptance: float = 0.0
    elapsed: float = 0.0
    profile: Optional[object] = None  # HotspotProfile when profiling was on
    online: Optional[object] = None  # the run's OnlineScalarStats
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def mean_walkers(self) -> float:
        return float(np.mean(self.populations)) if self.populations else 0.0

    @property
    def throughput(self) -> float:
        """Samples (walker-steps) generated per second — the paper's P."""
        if self.elapsed <= 0:
            return 0.0
        return self.steps * self.mean_walkers / self.elapsed

    @property
    def mean_energy(self) -> float:
        return float(np.mean(self.energies)) if self.energies else float("nan")

    def energy_error(self) -> float:
        """Naive standard error of the per-step energies."""
        if len(self.energies) < 2:
            return float("nan")
        return float(np.std(self.energies, ddof=1) / np.sqrt(len(self.energies)))

    def autocorrelation_time(self) -> float:
        """Integrated autocorrelation time of the E_L trace (tau_corr)."""
        from repro.stats.series import autocorrelation_time
        if len(self.energies) < 2:
            return float("nan")
        return autocorrelation_time(np.asarray(self.energies))

    def efficiency(self) -> float:
        """The paper's DMC efficiency kappa = 1/(sigma^2 tau_corr T_MC)
        (Sec. 3) — what the node-level speedups ultimately buy."""
        from repro.stats.series import dmc_efficiency
        return dmc_efficiency(np.asarray(self.energies), self.elapsed)

    def summary(self) -> str:
        return (f"{self.method}: steps={self.steps} <Nw>={self.mean_walkers:.1f} "
                f"<E>={self.mean_energy:.6f} +- {self.energy_error():.6f} "
                f"acc={self.acceptance:.3f} "
                f"throughput={self.throughput:.2f} samples/s")
