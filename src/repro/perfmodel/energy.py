"""Energy model (Fig. 10) — the turbostat substitute.

The paper measures PkgWatt + RAMWatt with turbostat at 5 s intervals and
finds power essentially flat (210-215 W on KNL) during the DMC phase for
both Ref and Current, so the energy reduction equals the speedup.  The
model reproduces that: a run is a sequence of phases (init, warmup, DMC)
each with a characteristic power level drawn from the machine model, and
energy is the time integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.perfmodel.hardware import HardwareModel


@dataclass
class PowerTrace:
    """Sampled power-vs-time trace, like a turbostat log."""

    times: np.ndarray    # seconds since run start
    watts: np.ndarray    # PkgWatt + RAMWatt at each sample
    label: str = ""

    @property
    def energy_joules(self) -> float:
        """Trapezoidal integral of power over time."""
        if len(self.times) < 2:
            return 0.0
        return float(np.trapezoid(self.watts, self.times))

    @property
    def mean_watts(self) -> float:
        return float(np.mean(self.watts))


class EnergyModel:
    """Generate power traces for a modeled run on a machine."""

    #: fraction of full power drawn during initialization (B-spline table
    #: construction is single-threaded I/O-ish work)
    INIT_POWER_FRACTION = 0.55
    #: power wobble amplitude during the DMC phase (the 210-215 W band)
    DMC_POWER_JITTER = 0.012

    def __init__(self, machine: HardwareModel, sample_period_s: float = 5.0,
                 seed: int = 42):
        self.machine = machine
        self.sample_period_s = sample_period_s
        self.rng = np.random.default_rng(seed)

    def trace(self, init_seconds: float, dmc_seconds: float,
              label: str = "") -> PowerTrace:
        """A trace with an init/warmup ramp followed by the flat DMC band."""
        total = init_seconds + dmc_seconds
        n = max(2, int(np.ceil(total / self.sample_period_s)) + 1)
        times = np.linspace(0.0, total, n)
        p_full = self.machine.power_watts
        watts = np.empty(n)
        for i, t in enumerate(times):
            if t < init_seconds:
                watts[i] = p_full * self.INIT_POWER_FRACTION
            else:
                jitter = self.rng.uniform(-1.0, 1.0) * self.DMC_POWER_JITTER
                watts[i] = p_full * (1.0 + jitter)
        return PowerTrace(times, watts, label)

    @staticmethod
    def energy_ratio(trace_ref: PowerTrace, trace_cur: PowerTrace,
                     init_ref: float = 0.0, init_cur: float = 0.0) -> float:
        """Ref/Current energy ratio excluding initialization, as in Fig. 10."""

        def tail_energy(tr: PowerTrace, skip: float) -> float:
            mask = tr.times >= skip
            if mask.sum() < 2:
                return 0.0
            return float(np.trapezoid(tr.watts[mask], tr.times[mask]))

        e_ref = tail_energy(trace_ref, init_ref)
        e_cur = tail_energy(trace_cur, init_cur)
        return e_ref / e_cur if e_cur > 0 else float("inf")
