"""Variational Monte Carlo driver."""

from __future__ import annotations

from typing import List

from repro.drivers.base import QMCDriverBase
from repro.drivers.result import QMCResult
from repro.particles.walker import Walker


class VMCDriver(QMCDriverBase):
    """Fixed-population VMC: sample |Psi_T|^2 and average E_L."""

    checkpoint_kind = "vmc"

    def run(self, walkers: int | List[Walker] = 8, steps: int = 10,
            profile: bool = False, label: str = "vmc",
            streams=None, resume=None) -> QMCResult:
        """Run ``steps`` generations over the walker population.

        ``walkers`` may be a count (walkers are spawned around the current
        configuration) or an existing population to continue from.

        ``streams`` (a :class:`repro.output.stream.StreamSet`) streams
        per-generation rows to the binary trace + online reblocker and
        checkpoints the full run state every ``checkpoint_every``
        generations.  ``resume`` (a
        :class:`repro.output.runstate.RunCheckpoint`) continues a
        checkpointed run bitwise: the driver RNG, walker population and
        acceptance counters are restored and generation numbering
        carries on from the checkpoint, so the continued trace and
        online error bars are identical to an uninterrupted run.
        """
        start = self._begin(walkers, resume, "VMC")
        return self._run_generations(
            steps, "VMC", "VMC", streams=streams, start=start,
            profile=label if profile else None)
