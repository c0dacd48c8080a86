"""QmcSystem facade and run helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.version import CodeVersion, VERSION_CONFIGS
from repro.drivers.dmc import DMCDriver
from repro.drivers.result import QMCResult
from repro.drivers.vmc import VMCDriver
from repro.workloads.builder import SystemParts, build_system
from repro.workloads.catalog import get_workload
from repro.workloads.spec import Workload


@dataclass
class QmcSystem:
    """A workload pinned to a scale and seed, buildable at any CodeVersion."""

    workload: Workload
    scale: float = 1.0
    seed: int = 11
    spo_grid: Optional[Tuple[int, int, int]] = None
    with_nlpp: bool = True

    @classmethod
    def from_workload(cls, name: str, scale: float = 1.0, seed: int = 11,
                      spo_grid: Optional[Tuple[int, int, int]] = None,
                      with_nlpp: bool = True) -> "QmcSystem":
        return cls(get_workload(name), scale=scale, seed=seed,
                   spo_grid=spo_grid, with_nlpp=with_nlpp)

    def build(self, version: CodeVersion = CodeVersion.CURRENT,
              **overrides) -> SystemParts:
        """Materialize particles/wavefunction/Hamiltonian for a version.

        ``overrides`` may replace any :func:`build_system` knob (e.g.
        ``value_dtype=np.float64`` for bitwise cross-version tests).
        """
        cfg = VERSION_CONFIGS[version]
        kwargs = dict(
            table_flavor_aa=cfg.table_flavor_aa,
            table_flavor_ab=cfg.table_flavor_ab,
            jastrow_flavor=cfg.jastrow_flavor,
            spo_layout=cfg.spo_layout,
            value_dtype=cfg.value_dtype,
            spline_dtype=cfg.spline_dtype,
            spo_grid=self.spo_grid,
            with_nlpp=self.with_nlpp,
        )
        kwargs.update(overrides)
        return build_system(self.workload, scale=self.scale, seed=self.seed,
                            **kwargs)


def _make_driver(driver_cls, parts: SystemParts, version: CodeVersion,
                 timestep: float, seed: int):
    cfg = VERSION_CONFIGS[version]
    rng = np.random.default_rng(seed)
    return driver_cls(parts.electrons, parts.twf, parts.ham, rng,
                      timestep=timestep, precision=cfg.precision)


def run_vmc(system: QmcSystem, version: CodeVersion = CodeVersion.CURRENT,
            walkers: int = 8, steps: int = 10, timestep: float = 0.3,
            profile: bool = False,
            seed: int = 99, parts: Optional[SystemParts] = None) -> QMCResult:
    """Build (or reuse) a system at ``version`` and run VMC."""
    parts = parts if parts is not None else system.build(version)
    drv = _make_driver(VMCDriver, parts, version, timestep, seed)
    return drv.run(walkers=walkers, steps=steps, profile=profile,
                   label=f"{system.workload.name}/{version.label}/VMC")


def run_dmc(system: QmcSystem, version: CodeVersion = CodeVersion.CURRENT,
            walkers: int = 16, steps: int = 20, timestep: float = 0.01,
            profile: bool = False,
            seed: int = 99, parts: Optional[SystemParts] = None) -> QMCResult:
    """Build (or reuse) a system at ``version`` and run DMC (Alg. 1)."""
    parts = parts if parts is not None else system.build(version)
    drv = _make_driver(DMCDriver, parts, version, timestep, seed)
    return drv.run(walkers=walkers, steps=steps, profile=profile,
                   label=f"{system.workload.name}/{version.label}/DMC")
