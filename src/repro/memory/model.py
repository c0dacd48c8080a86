"""Per-configuration footprint accounting at full problem size."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.core.version import CodeVersion, VERSION_CONFIGS
from repro.workloads.spec import Workload

GB = 1024.0 ** 3


@dataclass
class MemoryBreakdown:
    """Bytes by component for one (workload, version, threads, walkers)."""

    label: str
    spline_table: float
    per_walker: float        # bytes per walker (wavefunction state + positions)
    per_thread: float        # bytes per thread (distance tables, work arrays)
    n_threads: int
    n_walkers: int
    components: Dict[str, float] = field(default_factory=dict)

    @property
    def total_bytes(self) -> float:
        return (self.spline_table
                + self.per_walker * self.n_walkers
                + self.per_thread * self.n_threads)

    @property
    def total_gb(self) -> float:
        return self.total_bytes / GB

    def format_row(self) -> str:
        return (f"{self.label:<24s} spline={self.spline_table / GB:6.2f} GB  "
                f"walkers={self.per_walker * self.n_walkers / GB:6.2f} GB  "
                f"threads={self.per_thread * self.n_threads / GB:6.2f} GB  "
                f"total={self.total_gb:6.2f} GB")


class MemoryModel:
    """Analytic allocator mirroring what each build would malloc at scale."""

    def __init__(self, workload: Workload):
        self.wl = workload

    # -- shared table -------------------------------------------------------------
    def spline_table_bytes(self, version: CodeVersion) -> float:
        """Padded complex coefficient table; double for REF (Table 1's
        number), single once mixed precision is on."""
        gx, gy, gz = self.wl.fft_grid
        per_coef = 16.0 if version == CodeVersion.REF else 8.0
        return float((gx + 3) * (gy + 3) * (gz + 3)
                     * self.wl.unique_spos * per_coef)

    # -- per-walker state -----------------------------------------------------------
    def walker_bytes(self, version: CodeVersion) -> float:
        cfg = VERSION_CONFIGS[version]
        item = np.dtype(cfg.value_dtype).itemsize
        n = self.wl.n_electrons
        nion = self.wl.n_ions
        half = n // 2
        total = 3.0 * n * 8          # positions (always double)
        comps = 0.0
        # Determinants: psiM_inv + dpsiM(3) + d2psiM per spin.
        comps += 2 * 5.0 * half * half * item
        if cfg.jastrow_flavor == "ref":
            # J2 matrices: U + dU(3) + d2U.
            comps += 5.0 * n * n * item
            # J1 per-electron arrays.
            comps += 5.0 * n * item
        else:
            # J1 per-electron arrays (J2 keeps no pair state).
            comps += 5.0 * n * item
        total += comps
        return total

    # -- per-thread state --------------------------------------------------------------
    def thread_bytes(self, version: CodeVersion) -> float:
        cfg = VERSION_CONFIGS[version]
        item = np.dtype(cfg.value_dtype).itemsize
        n = self.wl.n_electrons
        nion = self.wl.n_ions
        if cfg.table_flavor_aa == "ref":
            aa = 4.0 * (n * (n - 1) / 2) * item   # packed dist + disp
        else:
            aa = 4.0 * n * n * item               # full rows, dist + disp
        ab = 4.0 * n * nion * item
        # Thread-local ParticleSet/TWF clones: positions, G, L, SoA copy.
        clones = (3 + 3 + 1 + 3) * n * 8.0
        # Determinant/Jastrow compute engines live per thread too.
        half = n // 2
        engines = 2 * 5.0 * half * half * item
        if cfg.jastrow_flavor == "ref":
            engines += 5.0 * n * n * item
        return aa + ab + clones + engines

    # -- totals --------------------------------------------------------------------------
    def breakdown(self, version: CodeVersion, n_threads: int,
                  n_walkers: int, label: str = "", n_processes: int = 1,
                  shared_tables: bool = False) -> MemoryBreakdown:
        """Footprint at scale.  ``n_processes`` counts crowd *processes*
        (each holding its own table copy unless ``shared_tables`` maps
        one read-only slab across all of them — the
        :class:`repro.splines.slab.SharedCoefSlab` configuration)."""
        k = max(1, int(n_processes))
        table = self.spline_table_bytes(version)
        table_total = table if shared_tables else table * k
        return MemoryBreakdown(
            label=label or f"{self.wl.name}/{version.label}",
            spline_table=table_total,
            per_walker=self.walker_bytes(version),
            per_thread=self.thread_bytes(version),
            n_threads=n_threads,
            n_walkers=n_walkers,
            components={
                "spline": table_total,
                "walker": self.walker_bytes(version),
                "thread": self.thread_bytes(version),
            },
        )

    def gamma_bytes(self, version: CodeVersion) -> float:
        """The paper's gamma: per-(thread+walker) bytes divided by N^2."""
        n2 = float(self.wl.n_electrons) ** 2
        # Use the walker-side coefficient, which dominates at production
        # populations (Nw >> Nth per the Sec. 8.2 configurations).
        quadratic = self.walker_bytes(version) - 3.0 * 8 * self.wl.n_electrons
        return quadratic / n2

    def table1_bspline_gb(self) -> float:
        """Table 1's B-spline (GB) row — the REF (complex double) table."""
        return self.spline_table_bytes(CodeVersion.REF) / GB
