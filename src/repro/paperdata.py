"""Canonical record of the paper's reported numbers.

Single source of truth for every quantitative claim in Mathuriya et al.
(SC'17) that this repository reproduces — the reproduction contract.
Tests cross-check the workload catalog and the models against these
values; EXPERIMENTS.md quotes them.
"""

from __future__ import annotations

#: Table 1 — workloads and their key properties.
TABLE1 = {
    "Graphite": {"N": 256, "Nion": 64, "ions_per_cell": 4, "cells": 16,
                 "unique_spos": 80, "fft_grid": (28, 28, 80),
                 "bspline_gb": 0.1, "zstar": {"C": 4}},
    "Be-64": {"N": 256, "Nion": 64, "ions_per_cell": 2, "cells": 32,
              "unique_spos": 81, "fft_grid": (84, 84, 144),
              "bspline_gb": 1.4, "zstar": {"Be": 4}},
    "NiO-32": {"N": 384, "Nion": 32, "ions_per_cell": 4, "cells": 8,
               "unique_spos": 144, "fft_grid": (80, 80, 80),
               "bspline_gb": 1.3, "zstar": {"Ni": 18, "O": 6}},
    "NiO-64": {"N": 768, "Nion": 64, "ions_per_cell": 4, "cells": 16,
               "unique_spos": 240, "fft_grid": (80, 80, 80),
               "bspline_gb": 2.1, "zstar": {"Ni": 18, "O": 6}},
}

#: Table 2 — final speedups of Current over Ref per platform.
TABLE2_SPEEDUPS = {
    "BG/Q": {"Graphite": 1.6, "Be-64": 1.3, "NiO-32": 1.3, "NiO-64": 2.4},
    "BDW": {"Graphite": 2.9, "Be-64": 3.4, "NiO-32": 2.6, "NiO-64": 5.2},
    "KNL": {"Graphite": 2.2, "Be-64": 2.9, "NiO-32": 2.4, "NiO-64": 2.4},
}

#: Fig. 1 — strong scaling of NiO-64.
FIG1 = {
    "target_population": 131072,
    "parallel_efficiency": {"KNL": 0.90, "BDW": 0.98},
    "speedup_window": (2.0, 4.5),
    "mpi_layout": "1 task per KNL node / BDW socket, 2 threads per core",
}

#: Fig. 2 / Sec. 6.2 — reference profile structure on KNL.
FIG2 = {
    # "the distance relations ... and J2 make up close to 50% of a run"
    "ref_disttable_plus_j2_share": 0.5,
    # "DetUpdate is 10% for NiO-64 using Current, as opposed to 7% with Ref"
    "detupdate_share": {"ref": 0.07, "current": 0.10},
}

#: Sec. 8.1 — per-kernel speedups for NiO-32 on BDW.
FIG7_KERNEL_SPEEDUPS_BDW = {
    "DistTable": 5.0, "Jastrow": 8.0, "Bspline-vgh": 1.7, "Bspline-v": 1.3,
}

#: Fig. 8 — mixed-precision gains and run configuration.
FIG8 = {
    "mp_gain_knl": {"NiO-32": 1.16, "NiO-64": 1.3},
    "mp_gain_bdw": {"NiO-32": 1.3, "NiO-64": 2.5},
    "population": {"KNL": 1024, "BDW": 1040},
    "walkers_per_thread": {"KNL": 8, "BDW": 24},
    "nio64_memory_saving_gb": 36.0,
    "knl_flat_gain_over_cache": 0.03,
}

#: Sec. 8.2 — single-node studies.
SEC82 = {
    "smt2_gain": {"BDW": 0.10, "KNL": 0.085},
    "ddr_slowdown": {"NiO-64": 5.4, "NiO-32": 2.3},
    "knl_threads_per_core_optimal": 2,
}

#: Fig. 9 / Sec. 8.2 — memory law.
MEMORY = {
    "gamma_min_bytes": 60.0,       # J2 + determinants, double precision
    "j2_message_reduction_mb": 22.5,  # NiO-64 walker message shrink
    "mcdram_gb": 16.0,
    "bgq_node_gb": 16.0,
}

#: Fig. 10 — energy.
FIG10 = {
    "knl_power_band_watts": (210.0, 215.0),
    "energy_reduction_equals_speedup": True,
    "turbostat_interval_s": 5.0,
}

#: Machine facts used by the models (Sec. 5 and public datasheets).
MACHINES = {
    "KNL": {"cores_used": 64, "cores_total": 68, "sku": "7250P",
            "cluster_mode": "Quad", "interconnect": "Aries"},
    "BDW-single": {"cores": 20, "sku": "E5-2698 v4"},
    "BDW-serrano": {"cores": 18, "sockets": 2, "sku": "E5-2695 v4",
                    "interconnect": "Omni-Path"},
    "BG/Q": {"cores": 16, "compiler": "bgclang r284961"},
}
