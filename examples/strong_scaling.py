#!/usr/bin/env python
"""Figure 1 style strong-scaling study on the simulated clusters.

Projects the measured NiO-64 op mixes onto the KNL (Trinity/Aries) and
BDW (Serrano/Omni-Path) machine models, then runs the cluster simulator
across node counts at the paper's target population of 131072 walkers —
including a discrete generation-by-generation population simulation with
real walker-message byte accounting.

Run:  python examples/strong_scaling.py
"""

import sys
import os

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                "benchmarks"))

from harness import measure  # noqa: E402
from repro.core.version import CodeVersion  # noqa: E402
from repro.memory.model import MemoryModel  # noqa: E402
from repro.parallel.cluster import ARIES, OMNIPATH, SimCluster  # noqa: E402
from repro.perfmodel.hardware import BDW, KNL  # noqa: E402
from repro.workloads.catalog import NIO64  # noqa: E402

POPULATION = 131072
NODES = [64, 128, 256, 512, 1024]


def node_throughput(machine, version, mode):
    m = measure("NiO-64", version)
    t_sweep = m.project_time(machine, mode) / 2
    t_full = t_sweep * (768.0 / m.n_electrons) ** 2
    return (1.0 + machine.smt2_gain) / t_full


def main() -> None:
    print("measuring NiO-64 op mixes (short profiled runs)...")
    mm = MemoryModel(NIO64)
    curves = {}
    for label, machine, ic, mode in (("KNL", KNL, ARIES, "cache"),
                                     ("BDW", BDW, OMNIPATH, "flat")):
        for version in (CodeVersion.REF, CodeVersion.CURRENT):
            thr = node_throughput(machine, version, mode)
            wb = mm.walker_bytes(version)
            cluster = SimCluster(thr, ic, wb)
            curves[(label, version)] = cluster.scaling_curve(POPULATION,
                                                             NODES)

    base = curves[("BDW", CodeVersion.REF)][0].throughput
    print(f"\n{'nodes':<16}" + "".join(f"{m:>10}" for m in NODES))
    for (label, version), pts in curves.items():
        name = f"{label} {version.label}"
        print(f"{name:<16}" + "".join(
            f"{p.throughput / base:>10.1f}" for p in pts))
    print(f"{'KNL efficiency':<16}" + "".join(
        f"{p.efficiency:>10.3f}"
        for p in curves[("KNL", CodeVersion.CURRENT)]))

    print("\ndiscrete population simulation, 64 KNL nodes, 10 generations:")
    thr = node_throughput(KNL, CodeVersion.CURRENT, "cache")
    stats = SimCluster(thr, ARIES,
                       mm.walker_bytes(CodeVersion.CURRENT)) \
        .simulate_generations(64, POPULATION, generations=10)
    for k, v in stats.items():
        print(f"  {k}: {v}")


if __name__ == "__main__":
    main()
