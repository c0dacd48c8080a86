"""Figure 1 — strong scaling of the NiO-64 benchmark on Trinity (KNL)
and Serrano (BDW), Ref vs Current.

Per-node throughputs come from the measured op mixes projected onto the
KNL/BDW machine models; the cluster simulator adds population
granularity, residual load imbalance, allreduce and walker-migration
costs.  Throughput is normalized by Ref on 64 BDW sockets, as in the
figure.  Checks: near-ideal slopes, ~90% (KNL) / ~98% (BDW) parallel
efficiency, and the 2-4.5x Current-over-Ref gap at every node count.
"""

import pytest

from harness import heading, measure, row
from repro.core.version import CodeVersion
from repro.memory.model import MemoryModel
from repro.parallel.cluster import ARIES, OMNIPATH, SimCluster
from repro.perfmodel.hardware import BDW, KNL
from repro.workloads.catalog import NIO64

POPULATION = 131072
NODES = [64, 128, 256, 512, 1024]


def _node_throughput(machine, version, mode="flat"):
    """Projected walker-steps/sec for one node.

    The roofline projection charges the measured op mix against the whole
    node's compute/bandwidth, so running many walkers across threads does
    not multiply throughput — a generation of W sweeps simply takes W
    projected sweep-times (plus the SMT latency-hiding bonus).  The bench
    measures at reduced N; per-kernel scaling laws (validated in
    tests/perfmodel/test_scaling.py) lift the op mix to full size.
    """
    import numpy as np
    from repro.core.version import VERSION_CONFIGS
    from repro.perfmodel.roofline import RooflineModel
    from repro.perfmodel.scaling import scale_opcounts

    m = measure("NiO-64", version)
    sweeps = 2  # steps * walkers in harness.measure defaults
    counts_full = scale_opcounts(m.opcounts, 768.0 / m.n_electrons)
    cfg = VERSION_CONFIGS[version]
    itemsize = np.dtype(cfg.value_dtype).itemsize
    t_full = RooflineModel(machine, mode).project_total(
        counts_full, cfg.simd_profile, itemsize)
    t_sweep_full = t_full / sweeps
    return (1.0 + machine.smt2_gain) / t_sweep_full


def test_fig1_strong_scaling(benchmark):
    walker_bytes = {
        CodeVersion.REF: MemoryModel(NIO64).walker_bytes(CodeVersion.REF),
        CodeVersion.CURRENT: MemoryModel(NIO64).walker_bytes(
            CodeVersion.CURRENT),
    }
    curves = {}
    for label, machine, ic, mode in (
            ("KNL", KNL, ARIES, "cache"),
            ("BDW", BDW, OMNIPATH, "flat")):
        for version in (CodeVersion.REF, CodeVersion.CURRENT):
            thr = _node_throughput(machine, version, mode)
            cluster = SimCluster(thr, ic, walker_bytes[version])
            curves[(label, version)] = cluster.scaling_curve(POPULATION,
                                                             NODES)

    base = curves[("BDW", CodeVersion.REF)][0].throughput  # Ref @ 64 BDW
    heading("Figure 1: NiO-64 strong scaling (throughput normalized to "
            "Ref on 64 BDW sockets)")
    row("nodes", *NODES)
    for (label, version), pts in curves.items():
        row(f"{label} {version.label}",
            *[f"{p.throughput / base:.1f}" for p in pts])
    row("KNL efficiency",
        *[f"{p.efficiency:.3f}" for p in curves[("KNL",
                                                 CodeVersion.CURRENT)]])
    row("BDW efficiency",
        *[f"{p.efficiency:.3f}" for p in curves[("BDW",
                                                 CodeVersion.CURRENT)]])
    from repro.viz import line_chart
    print(line_chart(
        {f"{label} {version.label}": [p.throughput / base for p in pts]
         for (label, version), pts in curves.items()},
        x=NODES, logy=True, height=12,
        title="  (log-log view, like the figure)"))

    # Claim 1: parallel efficiency bands (90% KNL, 98% BDW at moderate
    # scale).
    knl_eff = curves[("KNL", CodeVersion.CURRENT)][-1].efficiency
    bdw_eff = curves[("BDW", CodeVersion.CURRENT)][2].efficiency  # 256
    assert 0.85 <= knl_eff <= 0.99
    assert bdw_eff >= 0.95

    # Claim 2: Current over Ref lands in the paper's 2-4.5x window at
    # every node count, on both machines.
    for label in ("KNL", "BDW"):
        for i in range(len(NODES)):
            ratio = (curves[(label, CodeVersion.CURRENT)][i].throughput
                     / curves[(label, CodeVersion.REF)][i].throughput)
            assert 1.8 < ratio < 6.0, (label, NODES[i], ratio)

    # Claim 3: near-ideal slopes — throughput at 1024 nodes is >= 85% of
    # 16x the 64-node value.
    for key, pts in curves.items():
        assert pts[-1].throughput >= 0.85 * 16 * pts[0].throughput, key

    cluster = SimCluster(
        _node_throughput(KNL, CodeVersion.CURRENT, "cache"), ARIES,
        walker_bytes[CodeVersion.CURRENT])
    benchmark(lambda: cluster.scaling_curve(POPULATION, NODES))
