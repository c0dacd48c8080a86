"""Sec. 8.2 memory-bandwidth study.

Paper: forcing the Current build of NiO-64 onto KNL's DDR
(numactl -m 0) slows it by 5.4x — commensurate with the MCDRAM/DDR
stream-bandwidth ratio — while NiO-32 slows only 2.3x because
compute-bound kernels play a greater role in the smaller problem; the
cache-mode penalty vs flat is small (~3%).
"""

import pytest

from harness import heading, measure, row
from repro.core.version import CodeVersion
from repro.perfmodel.hardware import KNL


def test_sec82_ddr_slowdown(benchmark):
    heading("Sec 8.2: KNL memory-mode study, Current build "
            "(slowdown vs MCDRAM flat)")
    row("workload", "flat", "cache", "ddr")
    slow = {}
    for wl in ("NiO-32", "NiO-64"):
        m = measure(wl, CodeVersion.CURRENT)
        t = {mode: m.project_time(KNL, mode)
             for mode in ("flat", "cache", "ddr")}
        slow[wl] = {mode: t[mode] / t["flat"] for mode in t}
        row(wl, *[f"{slow[wl][mode]:.2f}x" for mode in
                  ("flat", "cache", "ddr")])
    print("  (paper: DDR slows NiO-64 by 5.4x, NiO-32 by 2.3x; "
          "cache mode costs ~3%)")

    # DDR hurts the bigger, more bandwidth-bound problem more.
    assert slow["NiO-64"]["ddr"] >= slow["NiO-32"]["ddr"] * 0.98
    # The slowdown magnitude is in the stream-ratio band.
    assert 1.8 < slow["NiO-32"]["ddr"] < 6.5
    assert 2.5 < slow["NiO-64"]["ddr"] < 6.5
    # Cache mode costs little.
    for wl in slow:
        assert 1.0 <= slow[wl]["cache"] < 1.15

    m = measure("NiO-64", CodeVersion.CURRENT)
    benchmark(lambda: m.project_time(KNL, "ddr"))
