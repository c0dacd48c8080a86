"""Fig. 4 structure ablation — crowds (per-thread clones).

QMCPACK's on-node parallelism distributes walkers over per-thread clones
of the compute objects.  This bench measures the crowd structure on this
substrate: clone overhead (crowds=1 vs plain driver) and that dealing
the walkers over more clones leaves the total work unchanged.  Real
multi-core crowds are ``repro.parallel.crowds`` (``j96-dmc-w2`` of the
end-to-end benchmark).
"""

import time

import numpy as np
import pytest

from harness import get_system, heading, row
from repro.core.system import run_vmc
from repro.core.version import CodeVersion
from repro.drivers.crowd import CrowdDriver


def test_crowd_scaling(benchmark):
    sys_ = get_system("NiO-32")
    heading("Fig. 4 ablation: walkers over per-thread crowds (NiO-32)")

    # Baseline: plain single-driver VMC.
    parts = sys_.build(CodeVersion.CURRENT)
    t0 = time.perf_counter()
    run_vmc(sys_, CodeVersion.CURRENT, walkers=4, steps=2, parts=parts,
            seed=9)
    t_plain = time.perf_counter() - t0
    row("plain driver", f"{t_plain:.3f}s")

    times = {}
    for crowds in (1, 2, 4):
        parts = sys_.build(CodeVersion.CURRENT)
        drv = CrowdDriver(parts, n_crowds=crowds,
                          rng=np.random.default_rng(9), timestep=0.3)
        t0 = time.perf_counter()
        res = drv.run(walkers=4, steps=2)
        times[crowds] = time.perf_counter() - t0
        row(f"crowds={crowds}", f"{times[crowds]:.3f}s")
        assert np.all(np.isfinite(res.energies))

    # Crowd structure costs little over the plain driver.
    assert times[1] < 3.0 * t_plain
    # Serial crowds don't change total work.
    assert times[2] == pytest.approx(times[1], rel=0.6)

    parts = sys_.build(CodeVersion.CURRENT)
    drv = CrowdDriver(parts, n_crowds=2, rng=np.random.default_rng(9),
                      timestep=0.3)

    def one():
        return drv.run(walkers=2, steps=1)

    benchmark.pedantic(one, rounds=2, iterations=1)
