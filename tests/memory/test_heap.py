"""``keep_freed_heap``: a block freed and allocated again comes back
without page faults.

Each case runs in a fresh interpreter with the mmap threshold fixed
the way ``MALLOC_MMAP_THRESHOLD_`` fixes it, which leaves glibc's trim
threshold at 128 KiB: without the policy every 2 MiB allocation at the
heap top is trimmed on free and faulted back in.  Constructing a
per-walker driver sets the policy, as constructing a crowd does.
"""

import ctypes
import os
import subprocess
import sys

import pytest

PROBE = """
import resource, sys
import numpy as np
if sys.argv[1] == "keep":
    from repro.memory.heap import keep_freed_heap
    keep_freed_heap()
elif sys.argv[1] == "vmc":
    from repro.core.system import QmcSystem
    from repro.core.version import CodeVersion
    from repro.drivers.vmc import VMCDriver
    parts = QmcSystem.from_workload("Graphite", scale=0.125, seed=6,
                                    with_nlpp=False).build(CodeVersion.CURRENT)
    VMCDriver(parts.electrons, parts.twf, parts.ham,
              np.random.default_rng(0))
def churn():
    block = np.ones(2**18)  # 2 MiB, below the mmap threshold: heap
    del block
churn()
f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    churn()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
"""


def _faults(mode):
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_=str(32 * 2**20))
    out = subprocess.run([sys.executable, "-c", PROBE, mode], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout)


@pytest.mark.skipif(
    not sys.platform.startswith("linux")
    or getattr(ctypes.CDLL(None), "mallopt", None) is None,
    reason="a glibc heap policy")
def test_freed_blocks_are_reused_without_faults():
    # 20 x 512 pages when the heap top is trimmed after every free
    assert _faults("trim") > 5000
    assert _faults("keep") < 100
    assert _faults("vmc") < 100
