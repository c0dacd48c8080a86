"""The compute-on-the-fly AA table is O(N) per walker, and so is its
measure.

The table holds one active row and the move temporaries; measure
streams every row through the row kernel instead of keeping or
rebuilding a ``(W, N, Np)`` block.  So its ``storage_bytes`` grows
linearly in N where the forward-update table's grows quadratically, and
one ``measure()`` never allocates as much as a single ``(W, N, N)``
float64 block (the pair pass it replaced built several).
"""

import tracemalloc

import numpy as np
import pytest

from repro.batched import BatchedCrowdDriver, JastrowSystemSpec
from repro.batched.distances import BatchedDistTableAA, BatchedDistTableAAOtf
from repro.lattice.cell import CrystalLattice
from repro.sanitizers import force_sanitizers

W = 8
SIZES = (48, 96, 192)


@pytest.fixture
def unarmed():
    """Sanitizers off for one test, whatever the environment says: their
    from-scratch pair passes are not the program's memory."""
    force_sanitizers(False)
    yield
    force_sanitizers(None)


def _bytes_per_walker(cls, n):
    return cls(W, n, CrystalLattice.cubic(10.0)).storage_bytes / W


def test_otf_storage_is_linear_in_n():
    otf = [_bytes_per_walker(BatchedDistTableAAOtf, n) for n in SIZES]
    # the active row and the temporaries: 2 x (1 + 3) float64 rows
    assert otf == [2 * 4 * 8 * n for n in SIZES]
    soa = [_bytes_per_walker(BatchedDistTableAA, n) for n in SIZES]
    # the forward-update table keeps its (N, Np) + (N, 3, Np) block
    assert soa == [4 * 8 * n * n for n in SIZES]


def test_otf_measure_peak_is_below_one_pair_block(unarmed):
    n, nw = 96, 16
    spec = JastrowSystemSpec(n=n, seed=7, aa_flavor="otf")
    drv = BatchedCrowdDriver(spec, nw, 5, timestep=0.3)
    assert drv.sanitizers is None
    drv.sweep()
    drv.measure()  # warm caches
    drv.sweep()
    tracemalloc.start()
    try:
        drv.measure()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = nw * n * n * np.dtype(np.float64).itemsize
    assert peak < block, (peak, block)
