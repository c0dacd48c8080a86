"""Walker-batched SoA execution path.

Extends the paper's within-walker SoA transformation across the walker
axis: W walkers' positions live in one aligned ``(W, 3, Np)`` block
(:class:`WalkerBatch`), the hot kernels (distance rows, J1/J2,
B-spline SPO) vectorize over walkers, and
:class:`BatchedCrowdDriver` advances a whole crowd through one fused
accept/reject step per electron.  ``tests/batched/`` differentially
gates this path against the per-walker one (see
docs/batched_walkers.md).
"""

from repro.batched.distances import (BatchedDistTableAA,
                                     BatchedDistTableAAOtf,
                                     BatchedDistTableAB)
from repro.batched.driver import BatchedCrowdDriver
from repro.batched.jastrow import BatchedOneBodyJastrow, BatchedTwoBodyJastrow
from repro.batched.nlpp import BatchedNonLocalPP
from repro.batched.reference import ReferenceTrace, run_reference
from repro.batched.sanitize import BatchedSanitizerSuite
from repro.batched.spo import (batched_multi_v, batched_multi_vgh,
                               batched_multi_vgl)
from repro.batched.system import (BatchedHamiltonian, JastrowSystemSpec,
                                  walker_streams)
from repro.batched.walkerbatch import WalkerBatch

__all__ = [
    "WalkerBatch",
    "BatchedDistTableAA",
    "BatchedDistTableAAOtf",
    "BatchedDistTableAB",
    "BatchedTwoBodyJastrow",
    "BatchedOneBodyJastrow",
    "BatchedNonLocalPP",
    "BatchedHamiltonian",
    "BatchedCrowdDriver",
    "BatchedSanitizerSuite",
    "JastrowSystemSpec",
    "walker_streams",
    "ReferenceTrace",
    "run_reference",
    "batched_multi_v",
    "batched_multi_vgl",
    "batched_multi_vgh",
]
