"""Multi-node and multi-core parallelism layers.

Two tiers live here.  The *modelled* tier (Fig. 1): QMCPACK's
communication pattern is tiny and fixed (Sec. 8) — an allreduce per
generation for E_T / global averages, plus point-to-point walker
messages during load balancing.  :class:`SimCluster` counts that pattern
over a discrete population model (:func:`balance_plan` is the
excess-to-deficit walker exchange) and combines it with a node
performance model and an interconnect model into the strong-scaling
curves of Fig. 1.

The *real-cores* tier (docs/parallel_crowds.md):
:class:`ParallelCrowdDriver` runs one batched crowd per worker process
over :class:`SharedWalkerState` shared-memory blocks, with
:class:`SharedMemComm` carrying the per-generation collectives across
genuine OS processes.
"""

from repro.parallel.cluster import (Interconnect, ScalingPoint, SimCluster,
                                    balance_plan)
from repro.parallel.shm import SharedTraceBlock, SharedWalkerState
from repro.parallel.shmcomm import CommPeerLost, CommTimeout, SharedMemComm
from repro.parallel.crowds import ParallelCrowdDriver

__all__ = [
    "SimCluster", "Interconnect", "ScalingPoint", "balance_plan",
    "SharedWalkerState", "SharedTraceBlock",
    "SharedMemComm", "CommTimeout", "CommPeerLost",
    "ParallelCrowdDriver",
]
