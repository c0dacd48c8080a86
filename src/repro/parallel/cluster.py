"""Strong-scaling cluster simulation (Fig. 1).

A generation on M nodes costs

    t_gen = t_walker * (W/M + imbalance)        -- compute
          + lat_allreduce * ceil(log2 M)        -- E_T / averages
          + migrated_bytes / bandwidth + lat    -- load balancing

where W is the target population, ``t_walker`` the measured (or modeled)
per-walker-step time on one node, and the imbalance is the expected
excess of the maximum rank population over the mean for a multinomially
fluctuating DMC population (~sqrt(2 (W/M) ln M / M ... we use the
standard sqrt(2 w ln M) Gumbel estimate with w = W/M walkers/node).

The simulation also runs a discrete per-generation population model
through :func:`balance_plan`, the excess-to-deficit walker exchange, and
counts the allreduce, messages and bytes that pattern costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Interconnect:
    """Latency-bandwidth interconnect model."""

    name: str
    latency_s: float          # per-message latency
    bandwidth_gbs: float      # per-link bandwidth, GB/s

    def transfer_time(self, nbytes: float, messages: int = 1) -> float:
        return messages * self.latency_s + nbytes / (self.bandwidth_gbs * 1e9)


#: Cray Aries dragonfly (Trinity) and Intel Omni-Path (Serrano).
ARIES = Interconnect("Aries", latency_s=1.3e-6, bandwidth_gbs=10.0)
OMNIPATH = Interconnect("Omni-Path", latency_s=1.0e-6, bandwidth_gbs=12.5)


def balance_plan(counts: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Walker transfers ``[(src, dst, n), ...]`` equalizing ``counts``
    (Alg. 1 L14's load balance): QMCPACK pairs surplus ranks with
    deficit ranks after branching and streams walkers from the biggest
    surplus to the biggest deficit.

    Post-condition: every rank holds floor(total/size) or
    ceil(total/size) walkers, and total transfers are minimal.
    """
    counts = list(counts)
    size = len(counts)
    base, extra = divmod(sum(counts), size)
    # Targets: the `extra` ranks with the largest counts keep one more
    # (minimizes movement).
    order = sorted(range(size), key=lambda r: -counts[r])
    target = [base] * size
    for r in order[:extra]:
        target[r] = base + 1
    surplus = [(r, counts[r] - target[r]) for r in range(size)
               if counts[r] > target[r]]
    deficit = [(r, target[r] - counts[r]) for r in range(size)
               if counts[r] < target[r]]
    plan: List[Tuple[int, int, int]] = []
    si = di = 0
    while si < len(surplus) and di < len(deficit):
        s_rank, s_n = surplus[si]
        d_rank, d_n = deficit[di]
        n = min(s_n, d_n)
        plan.append((s_rank, d_rank, n))
        s_n -= n
        d_n -= n
        if s_n == 0:
            si += 1
        else:
            surplus[si] = (s_rank, s_n)
        if d_n == 0:
            di += 1
        else:
            deficit[di] = (d_rank, d_n)
    return plan


@dataclass
class ScalingPoint:
    """One point on a strong-scaling curve."""

    nodes: int
    throughput: float          # walker-steps/sec, aggregate
    efficiency: float          # vs ideal scaling from the smallest run
    compute_fraction: float    # compute / total time
    comm_bytes_per_gen: float


class SimCluster:
    """Strong-scaling simulator for a DMC population on M nodes."""

    #: residual-imbalance coefficient after per-generation load balancing,
    #: calibrated so NiO-64 at one walker/thread on 1024 nodes lands at the
    #: paper's ~90% parallel efficiency (and ~98% at the BDW runs' larger
    #: walkers-per-task counts).
    IMBALANCE_ALPHA = 0.4

    def __init__(self, node_throughput: float, interconnect: Interconnect,
                 walker_nbytes: float, migration_fraction: float = 0.01,
                 seed: int = 5):
        """``node_throughput``: walker-steps/sec one node sustains;
        ``walker_nbytes``: serialized walker size (message payload);
        ``migration_fraction``: fraction of the population crossing node
        boundaries per generation (DMC branching noise)."""
        if node_throughput <= 0:
            raise ValueError("node_throughput must be positive")
        self.node_throughput = node_throughput
        self.interconnect = interconnect
        self.walker_nbytes = walker_nbytes
        self.migration_fraction = migration_fraction
        self.rng = np.random.default_rng(seed)

    # -- analytic model ---------------------------------------------------------------
    def generation_time(self, nodes: int, population: int) -> tuple:
        """(total, compute, comm) seconds for one DMC generation."""
        w = population / nodes
        if w < 1:
            w = 1.0
        # Residual load imbalance after each generation's walker exchange:
        # a fluctuation-scale excess, not the full un-balanced Gumbel max.
        imbalance = self.IMBALANCE_ALPHA * math.sqrt(
            w * math.log(max(nodes, 2)))
        t_walker = 1.0 / self.node_throughput
        t_compute = (w + imbalance) * t_walker
        # Allreduce (log tree) + walker migration.
        migrated = self.migration_fraction * population / nodes
        t_comm = (self.interconnect.latency_s * math.ceil(math.log2(max(nodes, 2)))
                  + self.interconnect.transfer_time(
                      migrated * self.walker_nbytes,
                      messages=max(1, int(migrated))))
        return t_compute + t_comm, t_compute, t_comm

    def scaling_curve(self, population: int,
                      node_counts: List[int]) -> List[ScalingPoint]:
        """Throughput/efficiency across node counts for a fixed population."""
        points = []
        base = None
        for m in node_counts:
            t_gen, t_comp, _ = self.generation_time(m, population)
            thr = population / t_gen
            if base is None:
                base = (m, thr)
            ideal = base[1] * m / base[0]
            points.append(ScalingPoint(
                nodes=m, throughput=thr, efficiency=thr / ideal,
                compute_fraction=t_comp / t_gen,
                comm_bytes_per_gen=self.migration_fraction * population
                / m * self.walker_nbytes))
        return points

    # -- discrete population simulation -------------------------------------------------
    def simulate_generations(self, nodes: int, population: int,
                             generations: int = 10) -> dict:
        """Run the branching/balance cycle with integer walker counts,
        returning communication statistics: one allreduce per generation,
        one message of ``n * walker_nbytes`` bytes per plan entry."""
        counts = np.full(nodes, population // nodes, dtype=np.int64)
        counts[: population % nodes] += 1
        total_migrated = 0
        max_imbalance = 0
        messages = 0
        nbytes = 0.0
        for _ in range(generations):
            # Branching noise: per-node population fluctuates ~sqrt(count).
            deltas = self.rng.normal(0.0, np.sqrt(counts)).astype(np.int64)
            counts = np.maximum(counts + deltas, 0)
            # Global renormalization toward the target (E_T feedback).
            total = int(np.sum(counts))
            if total == 0:
                counts[:] = 1
                total = nodes
            scale_ = population / total
            counts = np.maximum((counts * scale_).astype(np.int64), 0)
            max_imbalance = max(max_imbalance,
                                int(np.max(counts) - np.min(counts)))
            plan = balance_plan(counts)
            total_migrated += sum(n for _, _, n in plan)
            for src, dst, n in plan:
                counts[src] -= n
                counts[dst] += n
                messages += 1
                nbytes += n * self.walker_nbytes
        return {
            "allreduces": generations,
            "messages": messages,
            "bytes": nbytes,
            "migrated_walkers": total_migrated,
            "max_imbalance": max_imbalance,
            "migrated_per_gen_per_node": total_migrated / generations / nodes,
        }
