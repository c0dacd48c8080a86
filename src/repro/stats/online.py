"""Online (streaming) reblocking statistics with an exact state round-trip.

``OnlineReblocker`` consumes scalar estimator samples one at a time and
maintains, in O(log n) memory, everything the offline Flyvbjerg-Petersen
analysis in :mod:`repro.stats.series` derives from the full trace: the
mean, the per-block-level variances, the blocking error estimate (the
plateau of error-vs-block-size) and the integrated autocorrelation time
implied by it.

Representation — dyadic pairwise-merge binning
----------------------------------------------
The sample stream is indexed by its absolute position ``i`` (from 0).
The state is the canonical *dyadic decomposition* of the interval
consumed so far: an ordered list of "nodes", each covering
a block ``[start, start + 2**level)`` that is maximal (its sibling has
not fully arrived yet).  A node at level ``l`` stores

* ``mean``  — the recursively pair-averaged mean of its samples.  This
  is *bitwise* the value the offline analysis computes for that block at
  level ``l`` via ``0.5 * (x[0::2] + x[1::2])``.
* ``m2[L]`` for ``L = 0..l`` — the sum of squared deviations of the
  ``2**(l-L)`` level-``L`` block values inside the node from the node
  mean (a per-level Welford/Chan second moment).
* ``wsum`` / ``wxsum`` — weight and weight*value sums for the weighted
  mean.

Two sibling nodes (equal level ``l``, left start aligned to
``2**(l+1)``) combine into their parent with the equal-count Chan
update::

    delta   = right.mean - left.mean
    mean'   = 0.5 * (left.mean + right.mean)
    m2'[L]  = left.m2[L] + right.m2[L] + delta**2 * (2**(l-L) * 0.5)
    m2'[l+1] = 0.0

Every floating-point operation is tied to a fixed position in the
dyadic tree, *not* to the order samples were delivered.  Consequence:
saving the state with :meth:`OnlineReblocker.state_dict` at any point of
the stream, restoring it with :meth:`OnlineReblocker.from_state` and
feeding the rest produces a bit-for-bit identical state.  That is the
contract checkpoint/resume relies on; it is asserted (not assumed) by
``tests/stats/test_online.py`` and the hypothesis property suite.

Reading statistics folds the node list left-to-right with the general
unequal-count Chan merge — again a fixed operation order, so
checkpointed/restored states report identical error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "OnlineReblocker",
    "OnlineScalarStats",
    "OnlineEstimate",
    "BlockLevel",
]

_STATE_VERSION = 1


class _Node:
    """One maximal dyadic block of the consumed stream."""

    __slots__ = ("level", "start", "mean", "m2", "wsum", "wxsum")

    def __init__(self, level: int, start: int, mean: float,
                 m2: List[float], wsum: float, wxsum: float) -> None:
        self.level = level
        self.start = start
        self.mean = mean
        self.m2 = m2          # m2[L] for L = 0..level
        self.wsum = wsum
        self.wxsum = wxsum

    @property
    def count(self) -> int:
        return 1 << self.level


def _combine(left: _Node, right: _Node) -> _Node:
    """Combine two sibling nodes into their parent (fixed-tree Chan merge)."""
    lev = left.level
    delta = right.mean - left.mean
    mean = 0.5 * (left.mean + right.mean)
    m2 = [0.0] * (lev + 2)
    for L in range(lev + 1):
        # Each side holds 2**(lev - L) level-L blocks; equal-count Chan
        # cross term is delta^2 * m/2 with m = 2**(lev - L).
        m2[L] = left.m2[L] + right.m2[L] + delta * delta * ((1 << (lev - L)) * 0.5)
    m2[lev + 1] = 0.0
    return _Node(lev + 1, left.start, mean, m2,
                 left.wsum + right.wsum, left.wxsum + right.wxsum)


@dataclass(frozen=True)
class BlockLevel:
    """Summary of one blocking level (block size ``2**level``)."""

    level: int
    block_size: int
    n_blocks: int
    mean: float
    variance: float   # ddof=1 variance of the block values
    error: float      # sqrt(variance / n_blocks)


@dataclass(frozen=True)
class OnlineEstimate:
    """qmca-style summary of one scalar estimator stream."""

    n: int
    mean: float
    weighted_mean: float
    error: float
    naive_error: float
    tau: float
    plateau_level: int
    converged: bool

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        flag = "" if self.converged else "  (not converged)"
        return (f"{self.mean:+.8f} +/- {self.error:.8f}  "
                f"tau={self.tau:.2f}  n={self.n}{flag}")


class OnlineReblocker:
    """Streaming Flyvbjerg-Petersen reblocker with an exact state
    round-trip (:meth:`state_dict` / :meth:`from_state`)."""

    def __init__(self) -> None:
        self._start = 0
        self._end = 0
        self._nodes: List[_Node] = []

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def add(self, value: float, weight: float = 1.0) -> None:
        """Consume one sample (O(log n) amortised O(1))."""
        x = float(value)
        w = float(weight)
        node = _Node(0, self._end, x, [0.0], w, w * x)
        self._end += 1
        nodes = self._nodes
        nodes.append(node)
        # Greedy tail compaction: combine completed sibling pairs.
        while (len(nodes) >= 2
               and nodes[-1].level == nodes[-2].level
               and nodes[-2].start % (1 << (nodes[-2].level + 1)) == 0):
            right = nodes.pop()
            nodes[-1] = _combine(nodes[-1], right)

    def add_many(self, values: Iterable[float],
                 weights: Optional[Iterable[float]] = None) -> None:
        if weights is None:
            for v in values:
                self.add(v)
        else:
            for v, w in zip(values, weights):
                self.add(v, w)

    # ------------------------------------------------------------------
    # Properties / reads
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._end - self._start

    def n_blocks(self, level: int) -> int:
        """Number of *complete* level-``level`` blocks consumed."""
        total = 0
        for node in self._nodes:
            if node.level >= level:
                total += 1 << (node.level - level)
        return total

    def _fold(self, level: int) -> Tuple[int, float, float]:
        """(n_blocks, mean, M2) of the level-``level`` block values.

        Left-to-right unequal-count Chan fold over the node list — a
        fixed operation order, so the result is a pure function of the
        consumed stream.
        """
        n = 0
        mean = 0.0
        m2 = 0.0
        for node in self._nodes:
            if node.level < level:
                continue
            nb = 1 << (node.level - level)
            if n == 0:
                n, mean, m2 = nb, node.mean, node.m2[level]
                continue
            delta = node.mean - mean
            tot = n + nb
            mean = mean + delta * (nb / tot)
            m2 = m2 + node.m2[level] + delta * delta * (n * nb / tot)
            n = tot
        return n, mean, m2

    def mean(self) -> float:
        n, mean, _ = self._fold(0)
        return mean if n else float("nan")

    def weighted_mean(self) -> float:
        wsum = 0.0
        wxsum = 0.0
        for node in self._nodes:
            wsum += node.wsum
            wxsum += node.wxsum
        return wxsum / wsum if wsum else float("nan")

    def variance(self, level: int = 0) -> float:
        """ddof=1 variance of the level-``level`` block values."""
        n, _, m2 = self._fold(level)
        if n < 2:
            return float("nan")
        return m2 / (n - 1)

    def block_error(self, level: int) -> float:
        """Standard error estimated at one blocking level."""
        n, _, m2 = self._fold(level)
        if n < 2:
            return float("nan")
        return math.sqrt(m2 / (n - 1) / n)

    def _considered_levels(self, min_blocks: int) -> List[int]:
        """Levels entering the plateau search.

        Mirrors :func:`repro.stats.series.blocking_error` exactly: level
        0 always; then level L while ``n_{L-1} // 2 >= min_blocks``.
        """
        if self.count < 2:
            return []
        levels = [0]
        n_prev = self.n_blocks(0)
        while n_prev // 2 >= min_blocks:
            levels.append(levels[-1] + 1)
            n_prev = n_prev // 2
        return levels

    def levels(self, min_blocks: int = 1) -> List[BlockLevel]:
        """Per-level diagnostics (error-bar-vs-block-size curve)."""
        out = []
        for lev in self._considered_levels(min_blocks):
            n, mean, m2 = self._fold(lev)
            if n < 2:
                continue
            var = m2 / (n - 1)
            out.append(BlockLevel(lev, 1 << lev, n, mean, var,
                                  math.sqrt(var / n)))
        return out

    def naive_error(self) -> float:
        """Unblocked standard error s / sqrt(n) (correlation-blind)."""
        return self.block_error(0)

    def error(self, min_blocks: int = 8) -> float:
        """Blocking estimate of the standard error (plateau = max level).

        Matches :func:`repro.stats.series.blocking_error` on the full
        trace to fp64 round-off.
        """
        levels = self._considered_levels(min_blocks)
        if not levels:
            return float("nan")
        best = -math.inf
        for lev in levels:
            err = self.block_error(lev)
            if not math.isnan(err):
                best = max(best, err)
        return best if best > -math.inf else float("nan")

    def tau(self, min_blocks: int = 8) -> float:
        """Integrated autocorrelation time implied by the blocking plateau.

        tau = (err_plateau / err_naive)**2, clamped to >= 1.
        """
        naive = self.naive_error()
        if math.isnan(naive) or naive == 0.0:
            return 1.0
        err = self.error(min_blocks)
        if math.isnan(err):
            return 1.0
        return max(1.0, (err / naive) ** 2)

    def plateau(self, min_blocks: int = 8) -> Tuple[int, bool]:
        """(plateau_level, converged) from the error-vs-block-size curve.

        The plateau level is the blocking level attaining the maximum
        error estimate.  The curve is ``converged`` when that maximum is
        attained strictly before the last level the data supports — i.e.
        the error bar stopped growing while doubling the block size was
        still statistically meaningful.
        """
        levels = self._considered_levels(min_blocks)
        if not levels:
            return 0, False
        errs = [self.block_error(lev) for lev in levels]
        best_i = 0
        for i, e in enumerate(errs):
            if not math.isnan(e) and e > errs[best_i]:
                best_i = i
        return levels[best_i], best_i < len(levels) - 1

    def estimate(self, min_blocks: int = 8) -> OnlineEstimate:
        plateau_level, converged = self.plateau(min_blocks)
        return OnlineEstimate(
            n=self.count,
            mean=self.mean(),
            weighted_mean=self.weighted_mean(),
            error=self.error(min_blocks),
            naive_error=self.naive_error(),
            tau=self.tau(min_blocks),
            plateau_level=plateau_level,
            converged=converged,
        )

    # ------------------------------------------------------------------
    # Exact state round-trip
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Exact (bit-preserving) serialization into numpy arrays."""
        k = len(self._nodes)
        levels = np.empty(k, dtype=np.int64)
        starts = np.empty(k, dtype=np.int64)
        means = np.empty(k, dtype=np.float64)
        wsums = np.empty(k, dtype=np.float64)
        wxsums = np.empty(k, dtype=np.float64)
        m2_flat: List[float] = []
        for i, node in enumerate(self._nodes):
            levels[i] = node.level
            starts[i] = node.start
            means[i] = node.mean
            wsums[i] = node.wsum
            wxsums[i] = node.wxsum
            m2_flat.extend(node.m2)
        return {
            "version": np.int64(_STATE_VERSION),
            "span": np.array([self._start, self._end], dtype=np.int64),
            "levels": levels,
            "starts": starts,
            "means": means,
            "wsums": wsums,
            "wxsums": wxsums,
            "m2": np.asarray(m2_flat, dtype=np.float64),
        }

    @classmethod
    def from_state(cls, state: Mapping[str, np.ndarray]) -> "OnlineReblocker":
        if int(state["version"]) != _STATE_VERSION:
            raise ValueError(
                f"unsupported OnlineReblocker state version "
                f"{int(state['version'])} (expected {_STATE_VERSION})")
        span = np.asarray(state["span"], dtype=np.int64)
        self = cls()
        self._start, self._end = int(span[0]), int(span[1])
        levels = np.asarray(state["levels"], dtype=np.int64)
        starts = np.asarray(state["starts"], dtype=np.int64)
        means = np.asarray(state["means"], dtype=np.float64)
        wsums = np.asarray(state["wsums"], dtype=np.float64)
        wxsums = np.asarray(state["wxsums"], dtype=np.float64)
        m2 = np.asarray(state["m2"], dtype=np.float64)
        off = 0
        for i in range(levels.size):
            lev = int(levels[i])
            node_m2 = [float(v) for v in m2[off:off + lev + 1]]
            off += lev + 1
            self._nodes.append(_Node(lev, int(starts[i]), float(means[i]),
                                     node_m2, float(wsums[i]),
                                     float(wxsums[i])))
        if off != m2.size:
            raise ValueError("corrupt OnlineReblocker state: m2 length "
                             f"{m2.size} != expected {off}")
        return self


class OnlineScalarStats:
    """A bundle of named :class:`OnlineReblocker` streams — the scalar
    estimators of a run.

    Sample order per name is the caller's contract; the drivers feed
    walker-ordered rows generation by generation through
    :class:`repro.output.stream.StreamSet`, i.e. exactly the order the
    trace stores them in, so online results are comparable
    sample-for-sample with the offline recomputation on the trace.
    Weights must be non-negative (``ValueError``; a rejected row adds
    nothing).
    """

    def __init__(self) -> None:
        self._blockers: Dict[str, OnlineReblocker] = {}

    def _blocker(self, name: str) -> OnlineReblocker:
        blocker = self._blockers.get(name)
        if blocker is None:
            blocker = self._blockers[name] = OnlineReblocker()
        return blocker

    def add(self, name: str, value: float, weight: float = 1.0) -> None:
        if weight < 0:
            raise ValueError("weight must be non-negative")
        self._blocker(name).add(value, weight)

    def add_array(self, name: str, values: Sequence[float],
                  weights: Optional[Sequence[float]] = None) -> None:
        """Feed one walker-ordered row of samples."""
        if weights is None:
            blocker = self._blocker(name)
            for v in values:
                blocker.add(float(v))
            return
        if np.any(np.asarray(weights) < 0):
            raise ValueError("weight must be non-negative")
        blocker = self._blocker(name)
        for v, w in zip(values, weights):
            blocker.add(float(v), float(w))

    def names(self) -> List[str]:
        return sorted(self._blockers)

    def reblocker(self, name: str) -> OnlineReblocker:
        return self._blockers[name]

    def count(self, name: str) -> int:
        blocker = self._blockers.get(name)
        return blocker.count if blocker is not None else 0

    def estimate(self, name: str, min_blocks: int = 8) -> OnlineEstimate:
        return self._blockers[name].estimate(min_blocks)

    def state_dict(self) -> Dict[str, Dict[str, np.ndarray]]:
        return {name: self._blockers[name].state_dict()
                for name in self.names()}

    @classmethod
    def from_state(cls, state: Mapping[str, Mapping[str, np.ndarray]]
                   ) -> "OnlineScalarStats":
        self = cls()
        for name in sorted(state):
            self._blockers[name] = OnlineReblocker.from_state(state[name])
        return self

    def report(self, min_blocks: int = 8) -> str:
        """qmca-style multi-line text report."""
        lines = []
        width = max((len(n) for n in self.names()), default=0)
        for name in self.names():
            est = self.estimate(name, min_blocks)
            flag = "" if est.converged else "  (not converged)"
            lines.append(
                f"{name:<{width}}  {est.mean:+.8f} +/- {est.error:.8f}"
                f"  tau={est.tau:6.2f}  n={est.n}{flag}")
        return "\n".join(lines)
