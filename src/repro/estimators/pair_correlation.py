"""Structural observables: pair correlation g(r) and structure factor S(k).

These are the Hamiltonian-independent estimators production QMC runs
accumulate each measurement — and the reason Sec. 7.5 keeps the O(N^2)
distance-table storage alive after the compute-on-the-fly transformation
("they are used multiple times by Hamiltonian objects"): g(r) reads the
freshly evaluated AA rows directly.

Normalization: g(r) -> 1 at large r for an uncorrelated homogeneous
system; S(k) -> 1 at large k, and S(0) = N for the trivial k=0 mode
(excluded here).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.metrics.registry import METRICS
from repro.perfmodel.opcount import OPS


class PairCorrelationEstimator:
    """Accumulates g(r) histograms from the AA distance table."""

    name = "gofr"

    def __init__(self, lattice, n_particles: int, nbins: int = 50,
                 rmax: Optional[float] = None, table_index: int = 0):
        if n_particles < 2:
            raise ValueError("g(r) needs at least two particles")
        self.lattice = lattice
        self.n = n_particles
        self.rmax = rmax if rmax is not None else lattice.wigner_seitz_radius
        if not np.isfinite(self.rmax):
            raise ValueError("open systems need an explicit rmax")
        self.nbins = nbins
        self.table_index = table_index
        self.histogram = np.zeros(nbins)
        self.n_samples = 0

    @property
    def bin_edges(self) -> np.ndarray:
        return np.linspace(0.0, self.rmax, self.nbins + 1)

    @property
    def bin_centers(self) -> np.ndarray:
        e = self.bin_edges
        return 0.5 * (e[:-1] + e[1:])

    def accumulate(self, P, weight: float = 1.0) -> None:
        """Add one configuration's pair distances (from the AA table)."""
        with METRICS.scope("Other"):
            table = P.distance_tables[self.table_index]
            dists = []
            for i in range(self.n):
                row = np.asarray(table.dist_row(i), dtype=np.float64)
                dists.append(row[i + 1:self.n])  # j > i, each pair once
            d = np.concatenate(dists) if dists else np.empty(0)
            d = d[d < self.rmax]
            h, _ = np.histogram(d, bins=self.nbins,
                                range=(0.0, self.rmax))
            self.histogram += weight * h
            self.n_samples += weight
            OPS.record("Other", flops=2.0 * self.n * self.n,
                       rbytes=8.0 * self.n * self.n / 2, wbytes=8.0 * self.nbins)

    def gofr(self) -> np.ndarray:
        """Normalized g(r): histogram / (ideal-gas shell expectation)."""
        if self.n_samples <= 0:
            raise RuntimeError("no samples accumulated")
        edges = self.bin_edges
        shell_vol = 4.0 * math.pi / 3.0 * (edges[1:] ** 3 - edges[:-1] ** 3)
        density = self.n / self.lattice.volume
        npairs = self.n * (self.n - 1) / 2.0
        # Expected pairs per shell for an ideal gas:
        #   npairs * shell_vol * density / n ... derive via pair density:
        # pair count in shell = (N(N-1)/2) * shell_vol / V  (uniform)
        expected = npairs * shell_vol / self.lattice.volume
        return self.histogram / (self.n_samples * expected)

    def reset(self) -> None:
        self.histogram[:] = 0.0
        self.n_samples = 0


class SpinResolvedGofr:
    """g(r) split by spin pair: like (uu+dd) vs unlike (ud).

    The physics payoff: the unlike-spin correlation hole is deeper at
    contact for Coulomb systems without Pauli exclusion helping, and the
    Jastrow cusps (-1/4 like vs -1/2 unlike) act differently on the two
    channels.
    """

    name = "gofr_spin"

    def __init__(self, lattice, group_slices, nbins: int = 50,
                 rmax: Optional[float] = None, table_index: int = 0):
        self.lattice = lattice
        self.groups = list(group_slices)
        self.n = max(s.stop for _, s in self.groups)
        self.group_of = np.empty(self.n, dtype=np.int64)
        for g, s in self.groups:
            self.group_of[s] = g
        self.like = PairCorrelationEstimator(lattice, self.n, nbins, rmax,
                                             table_index)
        self.unlike = PairCorrelationEstimator(lattice, self.n, nbins,
                                               rmax, table_index)
        self.table_index = table_index
        self.nbins = nbins

    def accumulate(self, P, weight: float = 1.0) -> None:
        table = P.distance_tables[self.table_index]
        rmax = self.like.rmax
        d_like, d_unlike = [], []
        for i in range(self.n):
            row = np.asarray(table.dist_row(i), dtype=np.float64)
            same = self.group_of[i + 1:self.n] == self.group_of[i]
            seg = row[i + 1:self.n]
            d_like.append(seg[same])
            d_unlike.append(seg[~same])
        for est, dists in ((self.like, d_like), (self.unlike, d_unlike)):
            d = np.concatenate(dists) if dists else np.empty(0)
            d = d[d < rmax]
            h, _ = np.histogram(d, bins=self.nbins, range=(0.0, rmax))
            est.histogram += weight * h
            est.n_samples += weight

    def gofr_like(self) -> np.ndarray:
        """Like-spin g(r), normalized against like-spin ideal pairs."""
        return self._normalized(self.like, self._npairs_like())

    def gofr_unlike(self) -> np.ndarray:
        return self._normalized(self.unlike, self._npairs_unlike())

    def _npairs_like(self) -> float:
        return sum((s.stop - s.start) * (s.stop - s.start - 1) / 2
                   for _, s in self.groups)

    def _npairs_unlike(self) -> float:
        total = self.n * (self.n - 1) / 2
        return total - self._npairs_like()

    def _normalized(self, est: PairCorrelationEstimator,
                    npairs: float) -> np.ndarray:
        if est.n_samples <= 0:
            raise RuntimeError("no samples accumulated")
        edges = est.bin_edges
        shell_vol = 4.0 * math.pi / 3.0 * (edges[1:] ** 3
                                           - edges[:-1] ** 3)
        expected = npairs * shell_vol / self.lattice.volume
        return est.histogram / (est.n_samples * expected)

    @property
    def bin_centers(self) -> np.ndarray:
        return self.like.bin_centers


class StructureFactorEstimator:
    """S(k) = <|rho_k|^2>/N over a shell-ordered set of lattice k-vectors."""

    name = "sofk"

    def __init__(self, lattice, n_particles: int, nk: int = 20):
        if not lattice.periodic:
            raise ValueError("S(k) needs a periodic cell")
        self.lattice = lattice
        self.n = n_particles
        recip = lattice.reciprocal
        cands = []
        for i in range(-4, 5):
            for j in range(-4, 5):
                for k in range(-4, 5):
                    if (i, j, k) == (0, 0, 0):
                        continue
                    g = i * recip[0] + j * recip[1] + k * recip[2]
                    cands.append((float(g @ g), (i, j, k), g))
        cands.sort(key=lambda t: (t[0], t[1]))
        seen = set()
        kvecs = []
        for g2, ijk, g in cands:
            if tuple(-x for x in ijk) in seen:
                continue
            seen.add(ijk)
            kvecs.append(g)
            if len(kvecs) >= nk:
                break
        self.kvecs = np.array(kvecs)
        self.kmags = np.linalg.norm(self.kvecs, axis=1)
        self.sk_sum = np.zeros(len(kvecs))
        self.n_samples = 0.0

    def accumulate(self, P, weight: float = 1.0) -> None:
        with METRICS.scope("Other"):
            phases = P.R @ self.kvecs.T  # (N, nk)
            re = np.sum(np.cos(phases), axis=0)
            im = np.sum(np.sin(phases), axis=0)
            self.sk_sum += weight * (re * re + im * im) / self.n
            self.n_samples += weight
            OPS.record("Other",
                       flops=6.0 * P.n * self.kvecs.shape[0],
                       rbytes=24.0 * P.n, wbytes=8.0 * self.kvecs.shape[0])

    def sofk(self) -> np.ndarray:
        if self.n_samples <= 0:
            raise RuntimeError("no samples accumulated")
        return self.sk_sum / self.n_samples

    def reset(self) -> None:
        self.sk_sum[:] = 0.0
        self.n_samples = 0.0
