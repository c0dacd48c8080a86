"""SPO set implementations."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.lattice.cell import CrystalLattice
from repro.metrics.registry import METRICS
from repro.splines.bspline3d import BSpline3D


class BsplineSPOSet:
    """Orbitals evaluated from a shared, read-only 3D B-spline table.

    ``layout='soa'`` uses the multi-orbital kernels (one GEMM of stencil
    weight rows against the 4x4x4 block, orbital index contiguous);
    ``layout='ref'`` loops over orbitals — QMCPACK 3.0.0's
    partially-vectorized path.
    """

    def __init__(self, spline: BSpline3D, norb: int | None = None,
                 layout: str = "soa"):
        if layout not in ("soa", "ref"):
            raise ValueError(f"unknown SPO layout {layout!r}")
        self.spline = spline
        self.norb = norb if norb is not None else spline.norb
        if self.norb > spline.norb:
            raise ValueError(
                f"asked for {self.norb} orbitals, table holds {spline.norb}")
        self.layout = layout

    def evaluate_v(self, r: np.ndarray) -> np.ndarray:
        """Orbital values at r (the ratio-only path) — Bspline-v."""
        with METRICS.scope("Bspline-v"):
            if self.layout == "soa":
                return self.spline.multi_v(r)[: self.norb]
            return self.spline.ref_v(r)[: self.norb]

    def evaluate_vgl(self, r: np.ndarray):
        """(values, gradients, laplacians) at r — Bspline-vgh + SPO-vgl.
        The SoA kernel folds the Laplacian into its stencil weights; the
        Ref loop forms every Hessian and takes its trace."""
        if self.layout == "soa":
            with METRICS.scope("Bspline-vgh"):
                v, g, lap = self.spline.multi_vgl(r)
        else:
            with METRICS.scope("Bspline-vgh"):
                v, g, h = self.spline.ref_vgh(r)
            with METRICS.scope("SPO-vgl"):
                lap = np.trace(h, axis1=1, axis2=2)
        return v[: self.norb], g[: self.norb], lap[: self.norb]

    @property
    def table_bytes(self) -> int:
        return self.spline.table_bytes


class PlaneWaveSPOSet:
    """Analytic cos/sin plane-wave orbitals for validation and toy systems.

    Orbital 0 is constant; subsequent orbitals alternate cos(G.r) and
    sin(G.r) over a list of reciprocal vectors, mimicking the lowest bands
    of a simple metal.
    """

    def __init__(self, lattice: CrystalLattice, norb: int):
        if not lattice.periodic:
            raise ValueError("plane waves need a periodic cell")
        self.lattice = lattice
        self.norb = norb
        gvecs = self._lowest_gvectors(norb)
        self.gvecs = gvecs  # (norb, 3); row 0 is zero (constant orbital)
        self.is_cos = np.array([(i % 2 == 1) or i == 0
                                for i in range(norb)])

    def _lowest_gvectors(self, norb: int) -> np.ndarray:
        recip = self.lattice.reciprocal
        # enumerate integer triples by |G|, pair each non-zero shell twice
        # (cos & sin share a G)
        cands = []
        rng = range(-4, 5)
        for i in rng:
            for j in rng:
                for k in rng:
                    g = i * recip[0] + j * recip[1] + k * recip[2]
                    cands.append((float(g @ g), (i, j, k), g))
        cands.sort(key=lambda t: (t[0], t[1]))
        out = [np.zeros(3)]
        seen = {(0, 0, 0)}
        for _, ijk, g in cands:
            if len(out) >= norb:
                break
            if ijk in seen or tuple(-x for x in ijk) in seen:
                continue
            seen.add(ijk)
            out.append(g.copy())   # cos
            if len(out) < norb:
                out.append(g.copy())  # sin
        return np.array(out[:norb])

    def evaluate_v(self, r: np.ndarray) -> np.ndarray:
        with METRICS.scope("Bspline-v"):
            phase = self.gvecs @ np.asarray(r, dtype=np.float64)
            return np.where(self.is_cos, np.cos(phase), np.sin(phase))

    def evaluate_vgl(self, r: np.ndarray):
        with METRICS.scope("Bspline-vgh"):
            phase = self.gvecs @ np.asarray(r, dtype=np.float64)
            cosp, sinp = np.cos(phase), np.sin(phase)
            v = np.where(self.is_cos, cosp, sinp)
            dphase = np.where(self.is_cos, -sinp, cosp)
            g = dphase[:, None] * self.gvecs
            g2 = np.sum(self.gvecs * self.gvecs, axis=1)
            lap = -g2 * v
        return v, g, lap

    def sample_on_grid(self, grid: Sequence[int]) -> np.ndarray:
        """Sample all orbitals on a periodic grid, for B-spline fitting."""
        nx, ny, nz = grid
        fx = np.arange(nx) / nx
        fy = np.arange(ny) / ny
        fz = np.arange(nz) / nz
        FX, FY, FZ = np.meshgrid(fx, fy, fz, indexing="ij")
        frac = np.stack([FX, FY, FZ], axis=-1).reshape(-1, 3)
        cart = self.lattice.to_cart(frac)
        phases = cart @ self.gvecs.T  # (npts, norb)
        vals = np.where(self.is_cos[None, :], np.cos(phases), np.sin(phases))
        return vals.reshape(nx, ny, nz, self.norb)


def build_planewave_spline(lattice: CrystalLattice, norb: int,
                           grid: Sequence[int], dtype=np.float32) -> BSpline3D:
    """Synthesize a B-spline orbital table from plane-wave samples.

    This is the paper-substitution for the DFT-generated einspline tables:
    same storage, same evaluation kernels, physically-smooth contents.
    """
    pw = PlaneWaveSPOSet(lattice, norb)
    vals = pw.sample_on_grid(grid)
    return BSpline3D.fit(vals, lattice.inverse, dtype=dtype)
