"""Crystal lattice: cell matrix, reciprocal vectors, minimum image."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.containers.tinyvector import TinyVector


class CrystalLattice:
    """A 3D periodic (or open) simulation cell.

    Parameters
    ----------
    axes:
        (3, 3) row-major cell matrix; row ``i`` is lattice vector ``a_i``.
        ``None`` means open boundary conditions (molecules — the Be-64
        benchmark without pseudopotentials still uses a box; open BC is
        kept for validation systems).
    """

    def __init__(self, axes: Sequence[Sequence[float]] | None):
        if axes is None:
            self.periodic = False
            self.axes = None
            self.inverse = None
            self.volume = math.inf
            return
        a = np.asarray(axes, dtype=np.float64)
        if a.shape != (3, 3):
            raise ValueError(f"cell matrix must be 3x3, got {a.shape}")
        det = float(np.linalg.det(a))
        if abs(det) < 1e-12:
            raise ValueError("cell matrix is singular")
        self.periodic = True
        self.axes = a
        self.inverse = np.linalg.inv(a)
        self.volume = abs(det)
        # Orthogonal cells admit the exact fast rounding path; skewed
        # cells need the neighbor-image refinement (see min_image_disp).
        self.orthogonal = bool(np.allclose(a - np.diag(np.diag(a)), 0.0))
        # Exactly diagonal cells (every catalog workload) reduce the SoA
        # minimum image to one scale / rint / scale per axis.
        offdiag = ~np.eye(3, dtype=bool)
        self._diagonal = bool(np.all(a[offdiag] == 0.0)
                              and np.all(self.inverse[offdiag] == 0.0))
        if not self.orthogonal:
            ij = np.mgrid[-1:2, -1:2, -1:2].reshape(3, -1).T
            self._image_shifts = ij.astype(np.float64) @ a
        else:
            self._image_shifts = None

    # -- constructors -----------------------------------------------------------
    @classmethod
    def cubic(cls, a: float) -> "CrystalLattice":
        return cls(np.eye(3) * a)

    @classmethod
    def orthorhombic(cls, a: float, b: float, c: float) -> "CrystalLattice":
        return cls(np.diag([a, b, c]))

    @classmethod
    def open_bc(cls) -> "CrystalLattice":
        return cls(None)

    # -- geometry ---------------------------------------------------------------
    @property
    def reciprocal(self) -> np.ndarray:
        """Reciprocal lattice vectors (rows), 2*pi * inv(axes).T."""
        if not self.periodic:
            raise ValueError("open cell has no reciprocal lattice")
        return 2.0 * math.pi * self.inverse.T

    @property
    def wigner_seitz_radius(self) -> float:
        """Radius of the largest sphere inscribed in the cell — the safe
        cutoff radius for real-space pair functions."""
        if not self.periodic:
            return math.inf
        # Distance from origin to the nearest face plane of the Voronoi cell.
        cross = [np.cross(self.axes[(i + 1) % 3], self.axes[(i + 2) % 3])
                 for i in range(3)]
        return min(
            0.5 * self.volume / np.linalg.norm(c) for c in cross)

    @property
    def min_image_odd(self) -> bool:
        """Whether :meth:`min_image_soa` is an odd function bit for bit:
        the image of ``-d`` is exactly minus the image of ``d``, so an
        all-pairs table is exactly antisymmetric and its upper triangle
        can be copied from the lower one.  Scale, ``rint`` and the
        fractional transform are odd; the skewed cell's 27-image scan is
        not — it keeps the *first* shortest candidate, and negating ``d``
        reverses the scan order, so an exact tie resolves to the other
        image (``tests/backend/test_pair_symmetry.py``)."""
        return not self.periodic or self.orthogonal

    def to_frac(self, r: np.ndarray) -> np.ndarray:
        """Cartesian -> fractional coordinates (works on (..., 3) arrays)."""
        if not self.periodic:
            raise ValueError("open cell has no fractional coordinates")
        return np.asarray(r) @ self.inverse

    def to_cart(self, s: np.ndarray) -> np.ndarray:
        """Fractional -> Cartesian coordinates (works on (..., 3) arrays)."""
        if not self.periodic:
            raise ValueError("open cell has no fractional coordinates")
        return np.asarray(s) @ self.axes

    def wrap(self, r: np.ndarray) -> np.ndarray:
        """Wrap Cartesian positions into the home cell, [0, 1)^3 fractional."""
        if not self.periodic:
            return np.asarray(r, dtype=np.float64)
        s = self.to_frac(r)
        return self.to_cart(s - np.floor(s))

    # -- minimum image: vectorized (SoA/Current) path ---------------------------
    def min_image_disp(self, dr: np.ndarray) -> np.ndarray:
        """Apply the minimum-image convention to displacement(s) ``dr``.

        Accepts (..., 3) arrays; vectorized over all leading axes.
        Orthogonal cells use exact nearest-lattice-point rounding; skewed
        cells refine the rounded image over its 27 neighbors (rounding
        alone is *not* exact for non-orthogonal cells — the brute-force
        tests demonstrate it fails already at a few percent skew).
        The refinement materializes a (..., 27, 3) intermediate; chunk
        very large batches if memory matters.
        """
        dr = np.asarray(dr, dtype=np.float64)
        if not self.periodic:
            return dr
        s = dr @ self.inverse
        s -= np.rint(s)
        d0 = s @ self.axes
        if self.orthogonal:
            return d0
        cand = d0[..., None, :] + self._image_shifts  # (..., 27, 3)
        d2 = np.sum(cand * cand, axis=-1)
        idx = np.argmin(d2, axis=-1)
        return np.take_along_axis(
            cand, idx[..., None, None], axis=-2).squeeze(-2)

    def min_image_soa(self, dx: np.ndarray, dy: np.ndarray,
                      dz: np.ndarray) -> None:
        """:meth:`min_image_disp` on SoA components, in place.

        ``dx``/``dy``/``dz`` are same-shape float64 component blocks and
        are overwritten with the minimum-image displacement; scratch is
        a small constant number of blocks of that shape, never a
        ``(..., 3)`` or ``(..., 27, 3)`` array.  On an exactly diagonal
        cell each axis is scale / ``rint`` / scale, bitwise the
        ``min_image_disp`` result (its GEMMs only add exact zeros).
        Otherwise the fractional transform is written out per component
        and, on a skewed cell, the 27 neighbor images are scanned one
        shift at a time, keeping the first shortest candidate exactly as
        ``argmin`` does.
        """
        if not self.periodic:
            return
        comps = (dx, dy, dz)
        if self._diagonal:
            for c, comp in enumerate(comps):
                comp *= self.inverse[c, c]
                comp -= np.rint(comp)
                comp *= self.axes[c, c]
            return
        inv, ax = self.inverse, self.axes
        frac = [dx * inv[0, j] + dy * inv[1, j] + dz * inv[2, j]
                for j in range(3)]
        for s in frac:
            s -= np.rint(s)
        for j, comp in enumerate(comps):
            comp[...] = frac[0] * ax[0, j] + frac[1] * ax[1, j] \
                + frac[2] * ax[2, j]
        if self.orthogonal:
            return
        del frac  # the scan's scratch bound counts live blocks
        base = [comp.copy() for comp in comps]
        best2 = np.full(dx.shape, np.inf)
        for shift in self._image_shifts:
            cand = [b + sc for b, sc in zip(base, shift)]
            c2 = cand[0] * cand[0] + cand[1] * cand[1] + cand[2] * cand[2]
            closer = c2 < best2
            np.copyto(best2, c2, where=closer)
            for comp, cnd in zip(comps, cand):
                np.copyto(comp, cnd, where=closer)

    def min_image_dist(self, dr: np.ndarray) -> np.ndarray:
        """Minimum-image distances for displacement(s) ``dr`` of shape (..., 3)."""
        d = self.min_image_disp(dr)
        return np.sqrt(np.sum(np.square(d), axis=-1))

    # -- minimum image: scalar (AoS/Ref) path ------------------------------------
    def min_image_disp_scalar(self, dr: TinyVector) -> TinyVector:
        """Scalar minimum image for one TinyVector — the Ref code path.

        Deliberately component-by-component interpreted arithmetic: this is
        what 'AoS scalar code on a wide-SIMD machine' costs.
        """
        if not self.periodic:
            return dr.copy()
        inv = self.inverse
        ax = self.axes
        s = [dr.x[0] * inv[0, j] + dr.x[1] * inv[1, j] + dr.x[2] * inv[2, j]
             for j in range(3)]
        s = [si - round(si) for si in s]
        out = [s[0] * ax[0, j] + s[1] * ax[1, j] + s[2] * ax[2, j]
               for j in range(3)]
        if not self.orthogonal:
            # Neighbor-image refinement, scalar flavor.
            best = out
            best2 = out[0] ** 2 + out[1] ** 2 + out[2] ** 2
            for shift in self._image_shifts:
                cx = out[0] + shift[0]
                cy = out[1] + shift[1]
                cz = out[2] + shift[2]
                c2 = cx * cx + cy * cy + cz * cz
                if c2 < best2:
                    best = [cx, cy, cz]
                    best2 = c2
            return TinyVector(best)
        return TinyVector(out)

    def __repr__(self) -> str:
        if not self.periodic:
            return "CrystalLattice(open)"
        return f"CrystalLattice(volume={self.volume:.4f})"
