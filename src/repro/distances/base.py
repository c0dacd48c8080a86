"""Common distance-table interface."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

#: Sentinel stored on the AA diagonal so finite-cutoff functors and
#: 1/r kernels mask the self-interaction out without branching.
BIG_DISTANCE = 1.0e30


class DistanceTable(ABC):
    """Abstract distance table attached to a target ParticleSet.

    Life cycle per Monte Carlo step (PbyP sweep):

    * :meth:`evaluate` — full recompute from the target's positions
      (walker load, and again before measurements);
    * :meth:`set_active` — make the current row of particle ``k`` exact
      before anything reads it for the move (the compute-on-the-fly
      flavor recomputes it; every other flavor keeps it exact already);
    * :meth:`move` — fill ``temp_r``/``temp_dr`` for a proposed position
      of particle ``k``;
    * :meth:`update` — commit the temporaries after acceptance.
    """

    #: profile category this table reports to ("DistTable-AA"/"DistTable-AB")
    category: str = "DistTable"

    @abstractmethod
    def evaluate(self, P) -> None:
        """Recompute the whole table from P's current positions."""

    def set_active(self, P, k: int) -> None:
        """Row ``k`` is read next (drift, then ratio); nothing to do for
        a table whose rows stay current."""

    @abstractmethod
    def move(self, P, rnew: np.ndarray, k: int) -> None:
        """Compute temporary distances from proposed position ``rnew`` of
        particle ``k`` to every source."""

    @abstractmethod
    def update(self, k: int) -> None:
        """Accept the proposed move of particle ``k``."""

    @abstractmethod
    def dist_row(self, k: int):
        """Distances from the *current* position of target ``k`` to sources."""

    @abstractmethod
    def disp_row(self, k: int):
        """Displacements r_source - r_k from the current position of ``k``."""

    def dist_row_array(self, k: int) -> np.ndarray:
        """:meth:`dist_row` normalized to a float64 ``(N,)`` ndarray.

        Ref flavors return plain Python lists and SoA flavors return array
        views; this boundary method gives consumers (the NLPP quadrature
        engine, ratio-only kernels) one dtype-stable shape without per-call
        ``isinstance`` dispatch in hot scopes.
        """
        row = self.dist_row(k)
        if isinstance(row, np.ndarray):
            return row
        return np.asarray(row, dtype=np.float64)

    def disp_row_array(self, k: int) -> np.ndarray:
        """:meth:`disp_row` normalized to a float64 ``(3, N)`` ndarray.

        Handles all three flavors at the boundary: SoA ``(3, N)`` views
        pass through, while Ref flavors returning ``List[TinyVector]`` are
        materialized component-wise.
        """
        row = self.disp_row(k)
        if isinstance(row, np.ndarray):
            return row
        out = np.empty((3, len(row)), dtype=np.float64)
        for j, tv in enumerate(row):
            comps = tv.x if hasattr(tv, "x") else tv
            out[0, j] = comps[0]
            out[1, j] = comps[1]
            out[2, j] = comps[2]
        return out

    @property
    @abstractmethod
    def storage_bytes(self) -> int:
        """Bytes of per-walker table storage (for the memory model)."""
