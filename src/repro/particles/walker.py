"""Walker — one Monte Carlo sample with DMC branching metadata."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.containers.buffer import WalkerBuffer


class Walker:
    """A single walker: configuration + weight/age + anonymous buffer.

    Matches the paper's Fig. 4 Walker: positions in AoS layout and a
    ``Buffer<T>`` of anonymous scalars reconstructing the complete
    wavefunction state without recomputation (reference policy).  The
    optimized code shrinks the buffer contents instead of removing it.
    """

    def __init__(self, n: int, dtype=np.float64):
        self.R = np.zeros((n, 3), dtype=np.float64)
        self.weight: float = 1.0
        self.multiplicity: float = 1.0
        self.age: int = 0
        self.properties: Dict[str, float] = {
            "logpsi": 0.0,
            "local_energy": 0.0,
        }
        self.buffer = WalkerBuffer(dtype=dtype)

    @property
    def n(self) -> int:
        return self.R.shape[0]

    @classmethod
    def from_positions(cls, positions: np.ndarray, dtype=np.float64) -> "Walker":
        positions = np.asarray(positions, dtype=np.float64)
        w = cls(positions.shape[0], dtype=dtype)
        w.R[...] = positions
        return w

    def copy(self) -> "Walker":
        out = Walker(self.n, dtype=self.buffer.dtype)
        out.R[...] = self.R
        out.weight = self.weight
        out.multiplicity = self.multiplicity
        out.age = self.age
        out.properties = dict(self.properties)
        out.buffer = self.buffer.copy()
        return out

    def message_nbytes(self) -> int:
        """Bytes a load-balancing send would move: positions + metadata
        + anonymous buffer."""
        meta = 8 * (3 + len(self.properties))  # weight, multiplicity, age + props
        return self.R.nbytes + meta + self.buffer.nbytes

    def __repr__(self) -> str:
        return (f"Walker(n={self.n}, weight={self.weight:.4f}, "
                f"mult={self.multiplicity:.2f}, age={self.age})")
