"""``VectorSoaContainer<T,D>`` — the paper's central SoA container (Fig. 5).

Stores D rows of ``Np`` elements each (``Np`` = ``N`` rounded up to a whole
number of cache lines), so a D-dimensional attribute of N particles lives
as ``data[D][Np]`` instead of ``R[N][D]``.  Rows are contiguous and padded,
which is what lets the compiler (here: NumPy) run one vector operation per
row instead of N scalar operations.

The container interoperates with its AoS counterparts in place:
``copy_in`` accepts either an ``(N, D)`` ndarray or a list of
:class:`~repro.containers.tinyvector.TinyVector` (the AoS-to-SoA
assignment of ``loadWalker``).
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union

import numpy as np

from repro.containers.aligned import CACHE_LINE_BYTES, aligned_empty, padded_size
from repro.containers.tinyvector import TinyVector
from repro.precision.policy import resolve_value_dtype

AosLike = Union[np.ndarray, Sequence[TinyVector]]


class VectorSoaContainer:
    """A padded, aligned structure-of-arrays container of shape (D, Np).

    ``dtype`` may be a dtype-like, a :class:`~repro.precision.policy.
    PrecisionPolicy` (its ``value_dtype`` is used), or ``None`` for the
    default element type.
    """

    def __init__(self, n: int, d: int = 3, dtype=None,
                 alignment: int = CACHE_LINE_BYTES):
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if d < 1:
            raise ValueError(f"d must be positive, got {d}")
        self.n = int(n)
        self.d = int(d)
        self.dtype = resolve_value_dtype(dtype)
        self.alignment = int(alignment)
        self.np = padded_size(self.n, self.dtype, alignment)
        self.data = aligned_empty((self.d, self.np), self.dtype, alignment)
        # Zero the padding so reductions over full rows are safe.
        self.data[:, self.n:] = 0

    # -- element access --------------------------------------------------------
    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> np.ndarray:
        """Return particle ``i``'s D components (a strided gather, like the
        C++ ``operator[]`` returning a TinyVector)."""
        if not -self.n <= i < self.n:
            raise IndexError(f"particle index {i} out of range for n={self.n}")
        return self.data[:, i % self.n].copy()

    def __setitem__(self, i: int, value: Iterable[float]) -> None:
        if not -self.n <= i < self.n:
            raise IndexError(f"particle index {i} out of range for n={self.n}")
        self.data[:, i % self.n] = np.asarray(list(value), dtype=self.dtype)

    def row(self, dim: int) -> np.ndarray:
        """The contiguous row of one Cartesian component, *excluding* padding."""
        return self.data[dim, : self.n]

    # -- AoS interop -----------------------------------------------------------
    def copy_in(self, aos: AosLike) -> "VectorSoaContainer":
        """AoS-to-SoA assignment (``Rsoa = awalker.R`` in Fig. 5)."""
        if isinstance(aos, np.ndarray):
            if aos.shape != (self.n, self.d):
                raise ValueError(
                    f"expected shape {(self.n, self.d)}, got {aos.shape}")
            self.data[:, : self.n] = aos.T
        else:
            if len(aos) != self.n:
                raise ValueError(f"expected {self.n} elements, got {len(aos)}")
            for i, tv in enumerate(aos):
                self.data[:, i] = tv.x
        return self

    # -- bookkeeping -----------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes held including padding — what the allocator really charged."""
        return self.data.nbytes

    def astype(self, dtype) -> "VectorSoaContainer":
        """Return a copy of this container with a different element type."""
        out = VectorSoaContainer(self.n, self.d, dtype)
        out.data[:, : self.n] = self.data[:, : self.n].astype(dtype)
        return out

    def copy(self) -> "VectorSoaContainer":
        out = VectorSoaContainer(self.n, self.d, self.dtype)
        out.data[...] = self.data
        return out

    def __repr__(self) -> str:
        return (f"VectorSoaContainer(n={self.n}, d={self.d}, "
                f"np={self.np}, dtype={self.dtype.name})")
