"""``Buffer<T>`` — the anonymous walker buffer (``PooledData`` in QMCPACK).

The reference implementation's *store-over-compute* policy serializes the
complete internal state of every wavefunction component (distance tables,
Jastrow value/gradient/laplacian matrices, determinant inverses, …) into
one flat scalar buffer per walker.  Components ``register`` their payloads
once to reserve space, then ``put``/``get`` them each time a walker is
loaded into or stored from the per-thread compute objects.

The optimized code path shrinks what goes in here — that is precisely the
paper's Jastrow 5N² → 5N reduction — so the buffer also doubles as the
ground truth for the walker message size in the load-balancing model.
"""

from __future__ import annotations

import numpy as np


class WalkerBuffer:
    """A flat, append-only scalar pool with sequential get/put cursors.

    Usage mirrors QMCPACK's PooledData:

    1. *Registration*: each component calls :meth:`register` with its
       arrays; the buffer records sizes and reserves space.
    2. *Store*: :meth:`rewind` then :meth:`put` in registration order.
    3. *Load*: :meth:`rewind` then :meth:`get` in registration order.
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._data = np.zeros(0, dtype=self.dtype)
        self._cursor = 0
        self._sealed = False

    # -- registration phase ----------------------------------------------------
    def register(self, array: np.ndarray) -> slice:
        """Reserve space for ``array`` (flattened) and copy its contents in.

        Returns the slice of the pool assigned to this payload.
        """
        if self._sealed:
            raise RuntimeError("buffer already sealed; cannot register more data")
        flat = np.asarray(array, dtype=self.dtype).ravel()
        start = self._data.size
        self._data = np.concatenate([self._data, flat])
        return slice(start, start + flat.size)

    def register_scalar(self, value: float) -> slice:
        return self.register(np.array([value], dtype=self.dtype))

    def seal(self) -> None:
        """Freeze the layout; subsequent register() calls are errors."""
        self._sealed = True
        self._cursor = 0

    # -- cursor phase ------------------------------------------------------------
    def rewind(self) -> None:
        self._cursor = 0

    def put(self, array: np.ndarray) -> None:
        """Copy ``array`` into the pool at the cursor, advancing it."""
        flat = np.asarray(array).ravel()
        end = self._cursor + flat.size
        if end > self._data.size:
            raise ValueError(
                f"put of {flat.size} scalars overflows buffer "
                f"(cursor={self._cursor}, size={self._data.size})")
        self._data[self._cursor:end] = flat
        self._cursor = end

    def put_scalar(self, value: float) -> None:
        self.put(np.array([value]))

    def get(self, out: np.ndarray) -> np.ndarray:
        """Fill ``out`` from the pool at the cursor, advancing it."""
        n = out.size
        end = self._cursor + n
        if end > self._data.size:
            raise ValueError(
                f"get of {n} scalars overruns buffer "
                f"(cursor={self._cursor}, size={self._data.size})")
        out.ravel()[:] = self._data[self._cursor:end].reshape(-1).astype(out.dtype)
        self._cursor = end
        return out

    def get_scalar(self) -> float:
        out = np.zeros(1, dtype=self.dtype)
        self.get(out)
        return float(out[0])

    # -- bookkeeping ---------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of scalars held."""
        return self._data.size

    @property
    def nbytes(self) -> int:
        """Message size in bytes if this walker were sent over the wire."""
        return self._data.nbytes

    def as_array(self) -> np.ndarray:
        """The raw pool (a view) — what a Walker checkpoint stores."""
        return self._data

    def copy(self) -> "WalkerBuffer":
        out = WalkerBuffer(self.dtype)
        out._data = self._data.copy()
        out._sealed = self._sealed
        return out

    def __repr__(self) -> str:
        return f"WalkerBuffer(size={self.size}, dtype={self.dtype.name})"
