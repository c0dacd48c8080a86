"""Runtime sanitizers: the kernel and concurrency contracts, checked on
live state.

Five checkers catch violations that only materialize on real data:

* :class:`DtypeSanitizer` — raises on silent ``float64`` upcasts of
  value-precision arrays under a mixed policy (the 5N²→5N and SP-memory
  wins silently evaporate when a kernel upcasts).
* :class:`LayoutSanitizer` — asserts SoA buffers stay C-contiguous and
  cache-aligned with zeroed padding (reductions over padded rows are only
  safe when the padding is zero).
* :class:`ForwardUpdateChecker` — cross-checks incrementally-updated
  distance-table rows/columns against a from-scratch recompute: the
  paper's drift safeguard for the forward-update scheme (Fig. 6b) and
  single-precision accumulation error.
* :class:`ShmRaceSanitizer` — checksums shared-memory regions over the
  windows in which the zero-copy epoch protocol says nobody writes, and
  raises on out-of-band mutation.
* :class:`RngStreamSanitizer` — patches the *global* NumPy RNG entry
  points to fail fast, so a stray ``np.random.normal()`` inside a
  generation dies loudly instead of silently desynchronizing the
  per-walker streams.

All are toggled by ``REPRO_SANITIZE=1`` (see :func:`sanitizers_enabled`);
the QMC drivers consult that flag and run a :class:`SanitizerSuite`
after accepted moves and at measurement time, and the parallel crowd
driver arms the two concurrency sanitizers around each generation.
:class:`CollectiveOrderError` is raised armed or not: the crowd pool's
parent checks every worker reply against the command it sent.
"""

from __future__ import annotations

import functools
import os
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.precision.policy import PrecisionPolicy

#: process-wide override used by the pytest ``sanitize`` fixture; None
#: defers to the REPRO_SANITIZE environment variable.
_FORCED: Optional[bool] = None


class SanitizerError(AssertionError):
    """A kernel, layout or concurrency contract was violated at run time."""


class ShmRaceError(SanitizerError):
    """A sealed shared-memory region changed while it was supposed to be
    quiescent — an out-of-band write raced the zero-copy epoch protocol."""


class RngStreamError(SanitizerError):
    """Global NumPy RNG state was touched while per-walker SeedSequence
    streams were mandated (inside a generation, sanitizers armed)."""


class CollectiveOrderError(SanitizerError):
    """A crowd worker's reply did not match the command the parent sent
    it (wrong kind or wrong step) — the pool's one-command-one-reply
    order broke."""


def sanitizers_enabled() -> bool:
    """True when runtime sanitizers should run (env or forced override)."""
    if _FORCED is not None:
        return _FORCED
    return os.environ.get("REPRO_SANITIZE", "0").lower() in (
        "1", "true", "yes", "on")


def force_sanitizers(enabled: Optional[bool]) -> None:
    """Override the env toggle (``None`` restores env behavior)."""
    global _FORCED
    _FORCED = enabled


class DtypeSanitizer:
    """Catch silent float64 upcasts of value-precision data.

    Under a mixed policy every *value* array (positions, distance rows,
    spline reads) must carry ``policy.value_dtype``; accumulators are
    checked against ``policy.accum_dtype``.  Under a full-precision
    policy the checks are vacuous (everything is float64).
    """

    def __init__(self, policy: PrecisionPolicy):
        self.policy = policy

    def check_array(self, name: str, arr) -> None:
        """Assert one value-precision ndarray has the policy dtype."""
        if not (self.policy.is_mixed and isinstance(arr, np.ndarray)):
            return
        if arr.dtype.kind == "f" and arr.dtype != self.policy.value_dtype:
            raise SanitizerError(
                f"dtype sanitizer: '{name}' is {arr.dtype.name} but the "
                f"'{self.policy.name}' policy mandates value_dtype="
                f"{self.policy.value_dtype.name} — a kernel silently "
                f"upcast (or never downcast) this buffer")

    def check_accum(self, name: str, arr) -> None:
        """Assert an accumulator array has the accumulation dtype."""
        if not isinstance(arr, np.ndarray):
            return
        if arr.dtype.kind == "f" and arr.dtype != self.policy.accum_dtype:
            raise SanitizerError(
                f"dtype sanitizer: accumulator '{name}' is "
                f"{arr.dtype.name} but per-walker sums must use "
                f"accum_dtype={self.policy.accum_dtype.name}")

    def wrap(self, fn, label: Optional[str] = None):
        """Wrap a kernel so its ndarray results are dtype-checked.

        Tuples/lists of arrays are checked element-wise; non-array
        results pass through untouched.
        """
        name = label or getattr(fn, "__qualname__", repr(fn))

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            out = fn(*args, **kwargs)
            results = out if isinstance(out, (tuple, list)) else (out,)
            for i, r in enumerate(results):
                self.check_array(f"{name}[{i}]", r)
            return out

        return checked


class LayoutSanitizer:
    """Assert SoA buffers keep the layout the kernels were sold.

    * C-contiguous storage (strided views would silently de-vectorize);
    * data pointer aligned to the container's alignment;
    * zeroed padding columns (row reductions include the padding).
    """

    def check_container(self, vsc) -> None:
        """Validate a :class:`~repro.containers.vsc.VectorSoaContainer`."""
        data = vsc.data
        if not data.flags["C_CONTIGUOUS"]:
            raise SanitizerError(
                f"layout sanitizer: {vsc!r} data is not C-contiguous")
        alignment = getattr(vsc, "alignment", 0)
        if alignment and data.ctypes.data % alignment != 0:
            raise SanitizerError(
                f"layout sanitizer: {vsc!r} data pointer "
                f"0x{data.ctypes.data:x} is not {alignment}-byte aligned")
        if vsc.np > vsc.n and not np.all(data[:, vsc.n:] == 0):
            raise SanitizerError(
                f"layout sanitizer: {vsc!r} padding columns "
                f"[{vsc.n}:{vsc.np}] are not zero — row reductions over "
                f"the padded row are unsafe")

    def check_table(self, table) -> None:
        """Validate an SoA distance table's row storage, if it has any."""
        distances = getattr(table, "distances", None)
        displacements = getattr(table, "displacements", None)
        if not isinstance(distances, np.ndarray):
            return  # packed/reference tables have no row invariants
        for name, arr in (("distances", distances),
                          ("displacements", displacements)):
            if isinstance(arr, np.ndarray) and not arr.flags["C_CONTIGUOUS"]:
                raise SanitizerError(
                    f"layout sanitizer: {type(table).__name__}.{name} "
                    f"is not C-contiguous")
        if np.isnan(distances).any():
            raise SanitizerError(
                f"layout sanitizer: {type(table).__name__}.distances "
                f"contains NaN")
        # Displacement padding must stay zero (rows are reduced whole).
        n_src = getattr(table, "ns", getattr(table, "n", None))
        if isinstance(displacements, np.ndarray) and n_src is not None \
                and displacements.shape[-1] > n_src \
                and not np.all(displacements[..., n_src:] == 0):
            raise SanitizerError(
                f"layout sanitizer: {type(table).__name__}.displacements "
                f"padding beyond column {n_src} is not zero")


class ForwardUpdateChecker:
    """Cross-check incremental distance-table state against recompute.

    The forward-update scheme guarantees (a) row ``k`` is exact right
    after the sweep visits particle ``k``, and (b) for tables with
    column maintenance, entries ``k' > k`` of column ``k`` are exact.
    This checker recomputes those entries from the canonical positions
    (in double precision — the paper's periodic-recompute safeguard) and
    raises on drift beyond the table dtype's tolerance.
    """

    def __init__(self, tol_factor: float = 1e4):
        self.tol_factor = tol_factor

    def _tol(self, table) -> float:
        dtype = getattr(table, "dtype", np.dtype(np.float64))
        if np.dtype(dtype).kind != "f":
            return 1e-10
        return self.tol_factor * float(np.finfo(dtype).eps)

    def _brute_row(self, table, P, k: int) -> np.ndarray:
        source = getattr(table, "source", None)
        if source is not None:  # AB table: distances to fixed sources
            return P.lattice.min_image_dist(source.R - P.R[k])
        return P.lattice.min_image_dist(P.R - P.R[k])

    def check_row(self, table, P, k: int) -> None:
        """Row ``k`` (just updated) must match a from-scratch recompute."""
        if not isinstance(getattr(table, "distances", None), np.ndarray):
            return
        brute = self._brute_row(table, P, k)
        row = np.asarray(table.dist_row(k), dtype=np.float64)
        mask = np.ones(brute.shape[0], dtype=bool)
        if getattr(table, "source", None) is None:
            mask[k] = False  # self-distance holds the BIG sentinel
        tol = self._tol(table)
        scale = max(1.0, float(np.max(brute[mask], initial=0.0)))
        bad = ~np.isclose(row[mask], brute[mask], rtol=tol, atol=tol * scale)
        if bad.any():
            idx = int(np.flatnonzero(mask)[np.argmax(bad)])
            raise SanitizerError(
                f"forward-update checker: {type(table).__name__} row {k} "
                f"entry {idx} is stale: table={row[idx]:.8g} "
                f"recompute={brute[idx]:.8g} (tol={tol:.2g})")

    def check_column(self, table, P, k: int) -> None:
        """Forward entries ``k' > k`` of column ``k`` must be current."""
        if not getattr(table, "forward_update", False):
            return  # compute-on-the-fly tables keep no forward column
        n = table.n
        if k + 1 >= n:
            return
        brute = P.lattice.min_image_dist(P.R[k + 1:n] - P.R[k])
        col = np.asarray(table.distances[k + 1:n, k], dtype=np.float64)
        tol = self._tol(table)
        scale = max(1.0, float(np.max(brute, initial=0.0)))
        bad = ~np.isclose(col, brute, rtol=tol, atol=tol * scale)
        if bad.any():
            kp = k + 1 + int(np.argmax(bad))
            raise SanitizerError(
                f"forward-update checker: {type(table).__name__} forward "
                f"column entry d({kp}, {k}) is stale: table="
                f"{col[kp - k - 1]:.8g} recompute={brute[kp - k - 1]:.8g} "
                f"(tol={tol:.2g}) — column update after a rejected move?")


class SanitizerSuite:
    """The driver-facing bundle: all three sanitizers behind two hooks."""

    def __init__(self, policy: PrecisionPolicy):
        self.policy = policy
        self.dtype = DtypeSanitizer(policy)
        self.layout = LayoutSanitizer()
        self.forward = ForwardUpdateChecker()

    def after_accept(self, P, k: int) -> None:
        """Run after a committed PbyP move: incremental state is fresh."""
        for t in P.distance_tables:
            self.forward.check_row(t, P, k)
            self.forward.check_column(t, P, k)

    def check_state(self, P, twf=None, walker: Optional[int] = None) -> None:
        """Run at measurement time: layout + dtype of all hot buffers,
        and ``twf``'s carried J1 arrays (:func:`check_carried_j1`);
        ``walker`` names the loaded walker in the error."""
        if P.Rsoa is not None:
            self.layout.check_container(P.Rsoa)
            self.dtype.check_array(f"{P.name}.Rsoa", P.Rsoa.data)
        for t in P.distance_tables:
            self.layout.check_table(t)
            distances = getattr(t, "distances", None)
            if isinstance(distances, np.ndarray):
                self.dtype.check_array(
                    f"{type(t).__name__}.distances", distances)
        if twf is not None:
            check_carried_j1(twf.components, P.distance_tables, walker)


def check_carried_j1(components, tables, walker: Optional[int] = None) -> None:
    """Every component carrying J1's per-electron ``U``/``dU``/``d2U``
    (it has ``fresh_rows``) must hold exactly a fresh ``rows_vgl`` pass
    over its table.  Batched arrays lead with the crowd's walker axis; a
    per-walker component's are one walker's, named ``walker`` in the
    error.  The pass goes to the process's kernel object directly, not
    through ``active()``, so a counting proxy sees only the driver's own
    calls."""
    from repro.backend import get_backend, use_backend

    for c in components:
        if not hasattr(c, "fresh_rows"):
            continue
        with use_backend(get_backend()):
            fresh = c.fresh_rows(tables[c.table_index])
        for channel, got, want in zip(("U", "dU", "d2U"),
                                      (c.U, c.dU, c.d2U), fresh):
            bad = np.argwhere(got != want)
            if not len(bad):
                continue
            idx = tuple(int(i) for i in bad[0])
            w, k, *axis = ("?" if walker is None else walker,) + idx \
                if c.U.ndim == 1 else idx
            raise SanitizerError(
                f"carried-J1 checker: {type(c).__name__} walker #{w} "
                f"electron {k} channel {channel}"
                f"{f' axis {axis[0]}' if axis else ''} is "
                f"{float(got[idx])!r}, a fresh rows_vgl pass gives "
                f"{float(want[idx])!r}")


class ShmRaceSanitizer:
    """Checksum shared-memory regions across their quiescent windows.

    The zero-copy contract (docs/parallel_crowds.md) divides time into
    epochs: between the parent's post-generation commit and the next
    generation command (or the final "stop" reply), *nobody* writes the
    walker-state block.  This sanitizer seals a CRC32 over each such
    region when its quiescent window opens and verifies it when the
    window closes — any mutation in between is a race that the
    bitwise-determinism suite might only catch probabilistically,
    surfaced here deterministically.
    """

    def __init__(self):
        #: label -> (crc32, nbytes) sealed at window open
        self._seals: Dict[str, Tuple[int, int]] = {}

    @staticmethod
    def _checksum(arr: np.ndarray) -> Tuple[int, int]:
        data = np.ascontiguousarray(arr)
        raw = data.tobytes()
        return zlib.crc32(raw), len(raw)

    def seal(self, label: str, arr: np.ndarray) -> None:
        """Open a quiescent window over ``arr`` (replaces any prior seal
        with the same label)."""
        self._seals[label] = self._checksum(arr)

    def verify(self, label: str, arr: np.ndarray) -> None:
        """Close the window: raise :class:`ShmRaceError` when the region
        changed since :meth:`seal`.  The seal is consumed either way."""
        sealed = self._seals.pop(label, None)
        if sealed is None:
            return
        current = self._checksum(arr)
        if current != sealed:
            raise ShmRaceError(
                f"shm race sanitizer: region '{label}' mutated during its "
                f"quiescent window (crc {sealed[0]:#010x} -> "
                f"{current[0]:#010x}) — an out-of-band write raced the "
                f"zero-copy epoch protocol")

    def release(self, label: str) -> None:
        """Drop a seal without verifying (legitimate writer took over)."""
        self._seals.pop(label, None)

    def clear(self) -> None:
        """Drop every seal — used on crash recovery, where the restored
        checkpoint legitimately rewrites all shared state."""
        self._seals.clear()

    @property
    def sealed(self) -> List[str]:
        return sorted(self._seals)


class RngStreamSanitizer:
    """Make global NumPy RNG draws fail fast while armed.

    The determinism contract mandates per-walker ``SeedSequence``
    streams (walker ``w`` owns stream ``w``); a single global draw
    inside a generation silently shifts every subsequent stream.  This
    sanitizer catches every such draw (direct calls, third-party
    helpers, getattr indirection) by monkeypatching the stateful
    ``np.random`` module functions with raisers.

    Stream *construction* stays allowed: ``np.random.default_rng``,
    ``SeedSequence``, ``Generator`` and the bit generators are untouched.
    Arming is reference counted at class level so nested arm/disarm
    pairs (driver around worker, suite around test) compose, and the
    patch is per-process — workers arm their own copy after spawn/fork.
    """

    #: stateful module-level entry points that draw from or reseed the
    #: process-global RandomState
    PATCHED = (
        "seed", "random", "random_sample", "rand", "randn", "randint",
        "normal", "uniform", "standard_normal", "exponential", "choice",
        "shuffle", "permutation", "gamma", "beta", "poisson", "binomial",
        "bytes", "get_state", "set_state",
    )

    _depth: int = 0
    _saved: Dict[str, object] = {}

    @classmethod
    def _raiser(cls, name: str):
        def blocked(*args, **kwargs):
            raise RngStreamError(
                f"rng stream sanitizer: np.random.{name}() called while "
                f"armed — global RNG state breaks the per-walker "
                f"SeedSequence streams; draw from the walker's Generator "
                f"(repro.rng.walker_streams) instead")
        blocked.__name__ = f"blocked_{name}"
        blocked.__qualname__ = f"RngStreamSanitizer.{name}"
        return blocked

    @classmethod
    def arm(cls) -> None:
        cls._depth += 1
        if cls._depth > 1:
            return
        for name in cls.PATCHED:
            original = getattr(np.random, name, None)
            if original is None:  # pragma: no cover - numpy version skew
                continue
            cls._saved[name] = original
            setattr(np.random, name, cls._raiser(name))

    @classmethod
    def disarm(cls) -> None:
        if cls._depth == 0:
            return
        cls._depth -= 1
        if cls._depth:
            return
        for name, original in cls._saved.items():
            setattr(np.random, name, original)
        cls._saved = {}

    @classmethod
    def armed(cls) -> bool:
        return cls._depth > 0

    def __enter__(self) -> "RngStreamSanitizer":
        self.arm()
        return self

    def __exit__(self, *exc) -> None:
        self.disarm()
