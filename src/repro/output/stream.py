"""Append-only chunked binary estimator traces + the driver stream bundle.

Replaces end-of-run in-memory array dumps: drivers append one row per
generation (per-walker local energies, weights and Hamiltonian
components) to an on-disk trace while feeding the same samples to the
online reblocker, so long runs report converged error bars *while
running* and can be killed and resumed bitwise.

File format (``repro.trace`` version 1)
---------------------------------------
::

    header:  b"RQTR" | u16 version | u16 reserved
             | u32 json_len | header_json | u32 crc32(header_json)
    chunk:   b"CHNK" | u64 chunk_index | u32 n_rows
             | u64 payload_len | payload | u32 crc32(payload)
    row:     u64 step | u32 nw | field_0 bytes | field_1 bytes | ...

``header_json`` is canonical (sorted keys, no timestamps) so two runs of
the same configuration produce byte-identical files — the restart
battery compares whole files with ``filecmp``/bytes equality.  Each
field is declared in the header as ``(name, dtype, tail_shape)`` and a
row stores its C-order bytes with leading axis ``nw`` (the walker
count, which may vary per row under DMC branching).  Every chunk is
independently CRC-protected; readers raise *typed* errors naming the
chunk (:class:`TraceCorruptionError`, :class:`TraceTruncationError`,
:class:`TraceSchemaError`) instead of returning garbage, and resuming a
writer re-validates the retained prefix so a restart refuses to
continue from a damaged trace.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass
from typing import (Dict, IO, Iterator, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from repro.metrics import METRICS
from repro.stats.online import OnlineScalarStats

__all__ = [
    "TRACE_VERSION",
    "TraceField",
    "TracePosition",
    "TraceError",
    "TraceSchemaError",
    "TraceCorruptionError",
    "TraceTruncationError",
    "TraceWriter",
    "TraceReader",
    "StreamSet",
]

TRACE_VERSION = 1

_HEADER_MAGIC = b"RQTR"
_CHUNK_MAGIC = b"CHNK"
_HEADER_FIXED = struct.Struct("<4sHHI")      # magic, version, reserved, json len
_CHUNK_FIXED = struct.Struct("<4sQIQ")       # magic, index, n_rows, payload len
_ROW_FIXED = struct.Struct("<QI")            # step, nw
_CRC = struct.Struct("<I")


class TraceField(NamedTuple):
    """One per-walker column: ``name``, numpy dtype string, tail shape."""

    name: str
    dtype: str
    shape: Tuple[int, ...] = ()


@dataclass(frozen=True)
class TracePosition:
    """Writer offset captured in run checkpoints (rows, chunks, bytes)."""

    rows: int = 0
    chunks: int = 0
    bytes: int = 0

    def as_array(self) -> np.ndarray:
        return np.array([self.rows, self.chunks, self.bytes], dtype=np.int64)

    @classmethod
    def from_array(cls, arr: np.ndarray) -> "TracePosition":
        a = np.asarray(arr, dtype=np.int64)
        return cls(rows=int(a[0]), chunks=int(a[1]), bytes=int(a[2]))


class TraceError(Exception):
    """Base class for trace format errors."""


class TraceSchemaError(TraceError):
    """Bad magic, unsupported version, or field declaration mismatch."""


class TraceCorruptionError(TraceError):
    """A CRC or structural check failed inside an identified chunk."""

    def __init__(self, message: str, path: str = "",
                 chunk_index: Optional[int] = None) -> None:
        super().__init__(message)
        self.path = path
        self.chunk_index = chunk_index


class TraceTruncationError(TraceError):
    """The file ends mid-chunk or before a checkpointed position."""

    def __init__(self, message: str, path: str = "",
                 chunk_index: Optional[int] = None) -> None:
        super().__init__(message)
        self.path = path
        self.chunk_index = chunk_index


def _encode_header(fields: Sequence[TraceField], meta: Mapping) -> bytes:
    doc = {
        "format": "repro.trace",
        "version": TRACE_VERSION,
        "fields": [{"name": f.name, "dtype": f.dtype,
                    "shape": list(f.shape)} for f in fields],
        "meta": dict(meta),
    }
    payload = json.dumps(doc, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    head = _HEADER_FIXED.pack(_HEADER_MAGIC, TRACE_VERSION, 0, len(payload))
    return head + payload + _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)


def _decode_header(fh: IO[bytes], path: str
                   ) -> Tuple[Tuple[TraceField, ...], Dict, int]:
    raw = fh.read(_HEADER_FIXED.size)
    if len(raw) < _HEADER_FIXED.size:
        raise TraceSchemaError(f"{path}: file too short for a trace header")
    magic, version, _reserved, json_len = _HEADER_FIXED.unpack(raw)
    if magic != _HEADER_MAGIC:
        raise TraceSchemaError(f"{path}: bad magic {magic!r} "
                               f"(expected {_HEADER_MAGIC!r})")
    if version != TRACE_VERSION:
        raise TraceSchemaError(f"{path}: unsupported trace version {version} "
                               f"(expected {TRACE_VERSION})")
    payload = fh.read(json_len)
    crc_raw = fh.read(_CRC.size)
    if len(payload) < json_len or len(crc_raw) < _CRC.size:
        raise TraceSchemaError(f"{path}: truncated trace header")
    (crc,) = _CRC.unpack(crc_raw)
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise TraceCorruptionError(f"{path}: header CRC mismatch", path=path)
    doc = json.loads(payload.decode("utf-8"))
    fields = tuple(TraceField(f["name"], f["dtype"], tuple(f["shape"]))
                   for f in doc["fields"])
    header_bytes = _HEADER_FIXED.size + json_len + _CRC.size
    return fields, doc.get("meta", {}), header_bytes


class TraceWriter:
    """Buffered append-only writer; one chunk per ``flush_every`` rows.

    Chunk boundaries are a pure function of the row sequence and
    ``flush_every`` (plus explicit :meth:`flush` calls at checkpoints),
    so an uninterrupted run and a kill/resume run configured identically
    produce byte-identical files.
    """

    def __init__(self, path: str, fields: Sequence[TraceField],
                 meta: Optional[Mapping] = None, flush_every: int = 1) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = str(path)
        self.fields = tuple(fields)
        self.meta = dict(meta or {})
        self.flush_every = int(flush_every)
        self._dtypes = tuple(np.dtype(f.dtype) for f in self.fields)
        self._buffer: List[bytes] = []
        self._buffer_rows = 0
        self._rows = 0
        self._chunks = 0
        self._fh: Optional[IO[bytes]] = open(self.path, "wb")
        header = _encode_header(self.fields, self.meta)
        self._fh.write(header)
        self._fh.flush()
        self._bytes = len(header)

    # -- factory: continue an existing file from a checkpointed position --
    @classmethod
    def resume(cls, path: str, position: TracePosition,
               flush_every: int = 1) -> "TraceWriter":
        """Reopen ``path``, verify the prefix up to ``position``, truncate.

        The retained prefix is CRC-validated chunk by chunk; any damage
        raises the reader's typed error, i.e. a restart *refuses* to
        continue from a corrupt trace rather than appending to it.
        """
        reader = TraceReader(path)
        try:
            rows = 0
            chunks = 0
            offset = reader.header_bytes
            for index, chunk_off, chunk_rows, nbytes in reader._scan_chunks(
                    stop_at=position.bytes):
                rows += len(chunk_rows)
                chunks = index + 1
                offset = chunk_off + nbytes
            if offset != position.bytes or rows != position.rows \
                    or chunks != position.chunks:
                raise TraceTruncationError(
                    f"{path}: checkpoint expects {position.rows} rows / "
                    f"{position.chunks} chunks / {position.bytes} bytes but "
                    f"validated prefix has {rows} rows / {chunks} chunks / "
                    f"{offset} bytes", path=path,
                    chunk_index=max(chunks - 1, 0))
            fields, meta = reader.fields, reader.meta
        finally:
            reader.close()
        self = cls.__new__(cls)
        self.path = str(path)
        self.fields = fields
        self.meta = dict(meta)
        self.flush_every = int(flush_every)
        self._dtypes = tuple(np.dtype(f.dtype) for f in fields)
        self._buffer = []
        self._buffer_rows = 0
        self._rows = position.rows
        self._chunks = position.chunks
        self._bytes = position.bytes
        fh = open(path, "r+b")
        fh.truncate(position.bytes)
        fh.seek(position.bytes)
        self._fh = fh
        return self

    # ------------------------------------------------------------------
    @property
    def position(self) -> TracePosition:
        """Durable position (buffered rows excluded — call flush first)."""
        return TracePosition(rows=self._rows, chunks=self._chunks,
                             bytes=self._bytes)

    def append_row(self, step: int, values: Mapping[str, np.ndarray]) -> None:
        """Buffer one generation row; flushes every ``flush_every`` rows."""
        first = self.fields[0]
        nw = int(np.asarray(values[first.name]).shape[0])
        parts = [_ROW_FIXED.pack(int(step), nw)]
        for field, dtype in zip(self.fields, self._dtypes):
            arr = np.ascontiguousarray(values[field.name], dtype=dtype)
            expect = (nw,) + field.shape
            if arr.shape != expect:
                raise ValueError(
                    f"field {field.name!r}: shape {arr.shape} != {expect}")
            parts.append(arr.tobytes())
        self._buffer.append(b"".join(parts))
        self._buffer_rows += 1
        if self._buffer_rows >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Write buffered rows as one CRC-sealed chunk and flush the file."""
        if self._fh is None:
            raise ValueError(f"{self.path}: writer is closed")
        if self._buffer_rows == 0:
            return
        payload = b"".join(self._buffer)
        head = _CHUNK_FIXED.pack(_CHUNK_MAGIC, self._chunks,
                                 self._buffer_rows, len(payload))
        tail = _CRC.pack(zlib.crc32(payload) & 0xFFFFFFFF)
        self._fh.write(head + payload + tail)
        self._fh.flush()
        nbytes = len(head) + len(payload) + len(tail)
        self._bytes += nbytes
        self._rows += self._buffer_rows
        self._chunks += 1
        self._buffer = []
        self._buffer_rows = 0
        METRICS.count("trace_chunks")
        METRICS.count("trace_bytes", nbytes)

    def close(self) -> None:
        if self._fh is not None:
            self.flush()
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceReader:
    """Validating reader; every access error is typed and names its chunk."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        if not os.path.exists(self.path):
            raise TraceTruncationError(f"{self.path}: trace file missing",
                                       path=self.path)
        self._fh: Optional[IO[bytes]] = open(self.path, "rb")
        self.fields, self.meta, self.header_bytes = _decode_header(
            self._fh, self.path)
        self._dtypes = tuple(np.dtype(f.dtype) for f in self.fields)

    def _decode_rows(self, payload: bytes, n_rows: int, index: int
                     ) -> List[Tuple[int, Dict[str, np.ndarray]]]:
        rows = []
        off = 0
        size = len(payload)
        for _ in range(n_rows):
            if off + _ROW_FIXED.size > size:
                raise TraceCorruptionError(
                    f"{self.path}: chunk {index} row header overruns payload",
                    path=self.path, chunk_index=index)
            step, nw = _ROW_FIXED.unpack_from(payload, off)
            off += _ROW_FIXED.size
            values: Dict[str, np.ndarray] = {}
            for field, dtype in zip(self.fields, self._dtypes):
                shape = (nw,) + field.shape
                nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
                if off + nbytes > size:
                    raise TraceCorruptionError(
                        f"{self.path}: chunk {index} field {field.name!r} "
                        f"overruns payload", path=self.path, chunk_index=index)
                arr = np.frombuffer(payload, dtype=dtype, count=int(
                    np.prod(shape, dtype=np.int64)), offset=off)
                values[field.name] = arr.reshape(shape).copy()
                off += nbytes
            rows.append((int(step), values))
        if off != size:
            raise TraceCorruptionError(
                f"{self.path}: chunk {index} payload has {size - off} "
                f"trailing bytes", path=self.path, chunk_index=index)
        return rows

    def _scan_chunks(self, stop_at: Optional[int] = None
                     ) -> Iterator[Tuple[int, int,
                                         List[Tuple[int, Dict[str, np.ndarray]]],
                                         int]]:
        """Yield (index, byte_offset, rows, total_bytes) per valid chunk."""
        fh = self._fh
        if fh is None:
            raise ValueError(f"{self.path}: reader is closed")
        fh.seek(self.header_bytes)
        expect_index = 0
        offset = self.header_bytes
        while True:
            if stop_at is not None and offset >= stop_at:
                return
            head = fh.read(_CHUNK_FIXED.size)
            if not head:
                return
            if len(head) < _CHUNK_FIXED.size:
                raise TraceTruncationError(
                    f"{self.path}: file ends inside the header of chunk "
                    f"{expect_index}", path=self.path,
                    chunk_index=expect_index)
            magic, index, n_rows, payload_len = _CHUNK_FIXED.unpack(head)
            if magic != _CHUNK_MAGIC:
                raise TraceCorruptionError(
                    f"{self.path}: bad chunk magic at offset {offset} "
                    f"(chunk {expect_index})", path=self.path,
                    chunk_index=expect_index)
            if index != expect_index:
                raise TraceCorruptionError(
                    f"{self.path}: chunk index {index} at offset {offset} "
                    f"(expected {expect_index})", path=self.path,
                    chunk_index=expect_index)
            payload = fh.read(payload_len)
            crc_raw = fh.read(_CRC.size)
            if len(payload) < payload_len or len(crc_raw) < _CRC.size:
                raise TraceTruncationError(
                    f"{self.path}: file ends mid-chunk {index} "
                    f"({len(payload)}/{payload_len} payload bytes)",
                    path=self.path, chunk_index=index)
            (crc,) = _CRC.unpack(crc_raw)
            if zlib.crc32(payload) & 0xFFFFFFFF != crc:
                raise TraceCorruptionError(
                    f"{self.path}: CRC mismatch in chunk {index}",
                    path=self.path, chunk_index=index)
            rows = self._decode_rows(payload, n_rows, index)
            total = _CHUNK_FIXED.size + payload_len + _CRC.size
            yield index, offset, rows, total
            offset += total
            expect_index += 1

    def iter_rows(self) -> Iterator[Tuple[int, Dict[str, np.ndarray]]]:
        for _index, _offset, rows, _nbytes in self._scan_chunks():
            for row in rows:
                yield row

    def read_concat(self, name: str) -> np.ndarray:
        """Field ``name`` concatenated across rows in (step, walker) order.

        For scalar fields this is exactly the sample stream the online
        reblocker consumed, so offline recomputation on the returned
        array is the parity oracle for the online results.
        """
        parts = [values[name] for _step, values in self.iter_rows()]
        if not parts:
            dtype = dict((f.name, f.dtype) for f in self.fields)[name]
            return np.empty((0,), dtype=dtype)
        return np.concatenate(parts, axis=0)

    def series(self, name: str) -> np.ndarray:
        """The samples of estimator ``name`` in (step, walker) order —
        ``"LocalEnergy"`` or a name in ``meta["components"]``: exactly
        the stream the run's online reblocker of that name consumed."""
        if name == "LocalEnergy":
            return self.read_concat("local_energy")
        column = list(self.meta["components"]).index(name)
        return self.read_concat("components")[:, column]

    def validate(self) -> TracePosition:
        """Full scan; returns the durable end position or raises typed."""
        rows = 0
        chunks = 0
        offset = self.header_bytes
        for index, chunk_off, chunk_rows, nbytes in self._scan_chunks():
            rows += len(chunk_rows)
            chunks = index + 1
            offset = chunk_off + nbytes
        return TracePosition(rows=rows, chunks=chunks, bytes=offset)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Driver-facing bundle: trace + online statistics + checkpoint cadence
# ----------------------------------------------------------------------

class StreamSet:
    """What a driver streams each generation: trace rows + online stats.

    The trace writer is created lazily on the first
    :meth:`record` call (component names are only known once the
    Hamiltonian has evaluated), with a schema-versioned header built
    from deterministic metadata only — no wall-clock — so equal runs
    yield byte-equal files.

    ``checkpoint_every``/``checkpoint_path`` only express cadence; the
    drivers own what goes *into* the checkpoint (see
    :mod:`repro.output.runstate`).
    """

    def __init__(self, trace_path: Optional[str] = None,
                 meta: Optional[Mapping] = None,
                 flush_every: int = 1,
                 checkpoint_path: Optional[str] = None,
                 checkpoint_every: int = 0) -> None:
        self.trace_path = str(trace_path) if trace_path else None
        self.online = OnlineScalarStats()
        self.meta = dict(meta or {})
        self.flush_every = int(flush_every)
        self.checkpoint_path = (str(checkpoint_path)
                                if checkpoint_path else None)
        self.checkpoint_every = int(checkpoint_every)
        self.writer: Optional[TraceWriter] = None
        self.component_names: Tuple[str, ...] = ()

    # -- resume ---------------------------------------------------------
    @classmethod
    def resume(cls, checkpoint, trace_path: Optional[str] = None,
               flush_every: int = 1,
               checkpoint_path: Optional[str] = None,
               checkpoint_every: int = 0) -> "StreamSet":
        """Rebuild the stream bundle a checkpointed run was using.

        Restores the online-stat states exactly and reopens the trace at
        the checkpointed offset after CRC-validating the retained
        prefix — a corrupt or short trace raises the reader's typed
        error and the restart refuses to continue.
        """
        self = cls(checkpoint_path=(checkpoint_path
                                    or getattr(checkpoint, "path", None)),
                   checkpoint_every=checkpoint_every)
        self.online = OnlineScalarStats.from_state(
            checkpoint.online_state or {})
        if trace_path is not None:
            position = TracePosition.from_array(checkpoint.trace_position)
            self.trace_path = str(trace_path)
            self.flush_every = int(flush_every)
            self.writer = TraceWriter.resume(trace_path, position,
                                             flush_every=flush_every)
            self.meta = dict(self.writer.meta)
            names = self.writer.meta.get("components", [])
            self.component_names = tuple(names)
        return self

    # -------------------------------------------------------------------
    def _open_writer(self) -> None:
        names = self.component_names
        fields = [TraceField("weight", "<f8"),
                  TraceField("local_energy", "<f8")]
        if names:
            fields.append(TraceField("components", "<f8", (len(names),)))
        meta = dict(self.meta)
        meta["components"] = list(names)
        self.writer = TraceWriter(self.trace_path, fields, meta=meta,
                                  flush_every=self.flush_every)

    def record(self, step: int, local_energy: np.ndarray,
               weights: Optional[np.ndarray] = None,
               components: Optional[Mapping[str, np.ndarray]] = None) -> None:
        """Stream one generation: nw local energies/weights (+components).

        Arrays must be in walker order, so the online reblocker and the
        offline recomputation on the trace see identical sample streams.
        Components are kept in sorted name order, fixed by the first
        row.
        """
        el = np.asarray(local_energy, dtype=np.float64)
        nw = el.shape[0]
        if weights is None:
            w = np.ones(nw, dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
        if not self.component_names and components:
            self.component_names = tuple(sorted(components))
        if self.trace_path is not None and self.writer is None:
            self._open_writer()
        if self.writer is not None:
            row = {"weight": w, "local_energy": el}
            if self.component_names:
                comp = np.empty((nw, len(self.component_names)),
                                dtype=np.float64)
                for j, name in enumerate(self.component_names):
                    comp[:, j] = np.asarray(components[name],
                                            dtype=np.float64)
                row["components"] = comp
            self.writer.append_row(step, row)
        self.online.add_array("LocalEnergy", el, w)
        for name in self.component_names:
            self.online.add_array(
                name, np.asarray(components[name], dtype=np.float64), w)

    def want_checkpoint(self, step: int) -> bool:
        return (self.checkpoint_every > 0
                and self.checkpoint_path is not None
                and step % self.checkpoint_every == 0)

    def flush(self) -> None:
        if self.writer is not None:
            self.writer.flush()

    @property
    def trace_position(self) -> TracePosition:
        """Durable trace position for checkpoints (flushes first)."""
        if self.writer is None:
            return TracePosition()
        self.writer.flush()
        return self.writer.position

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()

    def __enter__(self) -> "StreamSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
