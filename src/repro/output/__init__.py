"""Run output: the streaming binary trace and the full-run checkpoint.

Every driver streams per-generation, walker-ordered rows to one
CRC-sealed binary trace (:mod:`repro.output.stream`) with online
reblocked error bars beside it, and checkpoints the whole run —
RNG states, population, online-stat states, trace offset — as one
:class:`RunCheckpoint` (:mod:`repro.output.runstate`).
"""

from repro.output.stream import (
    StreamSet, TraceCorruptionError, TraceError, TraceField, TracePosition,
    TraceReader, TraceSchemaError, TraceTruncationError, TraceWriter,
)
from repro.output.runstate import (
    RunCheckpoint, load_run_checkpoint, save_run_checkpoint,
)

__all__ = [
    "TraceField", "TracePosition", "TraceWriter", "TraceReader",
    "TraceError", "TraceSchemaError", "TraceCorruptionError",
    "TraceTruncationError", "StreamSet",
    "RunCheckpoint", "save_run_checkpoint", "load_run_checkpoint",
]
