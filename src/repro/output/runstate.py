"""Full-run checkpoint/restart: RNG streams, walkers, online stats, trace.

Promotes the drivers' generation-start crash snapshots (which only
survive *within* a run) to durable on-disk checkpoints a new process can
resume from.  A checkpoint written at the end of generation ``N``
captures everything the continuation depends on:

* every RNG stream's generator state (``Generator.bit_generator.state``
  — for spawned per-walker streams the spawn keys are implied by the
  master seed recorded in ``meta``, and the *states* stored here already
  include any fast-forward),
* the walker population (scalar drivers) or the shared-memory state
  field arrays (parallel driver),
* the exact :class:`~repro.stats.online.OnlineScalarStats` states,
* the durable trace position (rows/chunks/bytes) to truncate/append at,
* driver scalars (trial energy, acceptance counters, ...).

The restart contract — asserted by ``tests/integration/`` — is that a
run killed after generation ``N`` and resumed from this checkpoint
produces a byte-identical trace file and bit-identical online error
bars versus the same run left uninterrupted.

Writes are atomic (``os.replace`` of a fully-written temp file), so a
kill *during* checkpointing leaves the previous checkpoint intact.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.output.stream import TracePosition
from repro.particles.walker import Walker

__all__ = [
    "RUNSTATE_VERSION",
    "RunCheckpoint",
    "save_run_checkpoint",
    "load_run_checkpoint",
    "rng_state",
    "restore_rng",
]

RUNSTATE_VERSION = 1


def rng_state(rng: np.random.Generator) -> dict:
    """JSON-able snapshot of a Generator's bit-stream position."""
    return rng.bit_generator.state


def restore_rng(rng: np.random.Generator, state: dict) -> None:
    """Restore a Generator to a snapshotted bit-stream position."""
    rng.bit_generator.state = state


def population_arrays(walkers: List[Walker]) -> dict:
    """Flatten a Walker list into checkpoint arrays (bit-exact)."""
    if not walkers:
        raise ValueError("refusing to checkpoint an empty population")
    n = walkers[0].n
    if any(w.n != n for w in walkers):
        raise ValueError("walkers disagree on particle count")
    buf_sizes = np.array([w.buffer.size for w in walkers], dtype=np.int64)
    if len({int(s) for s in buf_sizes}) > 1:
        raise ValueError("walkers disagree on buffer layout")
    return {
        "R": np.stack([w.R for w in walkers]),
        "weights": np.array([w.weight for w in walkers]),
        "multiplicities": np.array([w.multiplicity for w in walkers]),
        "ages": np.array([w.age for w in walkers], dtype=np.int64),
        "buffers": (np.stack([w.buffer.as_array() for w in walkers])
                    if buf_sizes[0] > 0 else np.zeros((len(walkers), 0))),
        "buffer_dtype": str(walkers[0].buffer.dtype),
        "properties": json.dumps([w.properties for w in walkers]),
    }


def population_from_arrays(data) -> List[Walker]:
    """Rebuild the Walker list from :func:`population_arrays` output."""
    R = data["R"]
    weights = data["weights"]
    mults = data["multiplicities"]
    ages = data["ages"]
    buffers = data["buffers"]
    buffer_dtype = np.dtype(str(data["buffer_dtype"]))
    props = json.loads(str(data["properties"]))
    walkers = []
    for i in range(R.shape[0]):
        w = Walker.from_positions(R[i], dtype=buffer_dtype)
        w.weight = float(weights[i])
        w.multiplicity = float(mults[i])
        w.age = int(ages[i])
        w.properties = dict(props[i])
        if buffers.shape[1] > 0:
            w.buffer.register(buffers[i].astype(buffer_dtype))
            w.buffer.seal()
        walkers.append(w)
    return walkers


@dataclass
class RunCheckpoint:
    """Everything needed to continue a run bitwise from generation ``step``."""

    kind: str                       # "vmc" | "dmc" | "parallel"
    step: int                       # completed generations
    rng_states: Dict[str, dict] = field(default_factory=dict)
    scalars: Dict[str, float] = field(default_factory=dict)
    walkers: Optional[List] = None                     # scalar drivers
    shared_state: Optional[Dict[str, np.ndarray]] = None   # parallel driver
    online_state: Optional[dict] = None
    trace_position: np.ndarray = field(
        default_factory=lambda: TracePosition().as_array())
    meta: Dict = field(default_factory=dict)
    path: Optional[str] = None      # where it was loaded from (set on load)


def save_run_checkpoint(path: str, ckpt: RunCheckpoint) -> None:
    """Atomically serialize a :class:`RunCheckpoint` to ``path`` (npz)."""
    arrays: Dict[str, object] = {
        "version": np.int64(RUNSTATE_VERSION),
        "kind": ckpt.kind,
        "step": np.int64(ckpt.step),
        "rng_states": json.dumps(ckpt.rng_states, sort_keys=True),
        "scalars": json.dumps(ckpt.scalars, sort_keys=True),
        "trace_position": np.asarray(ckpt.trace_position, dtype=np.int64),
        "meta": json.dumps(ckpt.meta, sort_keys=True),
        "has_walkers": np.int64(1 if ckpt.walkers is not None else 0),
    }
    if ckpt.walkers is not None:
        for key, value in population_arrays(ckpt.walkers).items():
            arrays[f"pop_{key}"] = value
    shm_names = sorted(ckpt.shared_state) if ckpt.shared_state else []
    arrays["shm_names"] = json.dumps(shm_names)
    for name in shm_names:
        arrays[f"shm_{name}"] = np.asarray(ckpt.shared_state[name])
    online_names = sorted(ckpt.online_state) if ckpt.online_state else []
    arrays["online_names"] = json.dumps(online_names)
    for name in online_names:
        state = ckpt.online_state[name]
        for key in sorted(state):
            arrays[f"online__{name}__{key}"] = np.asarray(state[key])
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        np.savez_compressed(fh, **arrays)
    os.replace(tmp, path)


def load_run_checkpoint(path: str) -> RunCheckpoint:
    """Read a :class:`RunCheckpoint` back, bit-exactly."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != RUNSTATE_VERSION:
            raise ValueError(f"{path}: unsupported run-checkpoint version "
                             f"{version} (expected {RUNSTATE_VERSION})")
        ckpt = RunCheckpoint(
            kind=str(data["kind"]),
            step=int(data["step"]),
            rng_states=json.loads(str(data["rng_states"])),
            scalars=json.loads(str(data["scalars"])),
            trace_position=np.asarray(data["trace_position"],
                                      dtype=np.int64),
            meta=json.loads(str(data["meta"])),
            path=path,
        )
        if int(data["has_walkers"]):
            pop = {key[len("pop_"):]: data[key] for key in data.files
                   if key.startswith("pop_")}
            ckpt.walkers = population_from_arrays(pop)
        shm_names = json.loads(str(data["shm_names"]))
        if shm_names:
            ckpt.shared_state = {name: np.array(data[f"shm_{name}"])
                                 for name in shm_names}
        online_names = json.loads(str(data["online_names"]))
        if online_names:
            online: Dict[str, Dict[str, np.ndarray]] = {}
            prefix_keys = [key for key in data.files
                           if key.startswith("online__")]
            for name in online_names:
                marker = f"online__{name}__"
                online[name] = {key[len(marker):]: np.array(data[key])
                                for key in prefix_keys
                                if key.startswith(marker)}
            ckpt.online_state = online
    return ckpt
