"""Schema for the machine-readable ``BENCH_<tag>.json`` artifacts.

A BENCH artifact is the repo's performance trajectory in one file:
per-workload throughput, hot-spot fractions (the paper's Fig. 2 / Table 2
taxonomy), peak per-walker memory, and a host fingerprint, for every code
version the bench suite ran.  CI diffs a fresh artifact against the
committed baseline with :mod:`repro.bench.compare`.

Validation is a small hand-rolled checker (the container has no
``jsonschema``): :func:`validate_artifact` returns a list of error
strings, empty when the document conforms.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["BENCH_SCHEMA_VERSION", "validate_artifact"]

#: Bump when the artifact layout changes incompatibly.
BENCH_SCHEMA_VERSION = "repro.bench/1"

_HOST_REQUIRED = ("platform", "machine", "python", "numpy", "cpu_count")

_VERSION_REQUIRED = {
    "throughput": (int, float),          # walker-steps / second
    "seconds_per_step": (int, float),
    "total_seconds": (int, float),
    "hotspots": dict,                    # category -> fraction of total
    "peak_walker_bytes": (int, float),
}


def _err(errors: List[str], path: str, message: str) -> None:
    errors.append(f"{path}: {message}")


def _check_version_entry(entry: Any, path: str, errors: List[str]) -> None:
    if not isinstance(entry, dict):
        _err(errors, path, "version entry must be an object")
        return
    for key, types in _VERSION_REQUIRED.items():
        if key not in entry:
            _err(errors, path, f"missing required key '{key}'")
            continue
        if not isinstance(entry[key], types) or isinstance(entry[key], bool):
            _err(errors, f"{path}.{key}", "wrong type")
    throughput = entry.get("throughput")
    if isinstance(throughput, (int, float)) and throughput <= 0:
        _err(errors, f"{path}.throughput", "must be > 0")
    hotspots = entry.get("hotspots")
    if isinstance(hotspots, dict):
        if not hotspots:
            _err(errors, f"{path}.hotspots", "must not be empty")
        for cat, frac in hotspots.items():
            if not isinstance(cat, str):
                _err(errors, f"{path}.hotspots", "category keys must be str")
            elif not isinstance(frac, (int, float)) or isinstance(frac, bool):
                _err(errors, f"{path}.hotspots.{cat}", "fraction must be a number")
            elif not -1e-9 <= frac <= 1.0 + 1e-9:
                _err(errors, f"{path}.hotspots.{cat}",
                     f"fraction {frac!r} outside [0, 1]")
    peak = entry.get("peak_walker_bytes")
    if isinstance(peak, (int, float)) and peak < 0:
        _err(errors, f"{path}.peak_walker_bytes", "must be >= 0")


def _check_workload(entry: Any, index: int, errors: List[str]) -> None:
    path = f"workloads[{index}]"
    if not isinstance(entry, dict):
        _err(errors, path, "workload entry must be an object")
        return
    for key, typ in (("name", str), ("kind", str), ("versions", dict)):
        if not isinstance(entry.get(key), typ):
            _err(errors, f"{path}.{key}", f"missing or not a {typ.__name__}")
    from repro.bench.runner import KINDS  # lazy: runner imports this module
    if isinstance(entry.get("kind"), str) and entry["kind"] not in KINDS:
        _err(errors, f"{path}.kind", f"must be one of {sorted(KINDS)}")
    versions = entry.get("versions")
    if isinstance(versions, dict):
        if not versions:
            _err(errors, f"{path}.versions", "must not be empty")
        for label, ventry in versions.items():
            _check_version_entry(ventry, f"{path}.versions.{label}", errors)
    # ``speedup_floors``: absolute floors the named speedups must meet;
    # enforced by repro.bench.compare.
    for key in ("speedups", "speedup_floors"):
        values = entry.get(key, {})
        if not isinstance(values, dict):
            _err(errors, f"{path}.{key}", "must be an object")
            continue
        for label, value in values.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool) \
                    or value <= 0:
                _err(errors, f"{path}.{key}.{label}",
                     "must be a positive number")


def validate_artifact(doc: Any) -> List[str]:
    """Validate a BENCH artifact; returns error strings ([] when valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["artifact must be a JSON object"]
    if doc.get("schema") != BENCH_SCHEMA_VERSION:
        _err(errors, "schema",
             f"expected {BENCH_SCHEMA_VERSION!r}, got {doc.get('schema')!r}")
    if not isinstance(doc.get("tag"), str) or not doc.get("tag"):
        _err(errors, "tag", "must be a non-empty string")
    host = doc.get("host")
    if not isinstance(host, dict):
        _err(errors, "host", "must be an object")
    else:
        for key in _HOST_REQUIRED:
            if key not in host:
                _err(errors, f"host.{key}", "missing")
    workloads = doc.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        _err(errors, "workloads", "must be a non-empty array")
    else:
        for i, entry in enumerate(workloads):
            _check_workload(entry, i, errors)
    if "metrics" in doc and not isinstance(doc["metrics"], dict):
        _err(errors, "metrics", "must be an object (registry snapshot)")
    return errors
