"""repro.bench — machine-readable performance trajectory.

``python -m repro.bench`` runs a suite of isolated speedup guards (NLPP
engine, fused sweep, tiled splines) and emits a
schema-validated ``BENCH_<tag>.json`` artifact; ``python -m
repro.bench.compare`` diffs two artifacts with per-metric tolerance
bands and exits nonzero on regression.  End-to-end and per-layer numbers
come from ``benchmarks/e2e/``.  See docs/observability.md.
"""

from repro.bench.suite import BENCH_SCALE, SUITES, BenchCase
from repro.bench.fingerprint import host_fingerprint

__all__ = ["BENCH_SCALE", "SUITES", "BenchCase", "host_fingerprint"]
