"""Diff two BENCH artifacts with per-metric tolerance bands.

``python -m repro.bench.compare baseline.json candidate.json`` exits 0
when the candidate is within tolerance of the baseline and 1 on any
regression — the CI perf gate.

Three metric families, three bands:

* **throughput** (machine-dependent): candidate/baseline ratio must stay
  above ``--min-throughput-ratio``.  The default 0.55 trips on a 2x
  slowdown but shrugs off scheduler noise; CI passes a much wider band
  because shared runners are not the baseline machine.
* **hot-spot fractions** (mostly machine-independent): absolute drift of
  each category's fraction bounded by ``--frac-tol``, checked only for
  categories above ``--frac-floor`` in the baseline (tiny fractions are
  pure noise).
* **speedups** (dimensionless — the repo's headline claims): the
  candidate's speedup must stay above ``--min-speedup-ratio`` times the
  baseline's.
* **speedup floors** (absolute): a baseline workload may carry a
  ``speedup_floors`` object (e.g. ``{"fused_over_loop": 1.15}``); a
  candidate that *measured* the named speedup must meet the floor
  outright.  A candidate missing it passes by default;
  ``--enforce-floors`` makes absence itself a regression.

A workload or version present in the baseline but missing from the
candidate is itself a regression (the suite silently lost coverage)
unless ``--allow-missing`` is given.  Exit codes: 0 ok, 1 regression,
2 usage/validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.metrics.schema import validate_artifact


@dataclass
class Check:
    """One compared metric."""

    label: str
    baseline: float
    candidate: float
    detail: str
    ok: bool


def _load(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    errors = validate_artifact(doc)
    if errors:
        raise ValueError(f"{path} is not a valid BENCH artifact:\n  "
                         + "\n  ".join(errors))
    return doc


def compare_artifacts(baseline: dict, candidate: dict,
                      min_throughput_ratio: float = 0.55,
                      frac_tol: float = 0.25,
                      frac_floor: float = 0.05,
                      min_speedup_ratio: float = 0.4,
                      allow_missing: bool = False,
                      enforce_floors: bool = False) -> List[Check]:
    """All per-metric checks of candidate against baseline."""
    checks: List[Check] = []
    cand_workloads = {wl["name"]: wl for wl in candidate["workloads"]}
    for wl in baseline["workloads"]:
        name = wl["name"]
        cand_wl = cand_workloads.get(name)
        if cand_wl is None:
            checks.append(Check(f"{name}", 1.0, 0.0,
                                "workload missing from candidate",
                                ok=allow_missing))
            continue
        for label, base_entry in wl["versions"].items():
            cand_entry = cand_wl["versions"].get(label)
            prefix = f"{name}/{label}"
            if cand_entry is None:
                checks.append(Check(prefix, 1.0, 0.0,
                                    "version missing from candidate",
                                    ok=allow_missing))
                continue
            ratio = cand_entry["throughput"] / base_entry["throughput"]
            checks.append(Check(
                f"{prefix}/throughput", base_entry["throughput"],
                cand_entry["throughput"],
                f"ratio {ratio:.2f} (floor {min_throughput_ratio:.2f})",
                ok=ratio >= min_throughput_ratio))
            for cat, base_frac in base_entry["hotspots"].items():
                if base_frac < frac_floor:
                    continue
                cand_frac = cand_entry["hotspots"].get(cat, 0.0)
                drift = abs(cand_frac - base_frac)
                checks.append(Check(
                    f"{prefix}/hotspot/{cat}", base_frac, cand_frac,
                    f"|drift| {drift:.3f} (tol {frac_tol:.2f})",
                    ok=drift <= frac_tol))
        for sname, base_speedup in wl.get("speedups", {}).items():
            cand_speedup = cand_wl.get("speedups", {}).get(sname)
            if cand_speedup is None:
                checks.append(Check(f"{name}/speedup/{sname}", base_speedup,
                                    0.0, "speedup missing from candidate",
                                    ok=allow_missing))
                continue
            ratio = cand_speedup / base_speedup
            checks.append(Check(
                f"{name}/speedup/{sname}", base_speedup, cand_speedup,
                f"ratio {ratio:.2f} (floor {min_speedup_ratio:.2f})",
                ok=ratio >= min_speedup_ratio))
        for sname, floor in wl.get("speedup_floors", {}).items():
            cand_speedup = cand_wl.get("speedups", {}).get(sname)
            if cand_speedup is None:
                detail = ("floor speedup missing from candidate"
                          if enforce_floors else "not measured")
                checks.append(Check(f"{name}/floor/{sname}", floor, 0.0,
                                    detail, ok=not enforce_floors))
                continue
            checks.append(Check(
                f"{name}/floor/{sname}", floor, cand_speedup,
                f"absolute floor {floor:.2f}",
                ok=cand_speedup >= floor))
    return checks


def format_report(checks: List[Check], baseline: dict,
                  candidate: dict) -> str:
    lines = [
        f"baseline : tag={baseline['tag']} "
        f"host={baseline['host'].get('hostname', '?')}",
        f"candidate: tag={candidate['tag']} "
        f"host={candidate['host'].get('hostname', '?')}",
        "",
        f"  {'metric':<44s} {'baseline':>12s} {'candidate':>12s}  verdict",
    ]
    for c in checks:
        verdict = "ok" if c.ok else "REGRESSION"
        lines.append(f"  {c.label:<44s} {c.baseline:12.4g} "
                     f"{c.candidate:12.4g}  {verdict}  [{c.detail}]")
    bad = sum(1 for c in checks if not c.ok)
    lines.append("")
    lines.append(f"{len(checks)} checks, {bad} regression(s)")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.compare",
        description="Diff two BENCH artifacts; nonzero exit on regression.")
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("candidate", help="candidate BENCH_*.json")
    parser.add_argument("--min-throughput-ratio", type=float, default=0.55,
                        help="minimum candidate/baseline throughput ratio "
                             "(default 0.55: a 2x slowdown fails)")
    parser.add_argument("--frac-tol", type=float, default=0.25,
                        help="max absolute drift of a hotspot fraction")
    parser.add_argument("--frac-floor", type=float, default=0.05,
                        help="ignore baseline fractions below this")
    parser.add_argument("--min-speedup-ratio", type=float, default=0.4,
                        help="minimum candidate/baseline speedup ratio")
    parser.add_argument("--allow-missing", action="store_true",
                        help="missing workloads/versions are not regressions")
    parser.add_argument("--enforce-floors", action="store_true",
                        help="a speedup_floors entry the candidate did not "
                             "measure is itself a regression")
    args = parser.parse_args(argv)
    try:
        baseline = _load(args.baseline)
        candidate = _load(args.candidate)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    checks = compare_artifacts(
        baseline, candidate,
        min_throughput_ratio=args.min_throughput_ratio,
        frac_tol=args.frac_tol, frac_floor=args.frac_floor,
        min_speedup_ratio=args.min_speedup_ratio,
        allow_missing=args.allow_missing,
        enforce_floors=args.enforce_floors)
    print(format_report(checks, baseline, candidate))
    return 1 if any(not c.ok for c in checks) else 0


if __name__ == "__main__":
    raise SystemExit(main())
