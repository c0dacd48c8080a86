"""Tests for the repro.bench CLI, artifact schema, and regression gate."""

import copy
import json

import pytest

from repro.bench.compare import compare_artifacts
from repro.bench.compare import main as compare_main
from repro.bench.runner import KINDS, run_suite, write_artifact
from repro.bench.suite import SUITES, BenchCase
from repro.metrics.profile import PAPER_CATEGORIES
from repro.metrics.schema import BENCH_SCHEMA_VERSION, validate_artifact


@pytest.fixture(scope="module")
def smoke_doc():
    """One smoke-suite run shared by the module (the expensive part)."""
    return run_suite("smoke", tag="smoke-test")


# -- artifact generation ------------------------------------------------------

def test_cli_writes_schema_valid_artifact(tmp_path, monkeypatch):
    from repro.bench.__main__ import main
    monkeypatch.setenv("REPRO_METRICS", "1")
    from repro.metrics.registry import METRICS
    METRICS.enable()
    try:
        rc = main(["--suite", "smoke", "--tag", "t1", "--out",
                   str(tmp_path)])
    finally:
        METRICS.disable()
        METRICS.reset()
    assert rc == 0
    path = tmp_path / "BENCH_t1.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert validate_artifact(doc) == []
    assert doc["schema"] == BENCH_SCHEMA_VERSION
    assert doc["metrics"]["scopes"]  # REPRO_METRICS embedded the tree


def test_smoke_doc_has_ref_and_optimized_hotspots(smoke_doc):
    assert validate_artifact(smoke_doc) == []
    assert {wl["kind"] for wl in smoke_doc["workloads"]} == {
        "nlpp", "spline_memory", "sweep"}
    by_name = {wl["name"]: wl for wl in smoke_doc["workloads"]}
    nlpp = by_name["nlpp-NiO32-x0.125"]
    assert set(nlpp["versions"]) == {"scalar", "batched"}
    # hotspot fractions for the reference vs the optimized engine, in
    # the paper's categories, summing to the whole run
    for entry in nlpp["versions"].values():
        assert entry["hotspots"]
        assert set(entry["hotspots"]) <= set(PAPER_CATEGORIES)
        assert abs(sum(entry["hotspots"].values()) - 1.0) < 1e-6
        assert entry["peak_walker_bytes"] > 0
    assert nlpp["versions"]["batched"]["hotspots"]["NLPP"] > 0
    assert nlpp["speedups"]["batched_over_scalar"] > 0


def test_write_artifact_refuses_invalid_doc(tmp_path, smoke_doc):
    bad = copy.deepcopy(smoke_doc)
    del bad["host"]
    with pytest.raises(ValueError, match="host"):
        write_artifact(bad, str(tmp_path))


def test_validator_flags_malformed_entries(smoke_doc):
    bad = copy.deepcopy(smoke_doc)
    entry = bad["workloads"][0]["versions"]["scalar"]
    entry["throughput"] = -1.0
    entry["hotspots"]["J2"] = 1.5
    bad["workloads"][1]["kind"] = "system"  # a kind the table dropped
    errors = validate_artifact(bad)
    assert any("throughput" in e for e in errors)
    assert any("hotspots" in e for e in errors)
    assert any("kind" in e for e in errors)


def test_suites_are_well_formed():
    assert set(SUITES) == {"quick", "smoke", "spline"}
    for name, cases in SUITES.items():
        assert cases, name
        for case in cases:
            assert case.kind in KINDS
            assert case.versions
            if case.kind == "spline_memory":
                assert case.workers
    # the quick suite (the committed baseline) exercises every kind
    assert {case.kind for case in SUITES["quick"]} == set(KINDS)
    with pytest.raises(ValueError, match="unknown bench kind"):
        BenchCase(name="x", kind="system", versions=("ref",))


def test_spline_memory_case_in_smoke_doc(smoke_doc):
    by_name = {wl["name"]: wl for wl in smoke_doc["workloads"]}
    wl = by_name["spline-mem-M16-W8"]
    assert wl["kind"] == "spline_memory"
    assert set(wl["versions"]) == {"flat", "tiled"}
    # the runner itself raises on a tiled-vs-flat bitwise mismatch; the
    # artifact must carry the speedup and the memory report
    assert wl["speedups"]["tiled_over_flat"] > 0
    mem = wl["memory"]
    assert mem["table_bytes"] > 0
    assert mem["predicted"]["predicted_ratio"] == pytest.approx(
        1.0 / mem["n_processes"])
    assert mem["per_worker_shared_bytes"] < mem["per_worker_copy_bytes"]
    assert isinstance(mem["rss_measured"], bool)


def test_sweep_case_in_smoke_doc(smoke_doc):
    by_name = {wl["name"]: wl for wl in smoke_doc["workloads"]}
    wl = by_name["sweep-N10-W4"]
    assert wl["kind"] == "sweep"
    # the runner itself raises on a fused-vs-loop bitwise mismatch; the
    # artifact must carry the dispatch amortization evidence
    assert set(wl["versions"]) == {"loop", "fused"}
    assert wl["versions"]["fused"]["dispatches_per_sweep"] == 1
    assert wl["versions"]["loop"]["dispatches_per_electron"] >= 10
    assert wl["speedups"]["fused_over_loop"] > 0


# -- regression gate ----------------------------------------------------------

def test_compare_identical_artifacts_passes(smoke_doc):
    checks = compare_artifacts(smoke_doc, smoke_doc)
    assert checks
    assert all(c.ok for c in checks)


def test_compare_fails_on_2x_slowdown(smoke_doc):
    slow = copy.deepcopy(smoke_doc)
    for wl in slow["workloads"]:
        for entry in wl["versions"].values():
            entry["throughput"] /= 2.0
    checks = compare_artifacts(smoke_doc, slow)
    bad = [c for c in checks if not c.ok]
    assert bad
    assert all("throughput" in c.label for c in bad)


def test_compare_fails_on_collapsed_speedup(smoke_doc):
    flat_ = copy.deepcopy(smoke_doc)
    for wl in flat_["workloads"]:
        for key in wl.get("speedups", {}):
            wl["speedups"][key] *= 0.1
    checks = compare_artifacts(smoke_doc, flat_)
    assert any(not c.ok and "speedup" in c.label for c in checks)


def test_compare_fails_on_hotspot_upheaval(smoke_doc):
    shifted = copy.deepcopy(smoke_doc)
    entry = shifted["workloads"][0]["versions"]["scalar"]
    top = max(entry["hotspots"], key=entry["hotspots"].get)
    entry["hotspots"][top] = 0.0
    checks = compare_artifacts(smoke_doc, shifted)
    assert any(not c.ok and f"hotspot/{top}" in c.label for c in checks)


def test_compare_missing_workload_is_a_regression(smoke_doc):
    partial = copy.deepcopy(smoke_doc)
    partial["workloads"] = partial["workloads"][:1]
    checks = compare_artifacts(smoke_doc, partial)
    assert any(not c.ok for c in checks)
    relaxed = compare_artifacts(smoke_doc, partial, allow_missing=True)
    assert all(c.ok for c in relaxed)


def test_compare_speedup_floor_gate(smoke_doc):
    base = copy.deepcopy(smoke_doc)
    for wl in base["workloads"]:
        if wl["kind"] == "sweep":
            wl["speedup_floors"] = {"fused_over_loop": 1.15}
    assert validate_artifact(base) == []

    def floors(checks, name):
        return [c for c in checks if f"floor/{name}" in c.label]

    # a candidate that lost fused_over_loop: ok by default, a
    # regression under enforce_floors — nothing excuses it
    lost = copy.deepcopy(smoke_doc)
    for wl in lost["workloads"]:
        if wl["kind"] == "sweep":
            del wl["speedups"]["fused_over_loop"]
            wl["skipped"] = ["fused"]
    assert all(c.ok for c in floors(compare_artifacts(base, lost),
                                    "fused_over_loop"))
    strict = compare_artifacts(base, lost, enforce_floors=True)
    assert not any(c.ok for c in floors(strict, "fused_over_loop"))
    # candidate carrying the speedup must meet the floor outright
    meets = copy.deepcopy(smoke_doc)
    misses = copy.deepcopy(smoke_doc)
    for doc, value in ((meets, 3.1), (misses, 1.01)):
        for wl in doc["workloads"]:
            if wl["kind"] == "sweep":
                wl["speedups"]["fused_over_loop"] = value
    assert all(c.ok for c in floors(compare_artifacts(base, meets),
                                    "fused_over_loop"))
    assert not any(c.ok for c in floors(compare_artifacts(base, misses),
                                        "fused_over_loop"))


def test_compare_cli_exit_codes(tmp_path, smoke_doc):
    base = write_artifact(smoke_doc, str(tmp_path / "a"))
    slow_doc = copy.deepcopy(smoke_doc)
    slow_doc["tag"] = "slow"
    for wl in slow_doc["workloads"]:
        for entry in wl["versions"].values():
            entry["throughput"] /= 2.0
    slow = write_artifact(slow_doc, str(tmp_path / "b"))
    assert compare_main([base, base]) == 0
    assert compare_main([base, slow]) == 1
    bogus = tmp_path / "bogus.json"
    bogus.write_text("{}")
    assert compare_main([base, str(bogus)]) == 2
    assert compare_main([base, str(tmp_path / "missing.json")]) == 2


def test_committed_baseline_is_schema_valid():
    import os
    path = os.path.join(os.path.dirname(__file__), "..", "..",
                        "benchmarks", "baselines", "baseline.json")
    with open(path) as fh:
        doc = json.load(fh)
    assert validate_artifact(doc) == []
    assert doc["suite"] == "quick"
