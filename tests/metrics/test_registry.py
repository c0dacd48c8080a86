"""Tests for the hierarchical metrics registry."""

import json
import threading
import time

import pytest

from repro.metrics.registry import (METRICS, MetricsRegistry, ScopeNode,
                                    _NULL_SCOPE)


@pytest.fixture
def reg():
    return MetricsRegistry(enabled=True)


# -- nesting and exclusive accounting -----------------------------------------

def test_nested_scopes_build_a_tree(reg):
    with reg.scope("VMC"):
        with reg.scope("sweep"):
            pass
        with reg.scope("sweep"):
            pass
        with reg.scope("measure"):
            pass
    flat = reg.flat()
    assert flat["VMC"]["calls"] == 1
    assert flat["VMC/sweep"]["calls"] == 2
    assert flat["VMC/measure"]["calls"] == 1
    assert "sweep" not in flat  # nested, not top-level


def test_exclusive_is_inclusive_minus_children(reg):
    with reg.scope("outer"):
        time.sleep(0.004)
        with reg.scope("inner"):
            time.sleep(0.008)
    flat = reg.flat()
    outer, inner = flat["outer"], flat["outer/inner"]
    assert inner["inclusive_s"] >= 0.008
    assert outer["inclusive_s"] >= inner["inclusive_s"]
    assert abs(outer["exclusive_s"]
               - (outer["inclusive_s"] - inner["inclusive_s"])) < 1e-12
    # the sleep inside `inner` must not count against outer's exclusive
    assert outer["exclusive_s"] < outer["inclusive_s"]


def test_exclusive_by_name_sums_across_paths(reg):
    reg.add_seconds("J2", 1.0)
    with reg.scope("VMC"):
        reg.add_seconds("J2", 2.0)
    assert reg.exclusive_by_name()["J2"] == pytest.approx(3.0)


def test_same_name_at_different_depths_stays_distinct(reg):
    with reg.scope("sweep"):
        with reg.scope("sweep"):
            pass
    flat = reg.flat()
    assert flat["sweep"]["calls"] == 1
    assert flat["sweep/sweep"]["calls"] == 1


def test_counters_and_bytes_attach_to_innermost_scope(reg):
    with reg.scope("sweep"):
        with reg.scope("DistTable-AA"):
            reg.count("forward_update_rows", 3)
            reg.record(flops=90.0, rbytes=4096.0)
            reg.record(flops=10.0, wbytes=512.0)
    scopes = reg.snapshot()["scopes"]
    node = scopes[0]["children"][0]
    assert node["name"] == "DistTable-AA"
    assert node["counters"] == {"forward_update_rows": 3}
    assert (node["flops"], node["rbytes"], node["wbytes"]) == \
        (100.0, 4096.0, 512.0)
    # the outer scope is untouched, and records nothing it did not see
    assert not {"flops", "rbytes", "wbytes"} & set(scopes[0])
    assert reg.flat()["sweep"]["flops"] == 0


def test_reset_drops_data_but_keeps_arming(reg):
    with reg.scope("a"):
        pass
    reg.reset()
    assert reg.enabled
    assert reg.flat() == {}
    with reg.scope("b"):
        pass
    assert list(reg.flat()) == ["b"]


def test_scope_survives_exceptions(reg):
    with pytest.raises(RuntimeError):
        with reg.scope("outer"):
            raise RuntimeError("boom")
    # the stack unwound: new top-level scopes are not nested under "outer"
    with reg.scope("after"):
        pass
    flat = reg.flat()
    assert flat["outer"]["calls"] == 1
    assert "after" in flat and "outer/after" not in flat


# -- thread-safety ------------------------------------------------------------

def test_threads_record_into_private_trees_and_merge(reg):
    n_threads, n_iter = 4, 200
    barrier = threading.Barrier(n_threads)

    def work():
        barrier.wait()
        for _ in range(n_iter):
            with reg.scope("sweep"):
                with reg.scope("J2"):
                    reg.count("evals")
    threads = [threading.Thread(target=work) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    flat = reg.flat()
    assert flat["sweep"]["calls"] == n_threads * n_iter
    assert flat["sweep/J2"]["calls"] == n_threads * n_iter
    snap = reg.snapshot()["scopes"]
    (sweep,) = [s for s in snap if s["name"] == "sweep"]
    assert sweep["children"][0]["counters"]["evals"] == n_threads * n_iter


# -- disarmed cost ------------------------------------------------------------

def test_disarmed_scope_is_the_shared_null_scope():
    reg = MetricsRegistry(enabled=False)
    assert reg.scope("anything") is _NULL_SCOPE
    assert reg.scope("other") is reg.scope("else")  # no per-call allocation
    reg.record(flops=10.0, rbytes=10.0)
    reg.count("x")
    assert reg.flat() == {}  # counters were dropped, not recorded


def test_disarmed_overhead_is_bounded():
    reg = MetricsRegistry(enabled=False)
    n = 50_000
    t0 = time.perf_counter()
    for _ in range(n):
        with reg.scope("hot"):
            pass
    per_call = (time.perf_counter() - t0) / n
    # generous bound (~50x the expected cost) so loaded CI never flakes,
    # while still catching any accidental allocation/locking on the path
    assert per_call < 2e-5, f"disarmed scope costs {per_call * 1e6:.2f} us"


# -- JSON round-trip ----------------------------------------------------------

def test_snapshot_json_round_trip(reg):
    with reg.scope("VMC"):
        with reg.scope("sweep"):
            reg.record(flops=64.0, rbytes=128.0, wbytes=32.0)
            reg.count("rows", 2)
        reg.add_seconds("J1", 0.25)
    snap = reg.snapshot()
    clone = json.loads(json.dumps(snap))
    assert clone == snap
    vmc = ScopeNode.from_dict(clone["scopes"][0])
    assert vmc.name == "VMC"
    assert vmc.exclusive == pytest.approx(
        snap["scopes"][0]["exclusive_s"])
    sweep = vmc.children["sweep"]
    assert (sweep.flops, sweep.rbytes, sweep.wbytes) == (64.0, 128.0, 32.0)
    assert sweep.counters == {"rows": 2}
    assert vmc.children["J1"].seconds == pytest.approx(0.25)


def test_root_ops_survive_snapshot_merge(reg):
    """Ops recorded outside any scope travel with the snapshot and land
    on the merging registry's root, as a worker's must."""
    reg.record(flops=3840.0, rbytes=16.0)
    with reg.scope("VMC"):
        reg.record(flops=1.0)
    snap = json.loads(json.dumps(reg.snapshot()))
    home = MetricsRegistry(enabled=True)
    home.merge_snapshot(snap)
    root = home._merged_root()
    assert (root.flops, root.rbytes, root.wbytes) == (3840.0, 16.0, 0.0)
    assert root.children["VMC"].flops == 1.0
