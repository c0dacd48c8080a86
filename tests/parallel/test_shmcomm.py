"""Tests for SharedMemComm — the crowd pool's bcast/allgather across real
process boundaries (star of duplex pipes, rank 0 coordinating).

Most tests drive the worker endpoints from threads: the transport is
the same ``multiprocessing.Pipe`` either way, and threads keep the
failure modes debuggable.  One test runs genuine forked processes
end-to-end; the crowd-driver tests exercise the full
process+shared-memory stack on top of this layer.
"""

import multiprocessing as mp
import threading

import pytest

from repro.sanitizers import (
    CollectiveOrderChecker, CollectiveOrderError, force_sanitizers,
)
from repro.parallel.shmcomm import CommPeerLost, CommTimeout, SharedMemComm


def _world(size):
    return SharedMemComm.world(size)


def _on_threads(endpoints, fn):
    """Run ``fn(comm)`` for every non-root endpoint on its own thread;
    returns {rank: result} once all complete."""
    results = {}
    errors = []

    def run(comm):
        try:
            results[comm.rank] = fn(comm)
        except BaseException as exc:  # surfaced in the main thread
            errors.append((comm.rank, exc))

    threads = [threading.Thread(target=run, args=(c,), daemon=True)
               for c in endpoints[1:]]
    for t in threads:
        t.start()
    results[0] = fn(endpoints[0])
    for t in threads:
        t.join(timeout=10.0)
    assert not errors, errors
    return results


class TestCollectives:
    def test_allgather_rank_order(self):
        world = _world(4)
        out = _on_threads(world, lambda c: c.allgather(f"r{c.rank}",
                                                       timeout=5.0))
        assert all(v == ["r0", "r1", "r2", "r3"] for v in out.values())
        assert all(c.allreduce_count == 1 for c in world)

    def test_bcast_uses_root_value_only(self):
        world = _world(3)
        out = _on_threads(
            world,
            lambda c: c.bcast(("cmd", c.rank) if c.rank == 0 else None,
                              timeout=5.0))
        assert all(v == ("cmd", 0) for v in out.values())
        with pytest.raises(NotImplementedError):
            world[0].bcast("x", root=1)

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            SharedMemComm.world(0)
        # a 1-rank world degenerates to local reduction
        solo = SharedMemComm.world(1)[0]
        assert solo.allgather("only") == ["only"]


class TestFailureModes:
    def test_gather_timeout_reports_missing_ranks(self):
        root, w1, w2 = _world(3)
        w1._send_raw(0, ("coll", 1, "from-1"))  # rank 2 never answers
        with pytest.raises(CommTimeout) as exc:
            root.allgather("root", timeout=0.1)
        assert exc.value.missing == [2]
        assert root.pending

    def test_resume_keeps_buffered_contributions(self):
        root, w1, w2 = _world(3)
        w1._send_raw(0, ("coll", 1, "from-1"))
        with pytest.raises(CommTimeout):
            root.allgather("root", timeout=0.1)
        w1.close()  # the answered rank may even die now: already buffered
        w2._send_raw(0, ("coll", 1, "from-2"))
        assert root.resume(timeout=1.0) == ["root", "from-1", "from-2"]
        assert not root.pending

    def test_dead_peer_surfaces_as_timeout_with_missing(self):
        root, w1 = _world(2)
        w1.close()  # EOF on the pipe: CommPeerLost folded into missing
        with pytest.raises(CommTimeout) as exc:
            root.allgather(None, timeout=0.2)
        assert exc.value.missing == [1]

    def test_recv_raises_peer_lost_on_eof(self):
        root, w1 = _world(2)
        root.close()  # the worker's side of a collective is not folded
        with pytest.raises(CommPeerLost):
            w1.bcast(timeout=0.2)

    def test_reconnect_replaces_dead_rank(self):
        root, w1 = _world(2)
        w1.close()
        with pytest.raises(CommTimeout):
            root.allgather("x", timeout=0.1)
        fresh = root.reconnect(1)
        assert fresh.rank == 1 and fresh.size == 2
        # the abandoned collective is simply superseded: both sides agree
        # on the next sequence number, so a new collective completes
        out = {}
        t = threading.Thread(
            target=lambda: out.setdefault("w", fresh.allgather("b",
                                                               timeout=5.0)),
            daemon=True)
        t.start()
        assert root.allgather("a", timeout=5.0) == ["a", "b"]
        t.join(timeout=5.0)
        assert out["w"] == ["a", "b"]

    def test_only_root_reconnects(self):
        _, w1 = _world(2)
        with pytest.raises(RuntimeError, match="rank 0"):
            w1.reconnect(0)


def _spmd_child(comm):
    """Forked-process worker: three generations of the driver's actual
    sync pattern (bcast command, allgather token), then one payload."""
    for _ in range(3):
        cmd = comm.bcast(timeout=10.0)
        tokens = comm.allgather(("done", comm.rank), timeout=10.0)
        assert tokens[0] is None and len(tokens) == 3
        assert cmd[0] == "gen"
    comm.allgather({"rank": comm.rank}, timeout=10.0)
    comm.close()


class TestRealProcesses:
    def test_driver_sync_pattern_across_forked_workers(self):
        ctx = mp.get_context("fork")
        world = SharedMemComm.world(3, ctx=ctx)
        root = world[0]
        procs = [ctx.Process(target=_spmd_child, args=(world[r],),
                             daemon=True) for r in (1, 2)]
        for p, endpoint in zip(procs, world[1:]):
            p.start()
            endpoint.close()  # parent drops its copy of the child end
        for step in (1, 2, 3):
            root.bcast(("gen", step), timeout=10.0)
            tokens = root.allgather(None, timeout=10.0)
            assert tokens[1:] == [("done", 1), ("done", 2)]
        payloads = root.allgather(None, timeout=10.0)
        assert payloads[1:] == [{"rank": 1}, {"rank": 2}]
        for p in procs:
            p.join(timeout=10.0)
            assert p.exitcode == 0
        root.close()


class TestCollectiveOrder:
    """The single-wire collective protocol completes even when ranks
    disagree on the collective *kind* — rank 0 drives the semantics and
    the others just contribute payloads.  The per-rank order log plus
    CollectiveOrderChecker is what turns that silent hazard into a
    shutdown-time error."""

    @pytest.fixture()
    def forced(self):
        force_sanitizers(True)
        yield
        force_sanitizers(None)

    def _collect(self, logs):
        checker = CollectiveOrderChecker()
        for rank, log in logs.items():
            checker.add_sequence(rank, log)
        return checker

    def test_order_log_records_sequenced_kinds(self, forced):
        world = _world(2)

        def work(c):
            c.bcast("go" if c.rank == 0 else None, timeout=5.0)
            c.allgather(c.rank, timeout=5.0)
            c.bcast("stop" if c.rank == 0 else None, timeout=5.0)
            return list(c.order_log)

        logs = _on_threads(world, work)
        assert logs[0] == [(1, "bcast"), (2, "allgather"), (3, "bcast")]
        assert logs[1] == logs[0]
        self._collect(logs).verify()

    def test_order_log_empty_when_sanitizers_off(self):
        world = _world(2)
        logs = _on_threads(world,
                           lambda c: (c.allgather(1.0, timeout=5.0),
                                      list(c.order_log))[1])
        assert logs == {0: [], 1: []}

    def test_kind_divergence_passes_wire_but_fails_checker(self, forced):
        world = _world(2)

        def work(c):
            if c.rank == 0:
                c.bcast(1.0, timeout=5.0)
            else:
                c.allgather(2.0, timeout=5.0)  # wrong collective, same seq
            return list(c.order_log)

        logs = _on_threads(world, work)  # completes: no wire-level error
        with pytest.raises(CollectiveOrderError, match="allgather"):
            self._collect(logs).verify()
