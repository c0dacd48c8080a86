"""``SharedMemComm`` — an MPI-style collective API across *real*
processes, the only communicator in the package.

It carries the two collectives the crowd pool calls — ``bcast`` and
``allgather``, each counted in ``allreduce_count`` — with every rank a
genuine OS process calling in SPMD style with *its own* contribution.
Rank 0 (the coordinator) gathers in rank order and broadcasts, so
collective results are deterministic.

Transport is a star of ``multiprocessing.Pipe`` duplex connections
(rank 0 <-> every other rank).  Only *small control payloads* — scalars,
seeds, command tuples — ride the pipes; bulk walker state crosses
process boundaries exclusively through the shared-memory blocks of
:mod:`repro.parallel.shm` (a tier-1 test sums the pickled bytes per
generation and fails if they grow with the walker count).

Crash semantics: every blocking receive takes a timeout; a dead peer
surfaces as :class:`CommTimeout` or :class:`CommPeerLost`, which the
crowd driver converts into its detect-and-respawn path via
:meth:`SharedMemComm.reconnect`.
"""

from __future__ import annotations

import multiprocessing as mp
from multiprocessing import connection
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sanitizers import sanitizers_enabled


class CommTimeout(RuntimeError):
    """A collective or receive did not complete in time."""

    def __init__(self, message: str, missing: Sequence[int] = ()):
        super().__init__(message)
        self.missing = list(missing)


class CommPeerLost(RuntimeError):
    """The connection to a peer rank returned EOF (process death)."""

    def __init__(self, rank: int):
        super().__init__(f"lost connection to rank {rank}")
        self.rank = rank


class SharedMemComm:
    """One rank's endpoint of a ``size``-rank process communicator."""

    def __init__(self, rank: int, size: int,
                 conns: Dict[int, connection.Connection]):
        self.rank = int(rank)
        self.size = int(size)
        self._conns = conns          # root: {r: conn}; worker: {0: conn}
        self._seq = 0                # SPMD collective sequence number
        #: buffered collective contributions: (src, seq) -> payload
        self._coll_inbox: Dict[Tuple[int, int], Any] = {}
        #: root only: (seq, reduce_fn) of a gather that timed out and can
        #: be retried with :meth:`resume` (contributions already received
        #: stay buffered, so a slow rank costs nothing extra)
        self._pending: Optional[Tuple[int, Callable[[List[Any]], Any]]] = None
        #: collectives entered
        self.allreduce_count = 0
        #: (seq, kind) per collective entered, recorded while sanitizers
        #: are armed; CollectiveOrderChecker cross-checks these at
        #: shutdown (every kind shares one wire protocol, so divergent
        #: kinds succeed on the wire — only the log catches them)
        self.order_log: List[Tuple[int, str]] = []

    # -- world construction ------------------------------------------------------
    @classmethod
    def world(cls, size: int,
              ctx: Optional[mp.context.BaseContext] = None
              ) -> List["SharedMemComm"]:
        """Build all ``size`` endpoints (parent side).  Endpoint ``r > 0``
        is handed to worker process ``r`` as a spawn/fork argument."""
        if size < 1:
            raise ValueError("communicator needs at least one rank")
        ctx = ctx or mp.get_context()
        root_conns: Dict[int, connection.Connection] = {}
        ranks = [cls(0, size, root_conns)]
        for r in range(1, size):
            parent_end, child_end = ctx.Pipe(duplex=True)
            root_conns[r] = parent_end
            ranks.append(cls(r, size, {0: child_end}))
        return ranks

    def reconnect(self, rank: int,
                  ctx: Optional[mp.context.BaseContext] = None
                  ) -> "SharedMemComm":
        """Root only: replace a dead rank's pipe and return the fresh
        endpoint for the respawned process.  Buffered state from the old
        incarnation is discarded."""
        if self.rank != 0:
            raise RuntimeError("only rank 0 can reconnect a peer")
        ctx = ctx or mp.get_context()
        old = self._conns.pop(rank, None)
        if old is not None:
            try:
                old.close()
            except OSError:
                pass
        self._coll_inbox = {k: v for k, v in self._coll_inbox.items()
                            if k[0] != rank}
        parent_end, child_end = ctx.Pipe(duplex=True)
        self._conns[rank] = parent_end
        endpoint = SharedMemComm(rank, self.size, {0: child_end})
        endpoint._seq = self._seq
        return endpoint

    # -- wire helpers ------------------------------------------------------------
    def _recv_routed(self, src: int, timeout: Optional[float]) -> Any:
        """Receive the next raw ``(kind, seq, payload)`` message from
        ``src``, raising on EOF or timeout."""
        conn = self._conns[src]
        if timeout is not None and not conn.poll(timeout):
            raise CommTimeout(
                f"rank {self.rank}: no message from rank {src} within "
                f"{timeout:.1f}s", missing=[src])
        try:
            return conn.recv()
        except (EOFError, OSError, BrokenPipeError):
            raise CommPeerLost(src) from None

    def _pump_until(self, src: int, want_kind: str, want_seq: int,
                    timeout: Optional[float]) -> Any:
        """Read from ``src`` until a message of (kind, seq) arrives,
        buffering everything else for its own consumer."""
        key = (src, want_seq)
        while True:
            if key in self._coll_inbox:
                return self._coll_inbox.pop(key)
            kind, seq, payload = self._recv_routed(src, timeout)
            if kind == want_kind and seq == want_seq:
                return payload
            self._coll_inbox[(src, seq)] = payload

    def _send_raw(self, dst: int, msg: tuple) -> None:
        try:
            self._conns[dst].send(msg)
        except (OSError, BrokenPipeError):
            raise CommPeerLost(dst) from None

    # -- collectives (SPMD calling convention) -----------------------------------
    def _collective(self, value: Any, reduce_fn: Callable[[List[Any]], Any],
                    timeout: Optional[float],
                    label: str = "collective") -> Any:
        """Root gathers [rank 0, 1, ..] contributions, reduces in rank
        order, broadcasts; every rank returns the reduced result."""
        self._seq += 1
        self.allreduce_count += 1
        seq = self._seq
        if sanitizers_enabled():
            self.order_log.append((seq, label))
        if self.rank == 0:
            self._coll_inbox[(0, seq)] = value
            self._pending = (seq, reduce_fn)
            return self._finish_collective(timeout)
        self._send_raw(0, ("coll", seq, value))
        return self._pump_until(0, "collr", seq, timeout)

    def _finish_collective(self, timeout: Optional[float]) -> Any:
        """Root only: gather whatever contributions are still missing for
        the pending collective, reduce, broadcast.  Raises
        :class:`CommTimeout` (with the still-missing ranks) while any
        contribution is outstanding; already-received ones stay buffered
        so :meth:`resume` never re-waits for a rank that answered."""
        if self._pending is None:
            raise RuntimeError("no collective pending")
        seq, reduce_fn = self._pending
        missing: List[int] = []
        for r in range(1, self.size):
            if (r, seq) in self._coll_inbox:
                continue
            try:
                self._coll_inbox[(r, seq)] = \
                    self._pump_until(r, "coll", seq, timeout)
            except (CommTimeout, CommPeerLost):
                missing.append(r)
        if missing:
            raise CommTimeout(
                f"collective #{seq} missing contributions from ranks "
                f"{missing}", missing=missing)
        contributions = [self._coll_inbox.pop((r, seq))
                         for r in range(self.size)]
        result = reduce_fn(contributions)
        self._pending = None
        for r in range(1, self.size):
            try:
                self._send_raw(r, ("collr", seq, result))
            except CommPeerLost:
                pass  # the dead peer surfaces on the next gather
        return result

    def resume(self, timeout: Optional[float] = None) -> Any:
        """Root only: retry the gather phase of a timed-out collective
        without advancing the sequence number — the driver's liveness
        poll calls the collective with a short timeout and resumes until
        either everyone answers or a worker is found dead."""
        return self._finish_collective(timeout)

    @property
    def pending(self) -> bool:
        """True while a root-side collective awaits contributions."""
        return self._pending is not None

    def allgather(self, value: Any,
                  timeout: Optional[float] = None) -> List[Any]:
        """Every rank contributes one object; all get the rank-ordered list."""
        return self._collective(value, list, timeout, label="allgather")

    def bcast(self, value: Any = None, root: int = 0,
              timeout: Optional[float] = None) -> Any:
        """One-to-all: only ``root``'s value is used (root-only here)."""
        if root != 0:
            raise NotImplementedError("star topology: root must be rank 0")
        return self._collective(value if self.rank == 0 else None,
                                lambda parts: parts[0], timeout,
                                label="bcast")

    # -- teardown ---------------------------------------------------------------
    def close(self) -> None:
        for conn in self._conns.values():
            try:
                conn.close()
            except OSError:
                pass
        self._conns = {}
        self._pending = None
        self._coll_inbox = {}

    def __repr__(self) -> str:
        return f"SharedMemComm(rank={self.rank}, size={self.size})"
