"""Hierarchical timer/counter registry — the repo's observability spine.

Modeled on QMCPACK's hierarchical ``TimerManager`` (Luo et al., the
hierarchical-parallelism design paper): named scopes nest, so entering
``sweep`` while ``VMC`` is open produces the tree node ``VMC/sweep``.
Every node tracks

* ``calls`` — how many times the scope was entered,
* ``seconds`` — **inclusive** wall time (children included),
* ``flops``/``rbytes``/``wbytes`` — the modelled work the kernels
  recorded while it was the innermost open scope (the roofline input),
* named ``counters`` (row updates, OTF recomputes, ...).

Exclusive time (inclusive minus the children's inclusive) is derived at
snapshot time, so hot-path bookkeeping is one ``perf_counter`` pair per
scope entry and nothing else.

Threading: each thread records into its own tree, so a thread never
takes the registry lock on the hot path; :meth:`MetricsRegistry.snapshot`
merges the per-thread trees path-by-path under the lock.  Crowd workers
are processes and come home through :meth:`merge_snapshot`; the only
threads left are ``TiledBSpline3D``'s tile pool, whose records land in
the pool threads' trees, not under the caller's open scope.

Cost discipline: the registry is armed by ``REPRO_METRICS=1``,
:meth:`enable` or, for one run, :meth:`MetricsRegistry.profile_run`.
When disarmed, :meth:`scope` returns a shared no-op context manager and
the counter methods return immediately — one attribute check per call
site, so production sweeps pay effectively nothing.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.metrics.profile import (PROFILE_CATEGORIES, HotspotProfile,
                                   category_view)

__all__ = ["MetricsRegistry", "ScopeNode", "METRICS", "metrics_enabled"]


def metrics_enabled() -> bool:
    """True when the environment (``REPRO_METRICS``) arms the global registry."""
    return os.environ.get("REPRO_METRICS", "") not in ("", "0")


class _NullScope:
    """Shared do-nothing context manager handed out while disarmed."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SCOPE = _NullScope()


class ScopeNode:
    """One named node of a thread's scope tree."""

    __slots__ = ("name", "calls", "seconds", "flops", "rbytes", "wbytes",
                 "counters", "children")

    #: the modelled-work fields, recorded exclusively (never inclusive)
    OPS_FIELDS = ("flops", "rbytes", "wbytes")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.seconds = 0.0          # inclusive
        self.flops = 0.0
        self.rbytes = 0.0
        self.wbytes = 0.0
        self.counters: Dict[str, float] = {}
        self.children: Dict[str, "ScopeNode"] = {}

    def child(self, name: str) -> "ScopeNode":
        node = self.children.get(name)
        if node is None:
            node = ScopeNode(name)
            self.children[name] = node
        return node

    @property
    def exclusive(self) -> float:
        """Inclusive time minus the children's inclusive time."""
        return self.seconds - sum(c.seconds for c in self.children.values())

    @classmethod
    def from_dict(cls, data: dict) -> "ScopeNode":
        """Rebuild a node (recursively) from its :meth:`as_dict` form —
        the inverse used when merging another *process's* snapshot."""
        node = cls(str(data.get("name", "?")))
        node.calls = int(data.get("calls", 0))
        node.seconds = float(data.get("inclusive_s", 0.0))
        for key in cls.OPS_FIELDS:
            setattr(node, key, float(data.get(key, 0.0)))
        node.counters = dict(data.get("counters", {}))
        for child in data.get("children", ()):
            rebuilt = cls.from_dict(child)
            node.children[rebuilt.name] = rebuilt
        return node

    def merge(self, other: "ScopeNode") -> None:
        """Fold ``other`` (same name) into this node, recursively."""
        self.calls += other.calls
        self.seconds += other.seconds
        self.flops += other.flops
        self.rbytes += other.rbytes
        self.wbytes += other.wbytes
        for key, val in other.counters.items():
            self.counters[key] = self.counters.get(key, 0) + val
        for name, theirs in other.children.items():
            self.child(name).merge(theirs)

    def as_dict(self) -> dict:
        """JSON-ready view: inclusive/exclusive seconds, modelled work,
        counts, children."""
        out = {
            "name": self.name,
            "calls": self.calls,
            "inclusive_s": self.seconds,
            "exclusive_s": self.exclusive,
        }
        for key in self.OPS_FIELDS:
            if getattr(self, key):
                out[key] = getattr(self, key)
        if self.counters:
            out["counters"] = dict(self.counters)
        if self.children:
            out["children"] = [c.as_dict() for c in self.children.values()]
        return out


class _ThreadState:
    """Per-thread recording state: a private root plus the open-scope stack."""

    __slots__ = ("root", "stack", "generation")

    def __init__(self, generation: int):
        self.root = ScopeNode("<root>")
        self.stack: List[Tuple[ScopeNode, float]] = []
        self.generation = generation

    @property
    def current(self) -> ScopeNode:
        return self.stack[-1][0] if self.stack else self.root


class _ScopeTimer:
    """Context manager pushing one node onto the owning thread's stack."""

    __slots__ = ("_registry", "_name")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name

    def __enter__(self):
        state = self._registry._state()
        node = state.current.child(self._name)
        state.stack.append((node, time.perf_counter()))
        return self

    def __exit__(self, *exc):
        state = self._registry._state()
        if state.stack:
            node, t0 = state.stack.pop()
            node.calls += 1
            node.seconds += time.perf_counter() - t0
        return False


class MetricsRegistry:
    """Registry of hierarchical timers and counters; see module docstring."""

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: List[Tuple[str, _ThreadState]] = []
        self._generation = 0

    # -- arming -----------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all recorded data (all threads) without touching arming."""
        with self._lock:
            self._generation += 1
            self._states.clear()

    # -- recording --------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state: Optional[_ThreadState] = getattr(self._local, "state", None)
        if state is None or state.generation != self._generation:
            state = _ThreadState(self._generation)
            self._local.state = state
            with self._lock:
                self._states.append((threading.current_thread().name, state))
        return state

    def scope(self, name: str):
        """Context manager timing a named scope nested under the current one."""
        if not self.enabled:
            return _NULL_SCOPE
        return _ScopeTimer(self, name)

    @contextmanager
    def profile_run(self, scope: str, label: str = "",
                    categories: Iterable[str] = PROFILE_CATEGORIES
                    ) -> Iterator[HotspotProfile]:
        """Open ``scope`` as a profiled run: arm the registry for the
        block if it is not armed, restore the previous arming on exit
        (normal or not), and fill the yielded ``HotspotProfile`` with the
        paper view of what *this* run recorded on the calling thread.
        The run records into a node of its own — an earlier run under
        the same name never leaks in — which is then merged into the
        tree (where :meth:`scope` would have put it) if that was armed."""
        profile = HotspotProfile({}, 0.0, label or scope)
        was_enabled = self.enabled
        self.enabled = True
        state = self._state()
        node = ScopeNode(scope)
        state.stack.append((node, time.perf_counter()))
        try:
            yield profile
        finally:
            _, t0 = state.stack.pop()
            node.calls = 1
            node.seconds = time.perf_counter() - t0
            self.enabled = was_enabled
            profile.seconds, profile.ops = category_view(node, categories)
            profile.total = node.seconds
            if was_enabled:
                state.current.child(scope).merge(node)

    def record(self, flops: float = 0.0, rbytes: float = 0.0,
               wbytes: float = 0.0) -> None:
        """Add a kernel call's modelled flops and bytes read/written to
        the innermost open scope — the category the kernel runs under."""
        if not self.enabled:
            return
        node = self._state().current
        node.flops += flops
        node.rbytes += rbytes
        node.wbytes += wbytes

    def count(self, name: str, n: float = 1) -> None:
        """Bump a named counter on the innermost open scope."""
        if not self.enabled:
            return
        counters = self._state().current.counters
        counters[name] = counters.get(name, 0) + n

    def add_seconds(self, name: str, seconds: float) -> None:
        """Directly attribute time to child ``name`` of the current scope
        (for modeled rather than measured time).  Works even while the
        registry is disarmed — explicit attribution is never a hot path."""
        node = self._state().current.child(name)
        node.calls += 1
        node.seconds += float(seconds)

    def merge_snapshot(self, snapshot: dict, label: str = "remote") -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        This is the cross-*process* analogue of the per-thread merge: a
        worker process snapshots its private registry at join time, ships
        the JSON-ready dict over the control pipe (one message per worker
        per run, never per step), and the parent grafts it here.  The
        merged tree is indistinguishable from one recorded by an extra
        thread, so ``snapshot``/``flat``/``exclusive_by_name`` all see
        the workers' scopes, and the ops recorded outside any scope."""
        root = ScopeNode("<root>")
        for key in ScopeNode.OPS_FIELDS:
            setattr(root, key, float(snapshot.get(key, 0.0)))
        for child in snapshot.get("scopes", ()):
            rebuilt = ScopeNode.from_dict(child)
            root.children[rebuilt.name] = rebuilt
        state = _ThreadState(self._generation)
        state.root = root
        with self._lock:
            self._states.append((label, state))

    # -- reporting --------------------------------------------------------------
    def _merged_root(self) -> ScopeNode:
        root = ScopeNode("<root>")
        with self._lock:
            states = [s for _, s in self._states
                      if s.generation == self._generation]
        for state in states:
            root.merge(state.root)
        return root

    def snapshot(self) -> dict:
        """Merged tree of every thread's scopes, JSON-ready, with the
        flops and bytes recorded outside any scope at the top level.

        Call with all worker threads quiescent: open scopes contribute
        their calls-so-far but not their in-flight interval.
        """
        root = self._merged_root()
        out = {key: getattr(root, key) for key in ScopeNode.OPS_FIELDS
               if getattr(root, key)}
        out["scopes"] = [c.as_dict() for c in root.children.values()]
        return out

    def flat(self) -> Dict[str, dict]:
        """``{"A/B/C": {calls, inclusive_s, exclusive_s, flops, rbytes,
        wbytes}}``."""
        out: Dict[str, dict] = {}

        def walk(node: ScopeNode, prefix: str) -> None:
            for child in node.children.values():
                path = f"{prefix}/{child.name}" if prefix else child.name
                entry = out.setdefault(path, dict.fromkeys(
                    ("calls", "inclusive_s", "exclusive_s")
                    + ScopeNode.OPS_FIELDS, 0))
                entry["calls"] += child.calls
                entry["inclusive_s"] += child.seconds
                entry["exclusive_s"] += child.exclusive
                for key in ScopeNode.OPS_FIELDS:
                    entry[key] += getattr(child, key)
                walk(child, path)

        walk(self._merged_root(), "")
        return out

    def exclusive_by_name(self) -> Dict[str, float]:
        """Exclusive seconds summed over every node with a given *leaf*
        name, anywhere in any thread's tree — the whole-registry form
        of the innermost-category attribution a run's paper view
        (:func:`repro.metrics.profile.category_view`) is built from."""
        out: Dict[str, float] = {}

        def walk(node: ScopeNode) -> None:
            for child in node.children.values():
                out[child.name] = out.get(child.name, 0.0) + child.exclusive
                walk(child)

        walk(self._merged_root())
        return out


#: The process-global registry, armed by ``REPRO_METRICS=1``.
METRICS = MetricsRegistry(enabled=metrics_enabled())
