"""In-memory span recorder and the run-time patches that feed it.

Spans are recorded only from here: the traced repeat wraps public
methods of the layer objects the drivers call (``src/`` carries no
benchmark hooks), keeps every span in memory and aggregates when the
repeat has ended.  A span is ``[name, parent index, start, end]``; a
layer's *self* time is its spans' duration minus the part their child
spans cover, so self times of all names add up to the root span.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import inspect
import time

_MISSING = object()

#: ``(modules, {target: span name})`` — a target is a module-level function,
#: a method name (wrapped on every class of the module that defines it
#: itself, so a class a later change adds to a layer module is traced
#: without editing this file) or ``Class.method``.  Several targets may
#: share a span name: the name is the metric, the method is only where the
#: layer is entered.
LAYERS = (
    (("repro.distances.aa_soa", "repro.distances.aa_otf",
      "repro.distances.ab_soa", "repro.batched.distances"),
     {"evaluate": "distances.evaluate", "move": "distances.move",
      "update": "distances.update"}),
    (("repro.jastrow.j1", "repro.jastrow.j2", "repro.batched.jastrow"),
     {"grad": "jastrow.grad", "sweep_grad": "jastrow.grad",
      "ratio": "jastrow.ratio_grad", "ratio_grad": "jastrow.ratio_grad",
      "sweep_ratio": "jastrow.ratio_grad",
      "sweep_ratio_grad": "jastrow.ratio_grad",
      "accept_move": "jastrow.accept", "reject_move": "jastrow.accept",
      "evaluate_log": "jastrow.evaluate_gl",
      "evaluate_gl": "jastrow.evaluate_gl",
      "ratio_at": "jastrow.ratios_vp", "ratios_vp": "jastrow.ratios_vp"}),
    (("repro.determinant.dirac",),
     {"grad": "determinant.ratio_grad", "ratio": "determinant.ratio_grad",
      "ratio_grad": "determinant.ratio_grad",
      "accept_move": "determinant.accept",
      "reject_move": "determinant.accept",
      "evaluate_log": "determinant.evaluate",
      "evaluate_gl": "determinant.evaluate",
      "recompute": "determinant.evaluate",
      "ratio_at": "determinant.ratios_vp",
      "ratios_vp": "determinant.ratios_vp"}),
    (("repro.spo.sposet",),
     {"evaluate_v": "spo.v", "evaluate_vgl": "spo.vgl"}),
    # DiracDeterminant.ratios_vp evaluates its slab through this module
    # function, not through the SPO set.
    (("repro.batched.spo",), {"batched_multi_v": "spo.v"}),
    (("repro.wavefunction.trialwf",),
     dict.fromkeys(
         ("evaluate_log", "evaluate_gl", "grad", "ratio", "ratio_at",
          "ratios_vp", "ratio_grad", "accept_move", "reject_move",
          "register_data", "update_buffer", "copy_from_buffer"),
         "wavefunction.call")),
    (("repro.hamiltonian.local_energy", "repro.batched.system"),
     {"evaluate": "hamiltonian.evaluate"}),
    (("repro.hamiltonian.nlpp", "repro.batched.nlpp"),
     {"evaluate": "hamiltonian.nlpp"}),
    (("repro.drivers.base", "repro.drivers.vmc"),
     {"sweep": "drivers.sweep", "store_walker": "drivers.measure",
      "load_walker": "drivers.load", "run": "drivers.run"}),
    (("repro.batched.driver",),
     {"sweep": "batched.sweep", "measure": "batched.measure",
      "refresh_from_positions": "batched.refresh", "run": "batched.run"}),
    (("repro.batched.sweep",), {"fill": "batched.rng_fill"}),
    (("repro.parallel.crowds",), {"run": "parallel.run"}),
    (("repro.output.stream",),
     {"StreamSet.record": "output.record",
      "StreamSet.close": "output.close"}),
    (("repro.output.runstate",),
     {"save_run_checkpoint": "output.checkpoint"}),
    (("repro.stats.online",), {"add_array": "stats.online_add"}),
)

#: ``(module, target, counter, argument index)`` — adds the length of that
#: positional argument (1 when the index is None) to the counter on every
#: call.
COUNTERS = (
    ("repro.wavefunction.trialwf", "ratios_vp", "nlpp_ratio_points", 2),
    # J2 and J1 see the same slab; count it once.
    ("repro.batched.jastrow", "BatchedTwoBodyJastrow.ratios_vp",
     "nlpp_ratio_points", 3),
    ("repro.spo.sposet", "BsplineSPOSet.evaluate_v", "spo_points", None),
    ("repro.spo.sposet", "BsplineSPOSet.evaluate_vgl", "spo_points", None),
    ("repro.batched.spo", "batched_multi_v", "spo_points", 1),
)


class Tracer:
    """Records spans and counts for one traced repeat."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: collections.Counter = collections.Counter()
        #: objects the driver built internally, kept for size read-outs
        self.kept: dict = {}
        self._open = -1

    def _begin(self, name: str) -> list:
        rec = [name, self._open, 0.0, 0.0]
        self.spans.append(rec)
        self._open = len(self.spans) - 1
        rec[2] = time.perf_counter()
        return rec

    def _end(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._open = rec[1]

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._begin(name)
        try:
            yield
        finally:
            self._end(rec)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(rec)
        return traced

    def inside(self, name: str) -> bool:
        """Is a span called ``name`` open right now?"""
        i = self._open
        while i >= 0:
            if self.spans[i][0] == name:
                return True
            i = self.spans[i][1]
        return False

    def totals(self) -> dict:
        """``{name: [calls, inclusive seconds, self seconds]}``.

        Inclusive seconds of a name that nests inside itself count the
        inner span twice; self seconds never do.
        """
        covered = [0.0] * len(self.spans)
        for _, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict = {}
        for (name, _, start, end), child in zip(self.spans, covered):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return out


def _observed(fn, observe):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        observe(args)
        return fn(*args, **kwargs)
    return call


def _owners(module_name: str, target: str):
    """``(owner, attribute)`` pairs a target of :data:`LAYERS` names."""
    module = importlib.import_module(module_name)
    only, _, attr = target.rpartition(".")
    if not only and inspect.isfunction(vars(module).get(attr)):
        yield module, attr
        return
    for obj in list(vars(module).values()):
        if (inspect.isclass(obj) and obj.__module__ == module_name
                and inspect.isfunction(vars(obj).get(attr))
                and only in ("", obj.__name__)):
            yield obj, attr


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install every wrapper for the duration, restore on exit."""
    undo = []

    def patch(owner, attr, make):
        own = vars(owner).get(attr, _MISSING)
        setattr(owner, attr, make(getattr(owner, attr)))
        undo.append((owner, attr, own))

    try:
        for modules, methods in LAYERS:
            for module_name in modules:
                for target, name in methods.items():
                    for owner, attr in _owners(module_name, target):
                        patch(owner, attr,
                              functools.partial(tracer.wrap, name))
        for module_name, target, counter, index in COUNTERS:
            def count(args, counter=counter, index=index):
                tracer.counters[counter] += (
                    1 if index is None else len(args[index]))
            for owner, attr in _owners(module_name, target):
                patch(owner, attr,
                      functools.partial(_observed, observe=count))
        _patch_batched_driver(tracer, patch)
        _patch_backend(tracer, patch)
        yield
    finally:
        for owner, attr, own in reversed(undo):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def _patch_batched_driver(tracer: Tracer, patch) -> None:
    """``ParallelCrowdDriver(workers=0)`` builds its crowd engine inside
    ``run``; keep the batched driver it sweeps so its batch and table
    sizes can be read when the repeat has ended."""
    from repro.batched.driver import BatchedCrowdDriver

    def keep(args):
        tracer.kept["batched"] = args[0]
    patch(BatchedCrowdDriver, "sweep",
          functools.partial(_observed, observe=keep))


def _patch_backend(tracer: Tracer, patch) -> None:
    """Counting proxy on the kernel seam: a kernel entered from outside
    any other kernel while a sweep is open is one dispatch of that
    sweep; ``sweep_run`` also gets a span."""
    from repro.backend import KERNEL_NAMES, get_backend

    backend = get_backend()
    depth = [0]

    def counted(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            if depth[0] == 0 and tracer.inside("batched.sweep"):
                tracer.counters["sweep_dispatches"] += 1
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return call

    patch(backend, "sweep_run",
          functools.partial(tracer.wrap, "backend.sweep_run"))
    for kernel in KERNEL_NAMES:
        patch(backend, kernel, counted)
