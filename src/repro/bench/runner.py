"""Execute a bench suite and assemble the BENCH artifact document.

Every kind puts one question to two *legs* — two engines or two code
paths on identical inputs — and answers it the same way, so that
sequence is written once, in :func:`_measure`.  A kind is a small
function that supplies its legs, its exactness predicate and its extras;
:data:`KINDS` is the one table of them.  With the global metrics
registry armed (``REPRO_METRICS=1``) the artifact also embeds the scope
tree of the whole suite run.
"""

from __future__ import annotations

import json
import os
import time
from typing import TYPE_CHECKING, Callable, Dict, Optional, Sequence

from repro.bench.fingerprint import host_fingerprint
from repro.metrics.profile import HotspotProfile
from repro.metrics.registry import METRICS
from repro.metrics.schema import BENCH_SCHEMA_VERSION, validate_artifact

if TYPE_CHECKING:  # suite.py imports KINDS from here
    from repro.bench.suite import BenchCase


def _version_entry(prof: HotspotProfile, work: float, steps: int,
                   walker_bytes: float) -> dict:
    return {
        "throughput": work / prof.total,
        "seconds_per_step": prof.total / steps,
        "total_seconds": prof.total,
        "hotspots": prof.normalized(),
        "peak_walker_bytes": float(walker_bytes),
    }


def _measure(case: BenchCase, legs: Dict[str, Callable[[], object]],
             *, work: float, steps: int, reps: int, walker_bytes: float,
             speedups: Sequence[str],
             check: Callable[[Dict[str, object]], None]) -> dict:
    """The measurement sequence every kind shares.

    ``legs`` maps version labels to callables running one repetition
    (``work`` walker-steps in ``steps`` steps).  Each leg first runs once
    untimed (page faults, lazy setup) and ``check`` gets those results
    by label: it raises when the kind's exactness contract is broken, so
    a silently wrong fast path fails the bench before anything is timed.
    Then ``reps`` rounds run the legs interleaved (host drift hits all
    equally), each repetition under ``METRICS.profile_run``; the fastest
    one's time and profile are kept.
    ``speedups`` names ``A_over_B`` pairs (B's time over A's);
    ``case.floor`` gates the first.
    """
    warm = {label: leg() for label, leg in legs.items()}
    check(warm)
    best: Dict[str, HotspotProfile] = {}
    for _ in range(reps):
        for label, leg in legs.items():
            with METRICS.profile_run(label, f"{case.name}/{label}") as prof:
                leg()
            if label not in best or prof.total < best[label].total:
                best[label] = prof
    out = {
        "name": case.name, "kind": case.kind, "steps": case.steps,
        "versions": {label: _version_entry(prof, work, steps, walker_bytes)
                     for label, prof in best.items()},
        "speedups": {},
    }
    for name in speedups:
        fast, slow = name.split("_over_")
        out["speedups"][name] = best[slow].total / best[fast].total
    if case.floor > 0:
        out["speedup_floors"] = {speedups[0]: float(case.floor)}
    return out


def _system_walker_bytes(parts, precision) -> int:
    """Measured per-walker footprint: positions + registered buffer."""
    from repro.particles.walker import Walker
    w = Walker.from_positions(parts.electrons.R.copy(),
                              dtype=precision.value_dtype)
    parts.electrons.load_walker(w)
    parts.twf.evaluate_log(parts.electrons)
    parts.twf.register_data(parts.electrons, w.buffer)
    return int(w.message_nbytes())


def run_nlpp_case(case: BenchCase) -> dict:
    """Scalar temp-move NLPP oracle vs the fused virtual-particle engine
    on identical walker state and rotations.

    Both engines are keyed on the same stateless quadrature-rotation
    stream, so their V_NL values must agree to accumulation precision
    (the exactness check); ``floor`` gates ``batched_over_scalar``.
    """
    import numpy as np

    from repro.hamiltonian.nlpp import NonLocalPP, QuadratureRotations
    from repro.precision.policy import FULL
    from repro.workloads import get_workload
    from repro.workloads.builder import build_system

    parts = build_system(get_workload(case.workload), scale=case.scale,
                         seed=case.seed, with_nlpp=False)
    P, twf = parts.electrons, parts.twf
    P.update_tables()
    twf.evaluate_log(P)
    rcut = min(1.4, 0.9 * parts.lattice.wigner_seitz_radius)
    term = NonLocalPP(parts.ions, range(parts.ions.n), l=1, v0=0.5,
                      width=0.8, rcut=rcut, npoints=case.npoints,
                      table_index=1)
    term.use_rotations(QuadratureRotations(case.seed + 1))

    def leg(engine):
        def run():
            vals = []
            for s in range(case.steps):
                term.set_walker(0, s + 1)  # same rotation key, both engines
                vals.append(engine(P, twf))
            return vals
        return run

    def check(warm):
        tol = 1e4 * float(np.finfo(np.float64).eps)
        for v_vp, v_ref in zip(warm["batched"], warm["scalar"]):
            if abs(v_vp - v_ref) > tol * max(1.0, abs(v_ref)):
                raise RuntimeError(
                    f"{case.name}: batched NLPP diverged from the scalar "
                    f"oracle ({v_vp!r} vs {v_ref!r}) — parity regression")

    out = _measure(
        case, {"scalar": leg(term.evaluate_reference),
               "batched": leg(term.evaluate)},
        work=case.steps, steps=case.steps, reps=3, check=check,
        walker_bytes=_system_walker_bytes(parts, FULL),
        speedups=("batched_over_scalar",))
    out.update(workload=case.workload, scale=case.scale, walkers=1,
               n_electrons=parts.n_electrons, npoints=case.npoints)
    return out


class _CountingBackend:
    """Proxy that counts dispatch crossings of the kernel seam.

    Every kernel method increments ``dispatches`` at call depth 0 and
    delegates to the wrapped kernel class.  Kernels a pipeline kernel
    (``sweep_run``) calls from inside run at depth > 0, so the fused leg
    counts one dispatch per sweep while the loop leg counts every
    per-electron table/functor/exp/accept call.
    """

    def __init__(self, inner):
        from repro.backend import KERNEL_NAMES
        self.dispatches = 0
        self._depth = 0
        for kname in KERNEL_NAMES:
            setattr(self, kname, self._wrap(getattr(inner, kname)))

    def _wrap(self, fn):
        def call(*args, **kwargs):
            if self._depth == 0:
                self.dispatches += 1
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
        return call


def _sweep_driver(case: BenchCase, oracle: bool = False):
    """One batched driver for the sweep case; ``oracle=True`` rebinds
    the retained pre-fusion loop body as its sweep implementation.

    Forward-update AA flavor: the paper's default scheme, and the one
    where the fused pipeline's old-row value reuse applies (the OTF
    table refreshes the row inside ``move``, see batched/jastrow.py)."""
    from repro.batched import BatchedCrowdDriver, JastrowSystemSpec
    from repro.batched.reference import use_loop_sweep

    spec = JastrowSystemSpec(n=case.n, seed=7, aa_flavor="soa")
    drv = BatchedCrowdDriver(spec, case.nwalkers, case.seed,
                             use_drift=True)
    if oracle:
        use_loop_sweep(drv)
    return drv


def run_sweep_case(case: BenchCase) -> dict:
    """What whole-sweep fusion buys (docs/sweep_fusion.md).

    Legs: ``loop`` (the retained per-electron loop oracle, ~14 kernel
    dispatches per electron) and ``fused`` (the ``sweep_run`` pipeline
    kernel, one per sweep).  Both start from one seed, so after the
    warm-up the fused leg must be bitwise the loop oracle — accepts,
    energies, positions.  Dispatches per leg are counted with a proxy
    on the kernel seam; ``floor`` gates ``fused_over_loop``.
    """
    import numpy as np

    from repro.backend import get_backend, use_backend

    drivers, dispatches = {}, {}

    def leg(label):
        drv = drivers[label] = _sweep_driver(case, oracle=(label == "loop"))
        counting = _CountingBackend(get_backend())
        with use_backend(counting):
            drv.sweep()
        dispatches[label] = counting.dispatches
        return lambda: [drv.sweep() for _ in range(case.steps)]

    legs = {label: leg(label) for label in case.versions}

    def check(warm):
        fused, loop = drivers["fused"], drivers["loop"]
        for what, a, b in (
                ("accept totals", warm["fused"], warm["loop"]),
                ("accept stream", fused.last_sweep_accepts,
                 loop.last_sweep_accepts),
                ("energies", fused.measure(), loop.measure()),
                ("positions", fused.batch.R, loop.batch.R)):
            if not np.array_equal(a, b):
                raise RuntimeError(
                    f"{case.name}: fused sweep {what} diverged from the "
                    f"loop oracle — exactness regression")

    drv = next(iter(drivers.values()))
    out = _measure(
        case, legs, work=case.steps * case.nwalkers, steps=case.steps,
        reps=7, check=check,
        walker_bytes=(drv.batch.R.nbytes + drv.batch.Rsoa.nbytes
                      + sum(t.storage_bytes for t in drv.tables)
                      ) / case.nwalkers,
        speedups=("fused_over_loop",))
    for label, count in dispatches.items():
        out["versions"][label].update(
            dispatches_per_sweep=float(count),
            dispatches_per_electron=count / case.n)
    out.update(n_electrons=case.n, walkers=case.nwalkers)
    return out


def _private_rss_bytes() -> int:
    """This process's private (unshared) resident bytes — the number a
    per-worker table copy moves and a shared-slab mapping does not."""
    total = 0
    with open("/proc/self/smaps_rollup") as fh:
        for line in fh:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1]) * 1024
    return total


def _rss_probe_child(descriptor, mode: str, wfd: int) -> None:
    """Forked-child body: attach the slab, realize one table-residency
    strategy, report the private-RSS delta in bytes over ``wfd``.

    Exits via ``os._exit`` so the parent's atexit/finalizer machinery
    (including the slab owner's unlink guard) never runs here.
    """
    import struct

    import numpy as np

    from repro.splines.slab import SharedCoefSlab

    status = 1
    try:
        slab = SharedCoefSlab.attach(descriptor)
        base = _private_rss_bytes()
        if mode == "copy":
            # What K independent workers do today: a private replica.
            table = np.array(slab.coefs)
        else:
            # Shared mapping: read-touch every page; they stay shared.
            table = float(np.asarray(slab.coefs).sum())
        delta = _private_rss_bytes() - base
        del table
        os.write(wfd, struct.pack("q", delta))
        slab.close()
        status = 0
    except Exception:
        pass
    finally:
        os._exit(status)


def _measure_worker_rss(descriptor, k: int) -> Optional[Dict[str, list]]:
    """Fork ``k`` probe children per strategy and collect RSS deltas.

    Children run sequentially (the per-worker delta is what matters,
    not aggregate pressure) and each measures around only its own
    table realization, so parent-inherited pages cancel out.  Returns
    None on hosts without ``fork`` + ``smaps_rollup``.
    """
    import struct

    if not hasattr(os, "fork") or not os.path.exists("/proc/self/smaps_rollup"):
        return None
    deltas: Dict[str, list] = {"copy": [], "slab": []}
    for mode in ("copy", "slab"):
        for _ in range(k):
            rfd, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:  # pragma: no cover - exits via os._exit
                os.close(rfd)
                _rss_probe_child(descriptor, mode, wfd)
            os.close(wfd)
            with os.fdopen(rfd, "rb") as fh:
                data = fh.read(8)
            _, st = os.waitpid(pid, 0)
            if len(data) == 8 and os.WIFEXITED(st) \
                    and os.WEXITSTATUS(st) == 0:
                deltas[mode].append(float(struct.unpack("q", data)[0]))
    if not deltas["copy"] or not deltas["slab"]:
        return None
    return deltas


def run_spline_memory_case(case: BenchCase) -> dict:
    """The flat per-channel 3D vgh path vs the tile-blocked kernel on
    one shared-slab table, and what the slab saves.

    The tiled result must be **bitwise** the flat oracle's; ``floor``
    gates ``tiled_over_flat``.  The memory half forks ``case.workers``
    children per strategy (private table copy vs shared-slab attach) and
    reports each child's private-RSS delta against the
    :meth:`~repro.memory.model.MemoryModel.shared_table_report`
    prediction; hosts without ``/proc`` fall back to pure accounting
    with ``rss_measured: false``.
    """
    import numpy as np

    from repro.batched.spo import batched_multi_vgh, batched_multi_vgh_flat
    from repro.memory.model import MemoryModel
    from repro.splines.bspline3d import BSpline3D
    from repro.splines.slab import SharedCoefSlab

    norb, grid, tile, k = case.n, case.grid, case.tile, case.workers
    rng = np.random.default_rng(case.seed)
    a = 6.0
    source = BSpline3D.fit(rng.normal(size=(grid, grid, grid, norb)),
                           np.linalg.inv(np.eye(3) * a), dtype=np.float64)
    r = rng.uniform(0, a, (case.nwalkers, 3))

    def leg(kernel, sp, **kwargs):
        def run():
            with METRICS.scope("Bspline-vgh"):
                return kernel(sp, r, **kwargs)
        return run

    def check(warm):
        for ref, got in zip(warm["flat"], warm["tiled"]):
            if not np.array_equal(ref, got):
                raise RuntimeError(
                    f"{case.name}: tiled vgh kernel is NOT bitwise equal "
                    f"to the flat path (tile={tile}) — exactness regression")

    with SharedCoefSlab.promote(source) as slab:
        sp = slab.as_spline()
        out_bytes = sum(arr.nbytes for arr in batched_multi_vgh_flat(sp, r))
        out = _measure(
            case, {"flat": leg(batched_multi_vgh_flat, sp),
                   "tiled": leg(batched_multi_vgh, sp, tile=tile)},
            work=case.nwalkers, steps=1, reps=case.steps, check=check,
            walker_bytes=out_bytes / case.nwalkers,
            speedups=("tiled_over_flat",))
        deltas = _measure_worker_rss(slab.descriptor, k)
        table_bytes = float(slab.nbytes)
    predicted = MemoryModel.shared_table_report(table_bytes, k)
    if deltas is not None:
        copy_b = float(np.median(deltas["copy"]))
        # An attacher's private delta is ~0; its fair share of the one
        # physical slab is table/K.
        shared_b = float(np.median(deltas["slab"])) + table_bytes / k
    else:
        copy_b = predicted["per_worker_copy_bytes"]
        shared_b = predicted["per_worker_shared_bytes"]
    out.update(
        n_electrons=case.n, walkers=case.nwalkers, norb=norb, grid=grid,
        tile=tile,
        memory={
            "table_bytes": table_bytes,
            "n_processes": k,
            "predicted": predicted,
            "per_worker_copy_bytes": copy_b,
            "per_worker_shared_bytes": shared_b,
            "measured_ratio": shared_b / copy_b if copy_b else 0.0,
            "rss_measured": deltas is not None,
        })
    return out


#: The one table of kinds: ``BenchCase`` validates against it,
#: :func:`run_suite` dispatches through it, the artifact schema reads it.
KINDS: Dict[str, Callable[["BenchCase"], dict]] = {
    "nlpp": run_nlpp_case,
    "sweep": run_sweep_case,
    "spline_memory": run_spline_memory_case,
}


def run_suite(suite_name: str, tag: str, progress=None) -> dict:
    """Run every case of a named suite and return the artifact document."""
    from repro.bench.suite import SUITES

    if METRICS.enabled:
        METRICS.reset()
    workloads = []
    for case in SUITES[suite_name]:
        if progress is not None:
            progress(f"running {case.kind} case {case.name} "
                     f"(versions: {', '.join(case.versions)})")
        with METRICS.scope(f"bench:{case.name}"):
            workloads.append(KINDS[case.kind](case))
    doc = {
        "schema": BENCH_SCHEMA_VERSION,
        "tag": tag,
        "suite": suite_name,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "host": host_fingerprint(),
        "workloads": workloads,
    }
    if METRICS.enabled:
        doc["metrics"] = METRICS.snapshot()
    return doc


def write_artifact(doc: dict, out_dir: str) -> str:
    """Schema-validate and write ``BENCH_<tag>.json``; returns the path."""
    errors = validate_artifact(doc)
    if errors:
        raise ValueError("refusing to write non-conforming artifact:\n  "
                         + "\n  ".join(errors))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{doc['tag']}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def format_summary(doc: dict) -> str:
    """Human-readable digest of an artifact."""
    lines = [f"BENCH artifact '{doc['tag']}' (suite={doc.get('suite', '?')}, "
             f"host={doc['host'].get('hostname', '?')})"]
    for wl in doc["workloads"]:
        lines.append(f"  {wl['name']} [{wl['kind']}]")
        for label, entry in wl["versions"].items():
            top = sorted(entry["hotspots"].items(), key=lambda kv: -kv[1])[:3]
            hot = ", ".join(f"{c} {100 * f:.0f}%" for c, f in top)
            lines.append(
                f"    {label:<8s} {entry['throughput']:10.2f} walker-steps/s"
                f"  walker={entry['peak_walker_bytes'] / 1024.0:8.1f} KiB"
                f"  [{hot}]")
        for name, value in wl.get("speedups", {}).items():
            lines.append(f"    speedup {name} = {value:.2f}x")
    return "\n".join(lines)
