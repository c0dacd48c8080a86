"""Execute a bench suite and assemble the BENCH artifact document.

Every case runs each of its code versions through the real drivers with
the kernel profiler armed, so the artifact carries measured hot-spot
fractions (the paper's Fig. 2 taxonomy), throughput, and a measured
per-walker memory footprint.  When the global metrics registry is armed
(``REPRO_METRICS=1``) the artifact additionally embeds the hierarchical
scope tree of the whole suite run.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional

from repro.bench.fingerprint import host_fingerprint
from repro.bench.suite import SUITES, BenchCase
from repro.metrics.registry import METRICS
from repro.metrics.schema import BENCH_SCHEMA_VERSION, validate_artifact
from repro.profiling.profiler import PROFILER

#: artifact version label -> CodeVersion value (resolved lazily to keep
#: import costs out of ``repro.bench.compare``)
_SYSTEM_VERSIONS = {"ref": "ref", "ref+mp": "ref+mp", "current": "current"}


def _version_entry(throughput: float, seconds_per_step: float,
                   total_seconds: float, hotspots: Dict[str, float],
                   peak_walker_bytes: float) -> dict:
    return {
        "throughput": float(throughput),
        "seconds_per_step": float(seconds_per_step),
        "total_seconds": float(total_seconds),
        "hotspots": {k: float(v) for k, v in hotspots.items()},
        "peak_walker_bytes": float(peak_walker_bytes),
    }


def _system_walker_bytes(parts, precision) -> int:
    """Measured per-walker footprint: positions + registered buffer."""
    from repro.particles.walker import Walker
    w = Walker.from_positions(parts.electrons.R.copy(),
                              dtype=precision.value_dtype)
    parts.electrons.load_walker(w)
    parts.twf.evaluate_log(parts.electrons)
    parts.twf.register_data(parts.electrons, w.buffer)
    return int(w.message_nbytes())


def run_system_case(case: BenchCase) -> dict:
    """Run one full-workload case across its code versions."""
    from repro.core.system import QmcSystem, run_vmc
    from repro.core.version import CodeVersion, VERSION_CONFIGS

    sys_ = QmcSystem.from_workload(case.workload, scale=case.scale,
                                   seed=case.seed, with_nlpp=False)
    versions: Dict[str, dict] = {}
    for label in case.versions:
        version = CodeVersion(_SYSTEM_VERSIONS[label])
        parts = sys_.build(version)
        res = run_vmc(sys_, version, walkers=case.walkers, steps=case.steps,
                      parts=parts, profile=True, seed=case.seed + 1)
        versions[label] = _version_entry(
            throughput=res.throughput,
            seconds_per_step=res.elapsed / case.steps,
            total_seconds=res.elapsed,
            hotspots=res.profile.normalized(),
            peak_walker_bytes=_system_walker_bytes(
                parts, VERSION_CONFIGS[version].precision),
        )
    out = {
        "name": case.name, "kind": "system", "workload": case.workload,
        "scale": case.scale, "steps": case.steps, "walkers": case.walkers,
        "n_electrons": parts.n_electrons, "versions": versions,
        "speedups": {},
    }
    if "ref" in versions and "current" in versions:
        out["speedups"]["current_over_ref"] = (
            versions["current"]["throughput"] / versions["ref"]["throughput"])
    return out


def run_batched_case(case: BenchCase) -> dict:
    """Run the per-walker-vs-batched differential pair on one spec."""
    from repro.batched import (BatchedCrowdDriver, JastrowSystemSpec,
                               run_reference)
    from repro.particles.walker import Walker
    from repro.precision.policy import FULL

    spec = JastrowSystemSpec(n=case.n, seed=7, aa_flavor="otf")
    # -- per-walker reference --------------------------------------------------
    PROFILER.start_run()
    t0 = time.perf_counter()
    run_reference(spec, case.nwalkers, case.steps, case.seed, use_drift=True)
    ref_elapsed = time.perf_counter() - t0
    ref_prof = PROFILER.stop_run(f"{case.name}/ref")
    P, twf, _ = spec.build_scalar()
    w = Walker.from_positions(spec.base_positions, dtype=FULL.value_dtype)
    P.load_walker(w)
    twf.evaluate_log(P)
    twf.register_data(P, w.buffer)
    ref_walker_bytes = int(w.message_nbytes())
    # -- batched ---------------------------------------------------------------
    drv = BatchedCrowdDriver(spec, case.nwalkers, case.seed, use_drift=True)
    PROFILER.start_run()
    t0 = time.perf_counter()
    drv.run(case.steps)
    bat_elapsed = time.perf_counter() - t0
    bat_prof = PROFILER.stop_run(f"{case.name}/batched")
    bat_walker_bytes = (
        drv.batch.R.nbytes + drv.batch.Rsoa.nbytes
        + sum(t.storage_bytes for t in drv.tables)) / case.nwalkers
    steps_walkers = case.steps * case.nwalkers
    versions = {
        "ref": _version_entry(
            throughput=steps_walkers / ref_elapsed,
            seconds_per_step=ref_elapsed / case.steps,
            total_seconds=ref_elapsed,
            hotspots=ref_prof.normalized(),
            peak_walker_bytes=ref_walker_bytes),
        "batched": _version_entry(
            throughput=steps_walkers / bat_elapsed,
            seconds_per_step=bat_elapsed / case.steps,
            total_seconds=bat_elapsed,
            hotspots=bat_prof.normalized(),
            peak_walker_bytes=bat_walker_bytes),
    }
    return {
        "name": case.name, "kind": "batched", "n_electrons": case.n,
        "steps": case.steps, "walkers": case.nwalkers, "versions": versions,
        "speedups": {"batched_over_ref": versions["batched"]["throughput"]
                     / versions["ref"]["throughput"]},
    }


def run_parallel_case(case: BenchCase, progress=None) -> dict:
    """Run the multi-core crowd-scaling case across its worker counts.

    Worker counts that would oversubscribe the host (``workers + 1``
    processes: the parent coordinates while workers compute) are skipped
    and reported in the workload's ``skipped`` list — the CPU guard that
    keeps the case meaningful on small CI runners.  Energy traces must
    come out bitwise identical across every count that ran (the
    determinism contract of docs/parallel_crowds.md); a mismatch fails
    the whole bench run.

    Kernel-level hot-spot taxonomy is not meaningful from the parent
    process (the kernels run inside the workers), so entries carry a
    single ``crowd`` category; the per-scope breakdown lives in the
    metrics tree when ``REPRO_METRICS=1`` is armed.
    """
    from repro.batched import JastrowSystemSpec
    from repro.parallel.crowds import ParallelCrowdDriver
    from repro.parallel.shm import SharedWalkerState

    ncpu = os.cpu_count() or 1
    spec = JastrowSystemSpec(n=case.n, seed=7)
    state_bytes = SharedWalkerState(case.nwalkers, case.n).nbytes
    versions: Dict[str, dict] = {}
    skipped = []
    traces: Dict[str, tuple] = {}
    for nworkers in case.workers:
        label = "serial" if nworkers == 0 else f"w{nworkers}"
        if nworkers + 1 > ncpu:
            skipped.append(label)
            if progress is not None:
                progress(f"  {case.name}: skipping {label} "
                         f"(needs {nworkers + 1} CPUs, host has {ncpu})")
            continue
        drv = ParallelCrowdDriver(spec, case.nwalkers, case.seed,
                                  workers=nworkers, timestep=0.3)
        try:
            res = drv.run(case.steps, mode="vmc")
        finally:
            drv.close()
        traces[label] = tuple(res.energies)
        entry = _version_entry(
            throughput=res.throughput,
            seconds_per_step=res.elapsed / case.steps,
            total_seconds=res.elapsed,
            hotspots={"crowd": 1.0},
            peak_walker_bytes=state_bytes / case.nwalkers)
        entry["workers"] = nworkers
        entry["setup_seconds"] = float(res.extra.get("setup_seconds", 0.0))
        versions[label] = entry
    if len(set(traces.values())) > 1:
        raise RuntimeError(
            f"{case.name}: energy traces are NOT bitwise identical across "
            f"worker counts {sorted(traces)} — determinism regression")
    speedups = {}
    serial = versions.get("serial")
    if serial is not None:
        for label, entry in versions.items():
            if label != "serial":
                speedups[f"{label}_over_serial"] = (
                    entry["throughput"] / serial["throughput"])
    return {
        "name": case.name, "kind": "parallel", "n_electrons": case.n,
        "steps": case.steps, "walkers": case.nwalkers,
        "versions": versions, "speedups": speedups, "skipped": skipped,
        "trace_bitwise_identical": bool(traces),
    }


def run_nlpp_case(case: BenchCase) -> dict:
    """Time the scalar temp-move NLPP oracle vs the fused
    virtual-particle engine on identical walker state and rotations.

    Both engines are keyed on the same stateless quadrature-rotation
    stream, so their V_NL values must agree to accumulation precision —
    a silent-wrong fast path fails the whole bench run.  Cases with a
    ``floor`` emit a ``speedup_floors`` entry the compare gate enforces.
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
    walker_bytes = _system_walker_bytes(parts, FULL)

    def timed(fn, label):
        PROFILER.start_run()
        t0 = time.perf_counter()
        vals = []
        for s in range(case.steps):
            term.set_walker(0, s + 1)  # same rotation key for both engines
            vals.append(fn(P, twf))
        elapsed = time.perf_counter() - t0
        prof = PROFILER.stop_run(f"{case.name}/{label}")
        return vals, elapsed, prof

    scalar_vals, scalar_s, scalar_prof = timed(term.evaluate_reference,
                                               "scalar")
    vp_vals, vp_s, vp_prof = timed(term.evaluate, "batched")
    tol = 1e4 * float(np.finfo(np.float64).eps)
    for v_vp, v_ref in zip(vp_vals, scalar_vals):
        if abs(v_vp - v_ref) > tol * max(1.0, abs(v_ref)):
            raise RuntimeError(
                f"{case.name}: batched NLPP diverged from the scalar "
                f"oracle ({v_vp!r} vs {v_ref!r}) — parity regression")
    versions = {
        "scalar": _version_entry(
            throughput=case.steps / scalar_s,
            seconds_per_step=scalar_s / case.steps,
            total_seconds=scalar_s,
            hotspots=scalar_prof.normalized(),
            peak_walker_bytes=walker_bytes),
        "batched": _version_entry(
            throughput=case.steps / vp_s,
            seconds_per_step=vp_s / case.steps,
            total_seconds=vp_s,
            hotspots=vp_prof.normalized(),
            peak_walker_bytes=walker_bytes),
    }
    out = {
        "name": case.name, "kind": "nlpp", "workload": case.workload,
        "scale": case.scale, "steps": case.steps, "walkers": 1,
        "n_electrons": parts.n_electrons, "npoints": case.npoints,
        "versions": versions,
        "speedups": {"batched_over_scalar": scalar_s / vp_s},
    }
    if case.floor > 0:
        out["speedup_floors"] = {"batched_over_scalar": float(case.floor)}
    return out


def run_streaming_case(case: BenchCase) -> dict:
    """Measure the trace-pipeline overhead on the batched driver.

    Repetitions interleave the in-memory and streaming variants
    (alternating A/B so warm-up and host drift hit both equally) and
    each variant keeps its best time.  The streamed run writes a real
    per-generation binary trace (flush_every=1, the production cadence)
    and feeds the online reblocker; its energy trace must come out
    bitwise equal to the in-memory run's — streaming observes, never
    perturbs.  Cases with a ``floor`` gate ``streaming_over_memory``
    (0.95 = at most 5% overhead).
    """
    import tempfile

    from repro.batched import BatchedCrowdDriver, JastrowSystemSpec
    from repro.output.stream import StreamSet

    spec = JastrowSystemSpec(n=case.n, seed=7)
    reps = 3
    times = {"memory": [], "streaming": []}
    profs = {}
    energies = {}
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(reps):
            for label in ("memory", "streaming"):
                drv = BatchedCrowdDriver(spec, case.nwalkers, case.seed)
                streams = None
                if label == "streaming":
                    streams = StreamSet(
                        trace_path=os.path.join(tmp, f"rep{rep}.trace"),
                        meta={"bench": case.name})
                PROFILER.start_run()
                t0 = time.perf_counter()
                res = drv.run(case.steps, streams=streams)
                if streams is not None:
                    streams.close()  # the final flush is part of the cost
                times[label].append(time.perf_counter() - t0)
                profs[label] = PROFILER.stop_run(f"{case.name}/{label}")
                energies[label] = tuple(res.energies)
            if energies["streaming"] != energies["memory"]:
                raise RuntimeError(
                    f"{case.name}: streamed run's energies diverged from "
                    f"the in-memory run — streaming perturbed the walk")
        walker_bytes = (drv.batch.R.nbytes + drv.batch.Rsoa.nbytes
                        + sum(t.storage_bytes for t in drv.tables)
                        ) / case.nwalkers
    steps_walkers = case.steps * case.nwalkers
    best = {label: min(ts) for label, ts in times.items()}
    versions = {
        label: _version_entry(
            throughput=steps_walkers / best[label],
            seconds_per_step=best[label] / case.steps,
            total_seconds=best[label],
            hotspots=profs[label].normalized(),
            peak_walker_bytes=walker_bytes)
        for label in ("memory", "streaming")
    }
    out = {
        "name": case.name, "kind": "streaming", "n_electrons": case.n,
        "steps": case.steps, "walkers": case.nwalkers, "versions": versions,
        "speedups": {"streaming_over_memory": best["memory"]
                     / best["streaming"]},
    }
    if case.floor > 0:
        out["speedup_floors"] = {"streaming_over_memory": float(case.floor)}
    return out


#: kernels timed by the ``backend`` bench kind — the array-shaped subset
#: of repro.backend.base.KERNEL_NAMES (the scalar det_ratio and the 1D
#: value-only kernel are dominated by call overhead, not kernel work)
_BACKEND_BENCH_KERNELS = (
    "aa_row", "ab_row", "aa_pairs", "ab_pairs", "functor_v", "functor_vgl",
    "bspline1d_vgl", "spline3d_v", "spline3d_vgl", "det_ratios_vp",
    "exp_rows", "accept_mask",
)


def _backend_kernel_inputs(n: int, nwalkers: int, seed: int):
    """Workload-shaped inputs for every benched kernel.

    Sizes mirror the batched driver's call sites: W walkers of n
    electrons in a cubic cell scaled to roughly constant density, with
    n/4 ions, n/2 orbitals and a Jastrow cutoff inside the cell.
    Returns ``(inputs, input_bytes)``.
    """
    import numpy as np

    from repro.jastrow.functor import BsplineFunctor
    from repro.lattice.cell import CrystalLattice
    from repro.splines.bspline3d import BSpline3D

    rng = np.random.default_rng(seed)
    W = nwalkers
    a = 6.0 * (n / 32.0) ** (1.0 / 3.0)
    lattice = CrystalLattice.cubic(a)
    ns = max(4, n // 4)
    norb = max(4, n // 2)
    nvp = 12
    f = BsplineFunctor.from_shape(rcut=min(2.5, 0.45 * a), cusp=-0.25)
    s = f.spline
    sp = BSpline3D.fit(rng.normal(size=(8, 8, 8, norb)),
                       np.linalg.inv(np.eye(3) * a), dtype=np.float64)
    soa = rng.uniform(0, a, (W, 3, n))
    rk = rng.uniform(0, a, (W, 3))
    inputs = {
        "aa_row": (soa, rk, lattice, 0),
        "ab_row": (rng.uniform(0, a, (3, ns)), rk, lattice),
        "aa_pairs": (rng.uniform(0, a, (W, n, 3)), lattice),
        "ab_pairs": (rng.uniform(0, a, (ns, 3)),
                     rng.uniform(0, a, (W, n, 3)), lattice),
        "functor_v": (s.coefs, s.x0, s.h, s.n, f.rcut,
                      rng.uniform(0, 1.5 * f.rcut, (W, n))),
        "functor_vgl": (s.coefs, s.x0, s.h, s.n, f.rcut,
                        rng.uniform(0, 1.5 * f.rcut, (W, n))),
        "bspline1d_vgl": (s.coefs, s.x0, s.h, s.n,
                          rng.uniform(0, f.rcut, (W * n,))),
        "spline3d_v": (sp.coefs, sp.cell_inverse, (sp.nx, sp.ny, sp.nz),
                       rng.uniform(0, a, (W, 3))),
        "spline3d_vgl": (sp.coefs, sp.cell_inverse, (sp.nx, sp.ny, sp.nz),
                         rng.uniform(0, a, (W, 3))),
        "det_ratios_vp": (rng.normal(size=(nvp, n)),
                          rng.normal(size=(n, nvp))),
        "exp_rows": (rng.normal(scale=0.3, size=W),),
        "accept_mask": (rng.normal(loc=0.9, scale=0.3, size=W),
                        rng.normal(scale=0.3, size=W),
                        rng.uniform(size=W)),
    }
    input_bytes = sum(
        arg.nbytes for args in inputs.values() for arg in args
        if hasattr(arg, "nbytes"))
    return inputs, input_bytes


def _force(out) -> None:
    """Materialize a kernel result (drains jax's async dispatch queue the
    same way the real call sites do: a host coercion)."""
    import numpy as np
    if isinstance(out, tuple):
        for o in out:
            np.asarray(o)
    else:
        np.asarray(out)


def run_backend_case(case: BenchCase) -> dict:
    """Per-kernel micro-benchmarks of the kernel-backend registry.

    Every kernel in ``_BACKEND_BENCH_KERNELS`` runs under each requested
    backend on identical inputs: one untimed warm-up call (jit
    compilation lands there), then ``case.steps`` timed repetitions,
    best-of kept.  A backend the host cannot construct (jax not
    installed) lands in ``skipped`` — the same report-don't-fail pattern
    as the parallel case's CPU guard — and a ``floor`` case emits a
    ``speedup_floors`` entry for ``jax_over_numpy`` that the compare
    gate enforces only on hosts that measured it (the CI jax leg).
    """
    from repro.backend import BackendUnavailableError, get_backend

    inputs, input_bytes = _backend_kernel_inputs(case.n, case.nwalkers,
                                                 case.seed)
    versions: Dict[str, dict] = {}
    skipped = []
    kernel_best: Dict[str, Dict[str, float]] = {}
    for label in case.versions:
        try:
            backend = get_backend(label)
        except BackendUnavailableError:
            skipped.append(label)
            continue
        best: Dict[str, float] = {}
        with backend.scope():
            for kname in _BACKEND_BENCH_KERNELS:
                args = inputs[kname]
                fn = getattr(backend, kname)
                _force(fn(*args))  # warm-up: jit tracing + compilation
                times = []
                for _ in range(case.steps):
                    t0 = time.perf_counter()
                    _force(fn(*args))
                    times.append(time.perf_counter() - t0)
                best[kname] = min(times)
        total = sum(best.values())
        versions[label] = _version_entry(
            throughput=len(best) * case.nwalkers / total,
            seconds_per_step=total / len(best),
            total_seconds=total,
            hotspots={k: v / total for k, v in best.items()},
            peak_walker_bytes=input_bytes / case.nwalkers)
        kernel_best[label] = best
    speedups: Dict[str, float] = {}
    if "numpy" in kernel_best and "jax" in kernel_best:
        np_best, jx_best = kernel_best["numpy"], kernel_best["jax"]
        for kname in _BACKEND_BENCH_KERNELS:
            speedups[f"jax_over_numpy:{kname}"] = (
                np_best[kname] / jx_best[kname])
        speedups["jax_over_numpy"] = (
            sum(np_best.values()) / sum(jx_best.values()))
    out = {
        "name": case.name, "kind": "backend", "workload": case.workload,
        "n_electrons": case.n, "steps": case.steps, "walkers": case.nwalkers,
        "versions": versions, "speedups": speedups, "skipped": skipped,
    }
    if case.floor > 0:
        out["speedup_floors"] = {"jax_over_numpy": float(case.floor)}
    return out


class _CountingBackend:
    """Proxy backend that counts dispatch crossings of the kernel seam.

    Every registered kernel method increments ``dispatches`` at call
    depth 0 and delegates to the wrapped backend.  Nested crossings are
    not double-counted, and a delegated pipeline kernel (``sweep_run``)
    re-scopes to the *inner* backend for its body, so the fused leg
    counts exactly one dispatch per sweep while the loop leg counts
    every per-electron table/functor/exp/accept call routed through
    ``active()`` under this proxy's scope.
    """

    def __init__(self, inner):
        from repro.backend.base import KERNEL_NAMES
        self._inner = inner
        self.name = inner.name
        self.exact_match = inner.exact_match
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

    def scope(self):
        from repro.backend.registry import _backend_scope
        return _backend_scope(self)

    def __getattr__(self, name):  # non-kernel attributes pass through
        return getattr(self._inner, name)


def _sweep_driver(case: BenchCase, backend: str, oracle: bool = False):
    """One batched driver for the sweep case; ``oracle=True`` rebinds
    the retained pre-fusion loop body as its sweep implementation.

    Forward-update AA flavor: the paper's default scheme, and the one
    where the fused pipeline's old-row value reuse applies (the OTF
    table refreshes the row inside ``move``, see batched/jastrow.py)."""
    from repro.batched import BatchedCrowdDriver, JastrowSystemSpec
    from repro.batched.reference import use_loop_sweep

    spec = JastrowSystemSpec(n=case.n, seed=7, aa_flavor="soa")
    drv = BatchedCrowdDriver(spec, case.nwalkers, case.seed,
                             use_drift=True, backend=backend)
    if oracle:
        use_loop_sweep(drv)
    return drv


def _assert_sweep_bitwise(case: BenchCase) -> None:
    """The in-runner exactness gate: the fused numpy pipeline must be
    bitwise the loop oracle — accept totals, energies, positions."""
    import numpy as np

    fused = _sweep_driver(case, "numpy")
    loop = _sweep_driver(case, "numpy", oracle=True)
    for _ in range(2):
        ta, tb = fused.sweep(), loop.sweep()
        if ta != tb or not np.array_equal(fused.last_sweep_accepts,
                                          loop.last_sweep_accepts):
            raise RuntimeError(
                f"{case.name}: fused sweep accept stream diverged from "
                f"the loop oracle — exactness regression")
        if not np.array_equal(fused.measure(), loop.measure()):
            raise RuntimeError(
                f"{case.name}: fused sweep energies diverged from the "
                f"loop oracle — exactness regression")
    if not np.array_equal(fused.batch.R, loop.batch.R):
        raise RuntimeError(
            f"{case.name}: fused sweep positions diverged from the loop "
            f"oracle — exactness regression")


def run_sweep_case(case: BenchCase) -> dict:
    """Measure what whole-sweep fusion buys (docs/sweep_fusion.md).

    Legs: ``loop`` (the retained per-electron loop oracle — one backend
    dispatch per table move/functor/exp/accept, ~14 per electron),
    ``fused`` (the ``sweep_run`` pipeline kernel, one dispatch per
    sweep) and, when importable, ``jax`` (the whole-sweep
    ``lax.fori_loop`` jit; skipped otherwise, the backend-kind
    pattern).  The fused numpy leg is asserted bitwise against the
    loop oracle before any timing, each leg's backend-dispatch count
    is measured with a counting proxy, repetitions interleave with
    best-of kept, and a ``floor`` case emits a ``speedup_floors``
    entry for ``fused_over_loop``.
    """
    from repro.backend import BackendUnavailableError

    _assert_sweep_bitwise(case)
    legs = {}
    skipped = []
    for label in case.versions:
        backend = "jax" if label == "jax" else "numpy"
        try:
            drv = _sweep_driver(case, backend, oracle=(label == "loop"))
        except BackendUnavailableError:
            skipped.append(label)
            continue
        drv.sweep()  # warm-up (jit tracing + payload staging land here)
        counting = _CountingBackend(drv.backend)
        drv.backend = counting
        drv.sweep()
        drv.backend = counting._inner
        legs[label] = {"drv": drv, "dispatches": counting.dispatches,
                       "times": [], "prof": None}
    reps = 3
    for _ in range(reps):
        for label, leg in legs.items():
            drv = leg["drv"]
            PROFILER.start_run()
            t0 = time.perf_counter()
            for _ in range(case.steps):
                drv.sweep()
            leg["times"].append(time.perf_counter() - t0)
            leg["prof"] = PROFILER.stop_run(f"{case.name}/{label}")
    steps_walkers = case.steps * case.nwalkers
    versions: Dict[str, dict] = {}
    for label, leg in legs.items():
        drv = leg["drv"]
        best = min(leg["times"])
        walker_bytes = (drv.batch.R.nbytes + drv.batch.Rsoa.nbytes
                        + sum(t.storage_bytes for t in drv.tables)
                        ) / case.nwalkers
        entry = _version_entry(
            throughput=steps_walkers / best,
            seconds_per_step=best / case.steps,
            total_seconds=best,
            hotspots=leg["prof"].normalized(),
            peak_walker_bytes=walker_bytes)
        entry["dispatches_per_sweep"] = float(leg["dispatches"])
        entry["dispatches_per_electron"] = leg["dispatches"] / case.n
        versions[label] = entry
    speedups: Dict[str, float] = {}
    if "loop" in versions and "fused" in versions:
        speedups["fused_over_loop"] = (
            versions["loop"]["total_seconds"]
            / versions["fused"]["total_seconds"])
    if "loop" in versions and "jax" in versions:
        speedups["jax_over_loop"] = (
            versions["loop"]["total_seconds"]
            / versions["jax"]["total_seconds"])
    out = {
        "name": case.name, "kind": "sweep", "n_electrons": case.n,
        "steps": case.steps, "walkers": case.nwalkers,
        "versions": versions, "speedups": speedups, "skipped": skipped,
    }
    if case.floor > 0:
        out["speedup_floors"] = {"fused_over_loop": float(case.floor)}
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
            data = b""
            while len(data) < 8:
                chunk = os.read(rfd, 8 - len(data))
                if not chunk:
                    break
                data += chunk
            os.close(rfd)
            _, st = os.waitpid(pid, 0)
            if len(data) == 8 and os.WIFEXITED(st) \
                    and os.WEXITSTATUS(st) == 0:
                deltas[mode].append(float(struct.unpack("q", data)[0]))
    if not deltas["copy"] or not deltas["slab"]:
        return None
    return deltas


def run_spline_memory_case(case: BenchCase) -> dict:
    """Time the flat per-channel 3D vgh path against the tile-blocked
    kernel on one shared-slab table, and measure what the slab saves.

    Timing legs interleave (A/B per repetition, best-of kept) on the
    identical slab-backed spline; the tiled result must be **bitwise**
    equal to the flat oracle — a mismatch fails the whole bench run.
    The memory half forks ``workers[0]`` children per strategy
    (private table copy vs shared-slab attach) and reports each child's
    private-RSS delta against the
    :meth:`~repro.memory.model.MemoryModel.shared_table_report`
    prediction; hosts without ``/proc`` fall back to pure accounting
    with ``rss_measured: false``.
    """
    import numpy as np

    from repro.batched.spo import batched_multi_vgh, batched_multi_vgh_flat
    from repro.memory.model import MemoryModel
    from repro.splines.bspline3d import BSpline3D
    from repro.splines.slab import SharedCoefSlab

    norb = case.n
    grid = case.grid or 12
    tile = case.tile or 64
    k = case.workers[0] if case.workers else 4
    rng = np.random.default_rng(case.seed)
    a = 6.0
    values = rng.normal(size=(grid, grid, grid, norb))
    source = BSpline3D.fit(values, np.linalg.inv(np.eye(3) * a),
                           dtype=np.float64)
    r = rng.uniform(0, a, (case.nwalkers, 3))
    with SharedCoefSlab.promote(source) as slab:
        sp = slab.as_spline()
        legs = {
            "flat": lambda: batched_multi_vgh_flat(sp, r),
            "tiled": lambda: batched_multi_vgh(sp, r, tile=tile),
        }
        results = {label: fn() for label, fn in legs.items()}  # warm-up
        for ref, got in zip(results["flat"], results["tiled"]):
            if not np.array_equal(ref, got):
                raise RuntimeError(
                    f"{case.name}: tiled vgh kernel is NOT bitwise equal "
                    f"to the flat path (tile={tile}) — exactness regression")
        best = {label: float("inf") for label in legs}
        for _ in range(case.steps):
            for label, fn in legs.items():
                t0 = time.perf_counter()
                fn()
                best[label] = min(best[label], time.perf_counter() - t0)
        deltas = _measure_worker_rss(slab.descriptor, k)
        table_bytes = float(slab.nbytes)
    predicted = MemoryModel.shared_table_report(table_bytes, k)
    if deltas is not None:
        copy_b = float(np.median(deltas["copy"]))
        # An attacher's private delta is ~0; its fair share of the one
        # physical slab is table/K.
        shared_b = float(np.median(deltas["slab"])) + table_bytes / k
        rss_measured = True
    else:
        copy_b = predicted["per_worker_copy_bytes"]
        shared_b = predicted["per_worker_shared_bytes"]
        rss_measured = False
    out_bytes = float(sum(arr.nbytes for arr in results["flat"]))
    versions = {
        label: _version_entry(
            throughput=case.nwalkers / best[label],
            seconds_per_step=best[label],
            total_seconds=best[label] * case.steps,
            hotspots={"Bspline-vgh": 1.0},
            peak_walker_bytes=out_bytes / case.nwalkers)
        for label in ("flat", "tiled")
    }
    out = {
        "name": case.name, "kind": "spline_memory", "n_electrons": case.n,
        "steps": case.steps, "walkers": case.nwalkers,
        "norb": norb, "grid": grid, "tile": tile,
        "versions": versions,
        "speedups": {"tiled_over_flat": best["flat"] / best["tiled"]},
        "memory": {
            "table_bytes": table_bytes,
            "n_processes": k,
            "predicted": predicted,
            "per_worker_copy_bytes": copy_b,
            "per_worker_shared_bytes": shared_b,
            "measured_ratio": shared_b / copy_b if copy_b else 0.0,
            "rss_measured": rss_measured,
        },
        "skipped": [],
    }
    if case.floor > 0:
        out["speedup_floors"] = {"tiled_over_flat": float(case.floor)}
    return out


_CASE_RUNNERS = {"system": run_system_case, "batched": run_batched_case,
                 "nlpp": run_nlpp_case, "streaming": run_streaming_case,
                 "backend": run_backend_case,
                 "spline_memory": run_spline_memory_case,
                 "sweep": run_sweep_case}


def run_suite(suite_name: str, tag: str,
              progress=None) -> dict:
    """Run every case of a named suite and return the artifact document."""
    cases = SUITES[suite_name]
    if METRICS.enabled:
        METRICS.reset()
    workloads = []
    for case in cases:
        if progress is not None:
            progress(f"running {case.kind} case {case.name} "
                     f"(versions: {', '.join(case.versions)})")
        with METRICS.scope(f"bench:{case.name}"):
            if case.kind == "parallel":
                workloads.append(run_parallel_case(case, progress=progress))
            else:
                workloads.append(_CASE_RUNNERS[case.kind](case))
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
