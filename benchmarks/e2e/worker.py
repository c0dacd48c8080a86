"""The workload subprocess of the end-to-end benchmark.

``run.py`` starts this file in a fresh interpreter, once per workload
(timed repeats, then one traced repeat) and once per cold launch.  It
drives the program only through public entry points — ``QmcSystem.build``,
``VMCDriver.run``, ``BatchedCrowdDriver.run``, ``ParallelCrowdDriver.run``
and ``StreamSet`` — checks what the run wrote, and prints one JSON line.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from typing import Callable

import numpy as np

from repro.batched.driver import BatchedCrowdDriver
from repro.batched.system import JastrowSystemSpec
from repro.core.system import QmcSystem
from repro.core.version import VERSION_CONFIGS, CodeVersion
from repro.drivers.vmc import VMCDriver
from repro.memory.model import MemoryModel
from repro.output.stream import StreamSet, TraceError, TraceReader
from repro.parallel.crowds import ParallelCrowdDriver

from spans import Tracer, patched

#: accepted / proposed moves outside this band means the sampler is not
#: doing Metropolis work any more (stuck, or accepting everything)
ACCEPT_BAND = (0.5, 0.999)
#: A workload is one physical system: ``--seed`` seeds the walker RNG
#: streams (and the initial walker jitter), never the geometry.  Seeding
#: the geometry too made peak RSS a property of the seed — 67 or 79 MiB on
#: nio32-sj-vmc, by the size of the largest NLPP slab.
SPEC_SEED = 21


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload: W walkers, G generations per repeat and a
    function ``(seed, generations, streams, phase) -> (result, sizes)``
    that builds the system, constructs the driver and runs it."""

    walkers: int
    generations: int
    run: Callable
    checkpoint_every: int = 0


def _nio32_sj_vmc(seed, generations, streams, phase):
    with phase("workloads.build"):
        system = QmcSystem.from_workload("NiO-32", scale=0.25,
                                         seed=SPEC_SEED)
        parts = system.build(CodeVersion.CURRENT)
    with phase("drivers.init"):
        driver = VMCDriver(
            parts.electrons, parts.twf, parts.ham,
            np.random.default_rng(seed), timestep=0.3,
            precision=VERSION_CONFIGS[CodeVersion.CURRENT].precision)
        population = driver.create_walkers(WORKLOADS["nio32-sj-vmc"].walkers)
    result = driver.run(walkers=population, steps=generations,
                        streams=streams)
    spline = parts.spo_up.spline
    sizes = {
        "workloads.spline_table_mb": parts.spo_up.table_bytes / 2**20,
        "memory.model_walker_bytes": _model_walker_bytes(system),
        "drivers.walker_bytes": population[0].message_nbytes(),
        "distances.table_bytes_per_walker": sum(
            t.storage_bytes for t in parts.electrons.distance_tables),
        # one 4x4x4 stencil over every orbital of the table
        "spo_point_bytes": 64 * spline.norb * spline.dtype.itemsize,
    }
    return result, sizes


def _model_walker_bytes(system: QmcSystem) -> float:
    """``MemoryModel`` prediction for the supercell ``scale`` leaves."""
    full = system.workload
    tiling = full.scaled_tiling(system.scale)
    cells = math.prod(tiling)
    scaled = dataclasses.replace(
        full, tiling=tiling, n_cells=cells,
        n_ions=full.ions_per_cell * cells,
        n_electrons=round(full.electrons_per_cell * cells))
    return MemoryModel(scaled).walker_bytes(CodeVersion.CURRENT)


def _j96_dmc(workers: int):
    def run(seed, generations, streams, phase):
        with phase("workloads.build"):
            spec = JastrowSystemSpec(n=96, seed=SPEC_SEED, aa_flavor="soa")
        with phase("drivers.init"):
            driver = ParallelCrowdDriver(
                spec, WORKLOADS["j96-dmc-serial"].walkers, seed,
                workers=workers, timestep=0.1)
        with driver:
            result = driver.run(steps=generations, mode="dmc",
                                streams=streams)
        return result, {}
    return run


def _j96_otf_nlpp_vmc(seed, generations, streams, phase):
    with phase("workloads.build"):
        spec = JastrowSystemSpec(n=96, seed=SPEC_SEED, aa_flavor="otf",
                                 with_nlpp=True, nlpp_npoints=12)
    with phase("drivers.init"):
        driver = BatchedCrowdDriver(
            spec, WORKLOADS["j96-otf-nlpp-vmc"].walkers, seed, timestep=0.3)
    return driver.run(steps=generations, streams=streams), {}


# G is sized so that one repeat takes about 2.5 s on the 2-core reference
# host: five repeats, five cold launches and the traced repeat of one
# workload then fit the per-run time cap of the builder contract.
WORKLOADS = {
    "nio32-sj-vmc": Workload(2, 6, _nio32_sj_vmc),
    "j96-dmc-serial": Workload(64, 6, _j96_dmc(workers=0)),
    "j96-dmc-w2": Workload(64, 6, _j96_dmc(workers=2)),
    "j96-otf-nlpp-vmc": Workload(32, 6, _j96_otf_nlpp_vmc,
                                 checkpoint_every=4),
}


@dataclasses.dataclass
class Repeat:
    """What one complete user-visible run (build -> close) produced."""

    generations: int
    run_s: float
    first_s: float          # start -> first generation recorded
    gen_s: list             # between consecutive StreamSet.record calls
    tail_s: float           # last generation recorded -> closed
    result: object
    sizes: dict
    digest: str
    trace_bytes: int
    checkpoint_bytes: int
    errors: list


def repeat(name: str, seed: int, generations: int,
           tracer: Tracer | None = None) -> Repeat:
    workload = WORKLOADS[name]
    phase = tracer.span if tracer else (lambda _: contextlib.nullcontext())
    workdir = tempfile.mkdtemp(prefix="repeat-")
    trace_path = os.path.join(workdir, "run.trace")
    checkpoint_path = os.path.join(workdir, "run.ckpt.npz")
    stamps: list = []
    try:
        started = time.perf_counter()
        with phase("run"):
            streams = StreamSet(
                # no workload name: j96-dmc-w2 must write j96-dmc-serial's
                # bytes, header included
                trace_path=trace_path, meta={"seed": seed},
                checkpoint_path=checkpoint_path,
                checkpoint_every=workload.checkpoint_every)
            record = streams.record

            def stamped(*args, **kwargs):
                record(*args, **kwargs)
                stamps.append(time.perf_counter())
            streams.record = stamped
            with streams:
                result, sizes = workload.run(seed, generations, streams,
                                             phase)
        run_s = time.perf_counter() - started
        errors = _check(result, trace_path, generations)
        with open(trace_path, "rb") as fh:
            trace = fh.read()
        return Repeat(
            generations=generations, run_s=run_s,
            first_s=stamps[0] - started,
            gen_s=[b - a for a, b in zip(stamps, stamps[1:])],
            tail_s=started + run_s - stamps[-1],
            result=result, sizes=sizes,
            digest=hashlib.sha256(trace).hexdigest(),
            trace_bytes=len(trace),
            checkpoint_bytes=(os.path.getsize(checkpoint_path)
                              if os.path.exists(checkpoint_path) else 0),
            errors=errors)
    finally:
        shutil.rmtree(workdir)


def _check(result, trace_path: str, generations: int) -> list:
    errors = []
    if not np.all(np.isfinite(result.energies)):
        errors.append("non-finite generation energy")
    if not ACCEPT_BAND[0] <= result.acceptance <= ACCEPT_BAND[1]:
        errors.append(f"acceptance {result.acceptance:.4f} outside "
                      f"{ACCEPT_BAND}")
    try:
        with TraceReader(trace_path) as reader:
            rows = reader.validate().rows
        if rows != generations:
            errors.append(f"trace holds {rows} rows, ran {generations}")
    except TraceError as exc:
        errors.append(f"trace does not re-read: {exc}")
    return errors


def _tail(samples: list) -> tuple:
    """Highest percentile that still has ten samples beyond it; with too
    few samples for that, the median."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def layer_metrics(tracer: Tracer, traced: Repeat, gen_s: list,
                  untraced_run_s: float) -> dict:
    """Every per-layer metric of BENCHMARK.json this process can know.

    ``*_s`` are self seconds per generation (see ``spans.py``) except
    ``workloads.build_s``, ``drivers.init_s``, ``parallel.setup_s`` and
    ``parallel.first_gen_s``, which happen once per run, and
    ``trace.unattributed_s``.  Counts are per generation too.
    """
    totals = tracer.totals()
    counters = tracer.counters
    G = traced.generations
    extra = traced.result.extra
    online = traced.result.online.estimate("LocalEnergy")

    def calls(*names):
        return sum(totals[n][0] for n in names if n in totals)

    def inclusive(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(*names):
        return sum(totals[n][2] for n in names if n in totals) / G

    def layer_calls(layer):
        return sum(row[0] for name, row in totals.items()
                   if name.startswith(layer + ".")) / G

    sizes = dict(traced.sizes)
    batched = tracer.kept.get("batched")
    if batched is not None:
        tables = sum(t.storage_bytes for t in batched.tables)
        sizes["distances.table_bytes_per_walker"] = tables / batched.nw
        sizes["batched.walker_bytes"] = (
            batched.batch.R.nbytes + batched.batch.Rsoa.nbytes
            + tables) / batched.nw
    tail, tail_pct = _tail(gen_s)
    first_record = min((s[2] for s in tracer.spans
                        if s[0] == "output.record"), default=0.0)
    driver_run = min((s[2] for s in tracer.spans
                      if s[0] == "parallel.run"), default=first_record)
    sweeps = calls("batched.sweep")
    return {
        "workloads.build_s": inclusive("workloads.build"),
        "workloads.spline_table_mb": sizes.get(
            "workloads.spline_table_mb", 0.0),
        "memory.model_walker_bytes": sizes.get(
            "memory.model_walker_bytes", 0.0),
        "drivers.init_s": inclusive("drivers.init"),
        "drivers.walker_bytes": sizes.get("drivers.walker_bytes", 0),
        "drivers.gen_s_p50": statistics.median(gen_s),
        "drivers.gen_s_tail": tail,
        "drivers.gen_tail_pct": tail_pct,
        "drivers.gen_samples": len(gen_s),
        "drivers.sweep_s": self_s("drivers.sweep"),
        "drivers.measure_s": self_s("drivers.measure"),
        "drivers.load_s": self_s("drivers.load"),
        "drivers.loop_s": self_s("drivers.run", "batched.run",
                                 "parallel.run"),
        "drivers.accept_ratio": traced.result.acceptance,
        "wavefunction.self_s": self_s("wavefunction.call"),
        "spo.vgl_s": self_s("spo.vgl"),
        "spo.v_s": self_s("spo.v"),
        "spo.calls": layer_calls("spo"),
        "spo.bytes_computed": (counters["spo_points"]
                               * sizes.get("spo_point_bytes", 0) / G),
        "determinant.ratio_grad_s": self_s("determinant.ratio_grad"),
        "determinant.accept_s": self_s("determinant.accept"),
        "determinant.ratios_vp_s": self_s("determinant.ratios_vp"),
        "determinant.evaluate_s": self_s("determinant.evaluate"),
        "determinant.calls": layer_calls("determinant"),
        "jastrow.grad_s": self_s("jastrow.grad"),
        "jastrow.ratio_grad_s": self_s("jastrow.ratio_grad"),
        "jastrow.accept_s": self_s("jastrow.accept"),
        "jastrow.evaluate_gl_s": self_s("jastrow.evaluate_gl"),
        "jastrow.ratios_vp_s": self_s("jastrow.ratios_vp"),
        "distances.move_s": self_s("distances.move"),
        "distances.update_s": self_s("distances.update"),
        "distances.evaluate_s": self_s("distances.evaluate"),
        "distances.calls": layer_calls("distances"),
        "distances.table_bytes_per_walker": sizes.get(
            "distances.table_bytes_per_walker", 0),
        "batched.sweep_s": self_s("batched.sweep"),
        "batched.measure_s": self_s("batched.measure"),
        "batched.rng_fill_s": self_s("batched.rng_fill"),
        "batched.refresh_s": self_s("batched.refresh"),
        "batched.walker_bytes": sizes.get("batched.walker_bytes", 0),
        "backend.sweep_run_self_s": self_s("backend.sweep_run"),
        "backend.dispatches_per_sweep": (
            counters["sweep_dispatches"] / sweeps if sweeps else 0),
        "hamiltonian.evaluate_s": self_s("hamiltonian.evaluate"),
        "hamiltonian.nlpp_s": self_s("hamiltonian.nlpp"),
        "hamiltonian.nlpp_ratio_points": counters["nlpp_ratio_points"] / G,
        "parallel.setup_s": extra.get("setup_seconds", 0.0),
        "parallel.first_gen_s": first_record - driver_run,
        "parallel.comm_allreduces": extra.get("comm_allreduces", 0.0),
        "parallel.comm_p2p_bytes": extra.get("comm_p2p_bytes", 0.0),
        "parallel.respawns": extra.get("respawns", 0.0),
        "parallel.worker_rss_mb": _rss_mb(resource.RUSAGE_CHILDREN),
        "output.record_s": self_s("output.record"),
        "output.checkpoint_s": self_s("output.checkpoint"),
        "output.close_s": self_s("output.close"),
        "output.trace_bytes": traced.trace_bytes,
        "output.checkpoint_bytes": traced.checkpoint_bytes,
        "stats.energy_mean": online.mean,
        "stats.energy_err": (online.error if math.isfinite(online.error)
                             else online.naive_error),
        "stats.online_add_s": self_s("stats.online_add"),
        "trace.overhead_ratio": traced.run_s / untraced_run_s,
        "trace.spans": len(tracer.spans),
        "trace.unattributed_s": totals["run"][2],
    }


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def main(argv: list) -> int:
    args = json.loads(argv[1])
    name, seed = args["workload"], args["seed"]
    workload = WORKLOADS[name]
    generations = workload.generations
    if args["quick"]:
        generations //= 2
    if args["cold"]:
        rep = repeat(name, seed, 1)
        print(json.dumps({"errors": rep.errors}))
        return 0
    repeats = []
    deadline = time.perf_counter() + args["seconds"]
    while (len(repeats) < args["min_repeats"]
           or time.perf_counter() < deadline):
        repeats.append(repeat(name, seed, generations))
    errors = []
    if len({rep.digest for rep in repeats}) != 1:
        errors.append("repeats of one seed wrote different trace bytes")
    # read before the traced repeat, whose span list is not the program's
    peak_rss_mb = (_rss_mb(resource.RUSAGE_SELF)
                   + _rss_mb(resource.RUSAGE_CHILDREN))
    out = {
        "walkers": workload.walkers,
        "generations": generations,
        "run_s": [rep.run_s for rep in repeats],
        "first_s": [rep.first_s for rep in repeats],
        "gen_s": [dt for rep in repeats for dt in rep.gen_s],
        "tail_s": [rep.tail_s for rep in repeats],
        "digest": repeats[0].digest,
        "numpy": np.__version__,
    }
    if args["traced"]:
        tracer = Tracer()
        with patched(tracer):
            traced = repeat(name, seed, generations, tracer)
        repeats.append(traced)
        if traced.digest != out["digest"]:
            errors.append("tracing changed the trace bytes")
        out["layers"] = layer_metrics(
            tracer, traced, out["gen_s"], statistics.median(out["run_s"]))
        out["spans"] = tracer.totals()
        out["raw_spans"] = tracer.spans
    attempted = generations * len(repeats)
    # A check across repeats fails them all; a repeat's own check fails
    # its generations.
    failed = attempted if errors else generations * sum(
        bool(rep.errors) for rep in repeats)
    errors += [e for rep in repeats for e in rep.errors]
    out.update(attempted=attempted, failed=failed, errors=errors,
               peak_rss_mb=peak_rss_mb)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
