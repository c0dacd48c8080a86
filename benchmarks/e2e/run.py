#!/usr/bin/env python3
"""End-to-end benchmark of the QMC stack: four workloads, four
end-to-end metrics, one traced repeat for the per-layer numbers.

Three ways in, one measurement behind them (see README.md):

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    one run of one workload; the last stdout line is the JSON object the
    benchmark driver reads (``--trace 0`` end-to-end, ``--trace 1``
    per-layer).
``run.py --out FILE [--seed N] [--workload NAME] [--quick]``
    every workload, end-to-end and per-layer, printed by name with units
    and written to FILE (raw spans beside it).
``run.py --compare A.json B.json``
    applies the bounds of BENCHMARK.json to two ``--out`` files.

This file imports nothing from the program under test; ``worker.py``
does, in a fresh interpreter per workload and per cold launch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: fixed on every commit: thread pins, backend, hash seed; the program's
#: own observability switches stay off while it is timed.  glibc moves its
#: mmap threshold up to the largest block freed so far, which made peak RSS
#: depend on allocation history (67 or 80 MiB on nio32-sj-vmc, by seed);
#: it is pinned at the ceiling that rule converges to.
PINS = {"REPRO_BACKEND": "numpy", "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0", "MALLOC_MMAP_THRESHOLD_": "33554432"}
#: ... and bytecode caching stays on, as in a user's run: a cold launch
#: imports, it does not compile
UNSET = ("REPRO_METRICS", "REPRO_SANITIZE", "PYTHONDONTWRITEBYTECODE")
MIN_REPEATS = 5
COLD_LAUNCHES = 5
CHILD_TIMEOUT_S = 150
#: the serial twin every ``j96-dmc-w2`` run is compared with, byte for byte
SERIAL_TWIN = {"j96-dmc-w2": "j96-dmc-serial"}


class BenchmarkError(RuntimeError):
    """The harness itself could not run (not a failed correctness check)."""


def run_child(workload: str, seed: int, *, seconds: float = 0.0,
              min_repeats: int = 1, traced: bool = False, cold: bool = False,
              quick: bool = False):
    """One ``worker.py`` process -> (its JSON, wall seconds).  Whatever
    the process left behind is added to the JSON's ``errors``."""
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env.update(PINS, TMPDIR=tmp, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])))
    payload = json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds,
        "min_repeats": min_repeats, "traced": traced, "cold": cold,
        "quick": quick})
    shm_before = _shm_segments()
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), payload], env=env,
        cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # crowd workers too
        proc.communicate()
        raise BenchmarkError(f"{workload}: no result in {CHILD_TIMEOUT_S} s")
    finally:
        wall = time.perf_counter() - started
        leaks = [f"/dev/shm/{n}" for n in sorted(_shm_segments() - shm_before)]
        leaks += [f"{tmp}/{n}" for n in sorted(os.listdir(tmp))]
        shutil.rmtree(tmp)
        if not os.listdir(scratch):
            scratch.rmdir()
    if proc.returncode != 0 or not stdout.strip():
        raise BenchmarkError(f"{workload}: worker exited {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["errors"] += [f"left behind: {path}" for path in leaks]
    return result, wall


def _shm_segments() -> set:
    """Shared-memory segments of the kind the program creates."""
    try:
        names = os.listdir("/dev/shm")
    except FileNotFoundError:
        return set()
    return {n for n in names if n.startswith(("repro-", "psm_"))}


def measure(workload: str, seed: int, seconds: float, *, traced: bool,
            cold: bool, quick: bool = False) -> dict:
    """The whole protocol for one workload: timed repeats (plus the traced
    repeat) in one fresh interpreter, cold launches each in their own."""
    errors = []

    def cold_launches(n):
        return [run_child(workload, seed, cold=True)
                for _ in range(n if cold else 0)]

    # Cold launches on both sides of the timed repeats: five in a row take
    # 4 s, short enough for one slow phase of the host to cover them all.
    launches = cold_launches(0 if quick else COLD_LAUNCHES // 2)
    twin = None
    if workload in SERIAL_TWIN:
        twin, _ = run_child(SERIAL_TWIN[workload], seed, quick=quick)
        errors += twin["errors"]
    main, _ = run_child(
        workload, seed, seconds=0.0 if quick else seconds,
        min_repeats=1 if quick else MIN_REPEATS, traced=traced, quick=quick)
    errors += main["errors"]
    if twin is not None and twin["digest"] != main["digest"]:
        errors.append(f"trace differs from {SERIAL_TWIN[workload]}'s")
    launches += cold_launches(1 if quick else
                              COLD_LAUNCHES - COLD_LAUNCHES // 2)
    setup_s = [wall for _, wall in launches]
    errors += [e for launch, _ in launches for e in launch["errors"]]
    attempted = main["attempted"] + len(launches)
    failed = main["failed"] + sum(bool(launch["errors"])
                                  for launch, _ in launches)
    if errors and not failed:  # a check across processes fails them all
        failed = attempted
    samples = {"walker_steps_per_s": [main["walkers"] / dt
                                      for dt in main["gen_s"]],
               "run_s": main["run_s"], "setup_s": setup_s,
               "peak_rss_mb": [main["peak_rss_mb"]]}
    end_to_end = {k: summary(v, END_TO_END[k]["better"])
                  for k, v in samples.items() if v}
    # A whole repeat is too long a sample to land in a fast phase of the
    # host: the best run is put together from the best of each part.
    end_to_end["run_s"]["best"] = (
        min(main["first_s"])
        + (main["generations"] - 1) * min(main["gen_s"])
        + min(main["tail_s"]))
    out = {"attempted": attempted, "failed": failed, "errors": errors,
           "walkers": main["walkers"], "generations": main["generations"],
           "numpy": main["numpy"], "end_to_end": end_to_end}
    if traced:
        layers = dict(main["layers"])
        layers.update(_parallel_overhead(main, twin))
        if set(layers) != set(PER_LAYER):
            raise BenchmarkError(
                "per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(set(layers) ^ set(PER_LAYER))}")
        out.update(per_layer=layers, spans=main["spans"],
                   raw_spans=main["raw_spans"])
    return out


def _parallel_overhead(main: dict, twin: dict | None) -> dict:
    """What the second process costs against the serial twin's median
    generation time.  Base of ``scaling_eff``: 2 x the twin's rate."""
    if twin is None:
        return {"parallel.overhead_s_per_gen": 0.0,
                "parallel.scaling_eff": 0.0}
    return {
        "parallel.overhead_s_per_gen": (
            statistics.median(main["gen_s"])
            - 0.5 * statistics.median(twin["gen_s"])),
        "parallel.scaling_eff": (
            statistics.median(twin["gen_s"])
            / (2.0 * statistics.median(main["gen_s"]))),
    }


def summary(values: list, better: str) -> dict:
    """The headline number is the **best** sample, not the median: on the
    reference host a median measures the share of slow phases in the
    window, not the program (README.md has the measurements).
    """
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"best": max(values) if better == "higher" else min(values),
            "median": statistics.median(values),
            "q1": q1, "q3": q3, "n": len(values), "values": values}


# -- driver mode: one workload, one JSON line ------------------------------
def driver_run(args) -> int:
    traced = bool(args.trace)
    m = measure(args.workload, args.seed, args.seconds, traced=traced,
                cold=not traced)
    for error in m["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    if traced:
        metrics = {name: {"value": value, "unit": PER_LAYER[name]["unit"]}
                   for name, value in m["per_layer"].items()}
    else:
        metrics = {name: {"value": s["best"],
                          "unit": END_TO_END[name]["unit"]}
                   for name, s in m["end_to_end"].items()}
    print(json.dumps({"correct": not m["errors"],
                      "attempted": m["attempted"], "failed": m["failed"],
                      "metrics": metrics}))
    return 1 if m["errors"] else 0


# -- full mode: every workload, a results file -----------------------------
def full_run(args) -> int:
    names = [args.workload] if args.workload else WORKLOADS
    results = {"quick": args.quick, "seed": args.seed,
               "seconds": args.seconds, "host": host_fingerprint(),
               "workloads": {}}
    raw = {}
    for name in names:
        m = measure(name, args.seed, args.seconds, traced=True, cold=True,
                    quick=args.quick)
        raw[name] = m.pop("raw_spans")
        results["host"]["numpy"] = m.pop("numpy")
        results["workloads"][name] = m
        print_workload(name, m)
    out = Path(args.out)
    out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    out.with_suffix(".spans.json").write_text(json.dumps(raw) + "\n")
    failed = sum(m["failed"] for m in results["workloads"].values())
    print(f"wrote {out} ({'quick, ' if args.quick else ''}"
          f"{failed} failed generations)")
    return 1 if failed else 0


def print_workload(name: str, m: dict) -> None:
    print(f"== {name}: W={m['walkers']} G={m['generations']} "
          f"ops_attempted={m['attempted']} ops_failed={m['failed']}")
    for error in m["errors"]:
        print(f"   check failed: {error}")
    for metric, s in m["end_to_end"].items():
        print(f"   {metric:32s} {s['best']:14.6g} "
              f"{END_TO_END[metric]['unit']:12s} best of {s['n']}, median "
              f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]")
    for metric in PER_LAYER:
        print(f"   {metric:32s} {m['per_layer'][metric]:14.6g} "
              f"{PER_LAYER[metric]['unit']}")


def host_fingerprint() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": model,
            "platform": platform.platform(),
            "python": platform.python_version(), "pins": PINS}


# -- compare mode ----------------------------------------------------------
def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    if a["quick"] or b["quick"]:
        print("refusing to compare --quick results: one repeat, G halved",
              file=sys.stderr)
        return 2
    bad = False
    print(f"base A = {path_a}, B = {path_b}; ratio = B best / A best")
    for name in WORKLOADS:
        wa, wb = a["workloads"].get(name), b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        cells = []
        for metric, spec in END_TO_END.items():
            sa, sb = wa["end_to_end"][metric], wb["end_to_end"][metric]
            verdict = judge(sa, sb, spec)
            bad |= verdict == "worse"
            cells.append(f"{metric} {sa['best']:.5g} -> {sb['best']:.5g} "
                         f"{spec['unit']} (x{sb['best'] / sa['best']:.3f}) "
                         f"{verdict}")
        fail_a = wa["failed"] / wa["attempted"]
        fail_b = wb["failed"] / wb["attempted"]
        if fail_b > fail_a:
            bad = True
            cells.append(f"ops_failed share {fail_a:.3f} -> {fail_b:.3f} worse")
        print(f"{name}: " + "; ".join(cells))
    return 1 if bad else 0


def judge(a: dict, b: dict, spec: dict) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one workload x metric.

    Worse: B's best is worse than A's by more than the bound.  Unresolved:
    on either side the third-best sample is further from the best than the
    bound, so the best may be a lucky or an unlucky one — unless every
    sample of one side beats every sample of the other.
    """
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse_by = sign * (b["best"] - a["best"]) / a["best"]
    va = [sign * v for v in a["values"]]
    vb = [sign * v for v in b["values"]]
    separated = min(vb) > max(va) or max(vb) < min(va)
    blur = max(abs(v[min(2, len(v) - 1)] / v[0] - 1.0)
               for v in (sorted(va), sorted(vb)))
    if blur > spec["bound"] and not separated:
        return "unresolved"
    return "worse" if worse_by > spec["bound"] else "ok"


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        # never fall back to some other installed copy of the program
        print(f"no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=21)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.out:
        return full_run(args)
    if args.workload is None or args.trace is None:
        parser.error("need --out FILE, --compare A B, or "
                     "--workload NAME --trace 0|1")
    return driver_run(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
