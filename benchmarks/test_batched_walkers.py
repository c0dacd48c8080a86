"""Walker-batched vs per-walker throughput (the batched-driver argument).

The per-walker path pays the Python/dispatch overhead of every Metropolis
move once per walker; the batched path pays it once per crowd.  Walker
throughput (walker-steps/sec) at fixed N therefore grows with W for the
batched driver while staying flat for the per-walker loop — the
walker-axis analogue of the paper's SoA speedups.
"""

import time

import numpy as np

from harness import heading, row
from repro.batched import BatchedCrowdDriver, JastrowSystemSpec, run_reference

N = 32
STEPS = 2
SEED = 9


def _throughput_pair(nwalkers: int, flavor: str = "otf"):
    """(per-walker, batched) walker-steps/sec on the same spec."""
    spec = JastrowSystemSpec(n=N, seed=7, aa_flavor=flavor)
    t0 = time.perf_counter()
    run_reference(spec, nwalkers, STEPS, SEED)
    per_walker = STEPS * nwalkers / (time.perf_counter() - t0)
    drv = BatchedCrowdDriver(spec, nwalkers, SEED)
    t0 = time.perf_counter()
    drv.run(STEPS)
    batched = STEPS * nwalkers / (time.perf_counter() - t0)
    return per_walker, batched


class TestBatchedThroughput:
    def test_bench_per_walker(self, benchmark):
        spec = JastrowSystemSpec(n=N, seed=7)
        benchmark.pedantic(
            lambda: run_reference(spec, 8, 1, SEED),
            rounds=2, iterations=1)

    def test_bench_batched(self, benchmark):
        spec = JastrowSystemSpec(n=N, seed=7)

        def _run():
            BatchedCrowdDriver(spec, 8, SEED).run(1)

        benchmark.pedantic(_run, rounds=3, iterations=1)

    def test_speedup_report(self, benchmark):
        def _sweep():
            return {w: _throughput_pair(w) for w in (8, 32)}

        res = benchmark.pedantic(_sweep, rounds=1, iterations=1)
        heading(f"batched vs per-walker walker-steps/sec (N={N})")
        for w, (pw, b) in res.items():
            row(f"W={w}", f"{pw:.2f}/s", f"{b:.2f}/s", f"{b / pw:.1f}x")
        # Acceptance gate: >= 3x walker throughput at W >= 32.
        pw, b = res[32]
        assert b > 3.0 * pw

    def test_throughput_grows_with_walkers(self, benchmark):
        """Batched throughput rises with W (amortized dispatch); the
        per-walker path's stays roughly flat."""
        def _scaling():
            spec = JastrowSystemSpec(n=N, seed=7)
            out = {}
            for w in (4, 32):
                drv = BatchedCrowdDriver(spec, w, SEED)
                t0 = time.perf_counter()
                drv.run(STEPS)
                out[w] = STEPS * w / (time.perf_counter() - t0)
            return out

        res = benchmark.pedantic(_scaling, rounds=1, iterations=1)
        heading(f"batched walker-steps/sec scaling (N={N})")
        for w, thr in res.items():
            row(f"W={w}", f"{thr:.2f}/s")
        assert res[32] > 2.0 * res[4]
