"""Figure 2 — normalized hot-spot profiles (Ref vs Current) for the NiO
benchmarks.

The paper's claims this bench checks:

* in the Ref profile, DistTable + J2 make up close to 50% of a run;
* the Current profile shrinks those kernels dramatically and the whole
  run accommodates a large speedup;
* DetUpdate's *share* grows in Current (7% -> 10% for NiO-64) because
  everything around it got faster.
"""

import pytest

from harness import BENCH_SCALE, heading, measure, row
from repro.core.version import CodeVersion
from repro.metrics.profile import PAPER_CATEGORIES


@pytest.mark.parametrize("workload", ["NiO-32", "NiO-64"])
def test_fig2_profiles(workload, benchmark):
    ref = measure(workload, CodeVersion.REF)
    cur = measure(workload, CodeVersion.CURRENT)
    speedup = ref.seconds_per_sweep / cur.seconds_per_sweep

    heading(f"Figure 2: hot-spot profiles, {workload} "
            f"(bench scale {BENCH_SCALE[workload]}, N={ref.n_electrons})")
    row("kernel", "Ref %", "Current %")
    ref_norm = {k: v / ref.total_seconds
                for k, v in ref.profile_seconds.items()}
    cur_norm = {k: v / cur.total_seconds
                for k, v in cur.profile_seconds.items()}
    for cat in PAPER_CATEGORIES:
        if cat in ref_norm or cat in cur_norm:
            row(cat, f"{100 * ref_norm.get(cat, 0.0):.1f}",
                f"{100 * cur_norm.get(cat, 0.0):.1f}")
    row("total speedup", f"{speedup:.2f}x", "")

    # Paper shape 1: AoS DistTable+Jastrow dominate the Ref profile.
    aos_share = sum(ref_norm.get(c, 0.0) for c in
                    ("DistTable-AA", "DistTable-AB", "J1", "J2"))
    assert aos_share > 0.35, f"Ref AoS share only {aos_share:.2f}"

    # Paper shape 2: Current shrinks that share substantially.
    cur_share = sum(cur_norm.get(c, 0.0) for c in
                    ("DistTable-AA", "DistTable-AB", "J2"))
    ref_share = sum(ref_norm.get(c, 0.0) for c in
                    ("DistTable-AA", "DistTable-AB", "J2"))
    ref_secs = sum(ref.profile_seconds.get(c, 0.0) for c in
                   ("DistTable-AA", "DistTable-AB", "J2"))
    cur_secs = sum(cur.profile_seconds.get(c, 0.0) for c in
                   ("DistTable-AA", "DistTable-AB", "J2"))
    assert cur_secs < 0.5 * ref_secs

    # Paper shape 3: the whole run speeds up.
    assert speedup > 1.5

    # Paper shape 4: DetUpdate's relative share grows Ref -> Current.
    assert cur_norm.get("DetUpdate", 0.0) >= ref_norm.get("DetUpdate", 0.0)

    # Benchmark the Current sweep for the record.
    from harness import get_system
    from repro.core.system import run_vmc
    sys_ = get_system(workload)
    parts = sys_.build(CodeVersion.CURRENT)

    def one_step():
        return run_vmc(sys_, CodeVersion.CURRENT, walkers=1, steps=1,
                       parts=parts, seed=3)

    benchmark.pedantic(one_step, rounds=2, iterations=1)
