"""Isolated ratio guards for what the end-to-end benchmark cannot see.

``BENCHMARK.json`` + ``benchmarks/e2e/`` is the benchmark of record; it
runs only the fast paths, so it cannot tell when one of them stops
beating the path it replaced.  Each guard here puts two code paths on
one input through :func:`harness.best_of`: the exactness contract is
asserted on the untimed warm-up, then the fast path must beat the
retained oracle by a floor.  The floors sit well under today's ratios
(the 2-core reference VM has two speed modes 1.6x apart) — run
``make bench-check`` on a quiet machine.
"""

import numpy as np
import pytest

from harness import BENCH_SCALE, best_of, heading, row

SEED = 21


def _report(title, best, fast, slow, floor):
    ratio = best[slow] / best[fast]
    heading(title)
    for label, seconds in best.items():
        row(label, f"{1e3 * seconds:.2f} ms")
    row(f"{fast}_over_{slow}", f"{ratio:.2f}x", f"floor {floor}x")
    return ratio


def test_batched_nlpp_over_scalar():
    """Scalar temp-move NLPP oracle vs the fused virtual-particle engine
    on identical walker state (NiO-32 x0.25, 12-point quadrature).  Both
    are keyed on one stateless rotation stream, so V_NL must agree to
    accumulation precision (docs/batched_nlpp.md)."""
    from repro.hamiltonian.nlpp import NonLocalPP, QuadratureRotations
    from repro.workloads import get_workload
    from repro.workloads.builder import build_system

    steps, floor = 2, 3.0
    parts = build_system(get_workload("NiO-32"), scale=BENCH_SCALE["NiO-32"],
                         seed=SEED, with_nlpp=False)
    P, twf = parts.electrons, parts.twf
    P.update_tables()
    twf.evaluate_log(P)
    rcut = min(1.4, 0.9 * parts.lattice.wigner_seitz_radius)
    term = NonLocalPP(parts.ions, range(parts.ions.n), l=1, v0=0.5,
                      width=0.8, rcut=rcut, npoints=12, table_index=1)
    term.use_rotations(QuadratureRotations(SEED + 1))

    def leg(engine):
        def run():
            vals = []
            for s in range(steps):
                term.set_walker(0, s + 1)  # same rotation key, both engines
                vals.append(engine(P, twf))
            return vals
        return run

    def check(warm):
        ref, got = np.array(warm["scalar"]), np.array(warm["batched"])
        tol = 1e4 * np.finfo(np.float64).eps
        assert np.all(np.abs(got - ref) <= tol * np.maximum(1.0, np.abs(ref)))

    best = best_of({"scalar": leg(term.evaluate_reference),
                    "batched": leg(term.evaluate)}, reps=3, check=check)
    assert _report("NLPP: vp engine vs scalar oracle (NiO-32 x0.25)",
                   best, "batched", "scalar", floor) >= floor


def test_fused_sweep_over_loop():
    """The ``sweep_run`` pipeline kernel vs the retained per-electron
    loop oracle (N=24, W=8, forward-update AA tables — the flavor where
    fusion's old-row reuse applies, docs/sweep_fusion.md).  Both start
    from one seed, so the fused leg must be bitwise the loop's."""
    from repro.batched import BatchedCrowdDriver, JastrowSystemSpec
    from repro.batched.reference import use_loop_sweep

    steps, floor = 3, 1.15
    spec = JastrowSystemSpec(n=24, seed=7, aa_flavor="soa")
    drivers = {label: BatchedCrowdDriver(spec, 8, SEED)
               for label in ("loop", "fused")}
    use_loop_sweep(drivers["loop"])

    def leg(drv):
        return lambda: [drv.sweep() for _ in range(steps)]

    def check(warm):
        fused, loop = drivers["fused"], drivers["loop"]
        np.testing.assert_array_equal(warm["fused"], warm["loop"])
        np.testing.assert_array_equal(fused.last_sweep_accepts,
                                      loop.last_sweep_accepts)
        np.testing.assert_array_equal(fused.measure(), loop.measure())
        np.testing.assert_array_equal(fused.batch.R, loop.batch.R)

    best = best_of({label: leg(drv) for label, drv in drivers.items()},
                   reps=7, check=check)
    assert _report("sweep: fused pipeline vs loop oracle (N=24, W=8)",
                   best, "fused", "loop", floor) >= floor


@pytest.fixture(scope="module")
def nio32():
    """The NiO-32 x0.25 system: its fp32 orbital table and electrons."""
    from repro.workloads import get_workload
    from repro.workloads.builder import build_system

    return build_system(get_workload("NiO-32"), scale=BENCH_SCALE["NiO-32"],
                        seed=SEED, with_nlpp=False)


def test_spo_vgl_over_ref(nio32):
    """Per-orbital Ref ``ref_vgh`` + Hessian trace vs the per-walker
    ``multi_vgl`` GEMM, Laplacian folded into the stencil weights, on
    the NiO-32 x0.25 fp32 orbital table at eight electron positions.
    Both contract the same stencil in fp64, so they agree to rounding
    (docs/spline_memory.md)."""
    floor = 20.0
    sp = nio32.spo_up.spline
    points = nio32.electrons.R[:8].copy()

    def ref():
        out = []
        for r in points:
            v, g, h = sp.ref_vgh(r)
            out.append((v, g, np.trace(h, axis1=1, axis2=2)))
        return out

    def check(warm):
        for got, want in zip(warm["vgl"], warm["ref"]):
            for a, b in zip(got, want):
                np.testing.assert_allclose(
                    a, b, rtol=1e-12, atol=1e-12 * np.max(np.abs(b)))

    best = best_of({"ref": ref,
                    "vgl": lambda: [sp.multi_vgl(r) for r in points]},
                   reps=5, check=check)
    assert _report(f"SPO vgl: GEMM vs per-orbital Ref (NiO-32 x0.25, "
                   f"norb {sp.norb})", best, "vgl", "ref", floor) >= floor


def test_batched_spo_over_points(nio32):
    """Per-point ``multi_vgl``/``multi_vgh`` loops vs one walker-batched
    call each, at 32 electron positions of the NiO-32 x0.25 fp32 table.
    The batched kernels are the per-point GEMMs with a walker axis, so
    every walker's row must be bitwise the per-point result
    (docs/spline_memory.md)."""
    from repro.batched import spo

    floor = 2.0
    sp = nio32.spo_up.spline
    points = nio32.electrons.R[:32].copy()

    def check(warm):
        for w, want in enumerate(warm["points"]):
            for got, exp in zip(warm["batched"], want):
                np.testing.assert_array_equal(got[w], exp)

    ratios = {}
    for kernel in ("vgl", "vgh"):
        per_point = getattr(sp, f"multi_{kernel}")
        batched = getattr(spo, f"batched_multi_{kernel}")
        best = best_of({"points": lambda: [per_point(r) for r in points],
                        "batched": lambda: batched(sp, points)},
                       reps=15, check=check)
        ratios[kernel] = _report(
            f"SPO {kernel}: batched vs per-point (NiO-32 x0.25, "
            f"norb {sp.norb}, W=32)", best, "batched", "points", floor)
    assert min(ratios.values()) >= floor, ratios
