"""minispline — 3D B-spline SPO miniapp (Bspline-v / Bspline-vgh)."""

from __future__ import annotations

import time

import numpy as np

from repro.lattice.cell import CrystalLattice
from repro.miniapps.common import MiniappResult
from repro.precision.policy import resolve_value_dtype
from repro.spo.sposet import build_planewave_spline


def run_minispline(norb: int = 64, grid: int = 16, points: int = 200,
                   seed: int = 7, dtype=None) -> MiniappResult:
    """Time value and vgh evaluation, per-orbital (ref) vs multi (SoA).

    ``dtype`` sets the coefficient-table element type; the default is the
    paper's single-precision SPO storage.
    """
    dtype = resolve_value_dtype(dtype, default=np.float32)
    rng = np.random.default_rng(seed)
    a = 10.0
    lat = CrystalLattice.cubic(a)
    spline = build_planewave_spline(lat, norb, (grid, grid, grid),
                                    dtype=dtype)
    rs = rng.uniform(0, a, (points, 3))
    result = MiniappResult("minispline",
                           {"norb": norb, "grid": grid, "points": points,
                            "dtype": np.dtype(dtype).name})

    t0 = time.perf_counter()
    for r in rs:
        spline.ref_v(r)
    result.seconds["v_ref"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for r in rs:
        spline.multi_v(r)
    result.seconds["v_multi"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for r in rs:
        spline.ref_vgh(r)
    result.seconds["vgh_ref"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for r in rs:
        spline.multi_vgh(r)
    result.seconds["vgh_multi"] = time.perf_counter() - t0

    # Consistency fingerprint.
    v_a = spline.ref_v(rs[0])
    v_b = spline.multi_v(rs[0])
    result.checks["max_abs_diff"] = float(np.max(np.abs(v_a - v_b)))
    return result


def main(argv=None) -> int:
    import argparse
    p = argparse.ArgumentParser(
        description="3D B-spline SPO miniapp (Bspline-v/vgh hot spots)")
    p.add_argument("--norb", type=int, default=64)
    p.add_argument("--grid", type=int, default=16)
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--double", action="store_true",
                   help="double-precision coefficient table")
    args = p.parse_args(argv)
    res = run_minispline(args.norb, args.grid, args.points,
                         dtype=np.float64 if args.double else np.float32)
    print(res.format_table())
    print(f"  v speedup ref->multi:   {res.speedup('v_ref', 'v_multi'):.2f}x")
    print(f"  vgh speedup ref->multi: {res.speedup('vgh_ref', 'vgh_multi'):.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
