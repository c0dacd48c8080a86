"""minidist — distance-table miniapp.

Runs PbyP move/accept sweeps through every AA flavor (ref packed
triangle, SoA forward update, compute-on-the-fly) and both AB flavors
over the same random walk, timing each.
"""

from __future__ import annotations

import time
import numpy as np

from repro.containers.tinyvector import TinyVector
from repro.distances.factory import create_aa_table, create_ab_table
from repro.miniapps.common import MiniappResult, base_parser, \
    make_electron_system


def _sweep_aa(table, P, moves: np.ndarray, accept: np.ndarray) -> None:
    n = P.n
    for k in range(n):
        rnew = P.lattice.wrap(P.R[k] + moves[k])
        table.set_active(P, k)
        table.move(P, rnew, k)
        if accept[k]:
            P.active_index, P.active_pos = k, rnew
            P.R[k] = rnew
            P.R_aos[k] = TinyVector(rnew)
            P.Rsoa[k] = rnew
            table.update(k)
            P.active_index, P.active_pos = -1, None


def run_minidist(n: int = 128, steps: int = 5, seed: int = 7,
                 flavors=("ref", "soa", "otf")) -> MiniappResult:
    """Time AA+AB sweeps per flavor; returns per-flavor seconds."""
    result = MiniappResult("minidist", {"n": n, "steps": steps})
    for flavor in flavors:
        lat, P, ions, rng = make_electron_system(n, seed=seed)
        aa = create_aa_table(n, lat, flavor)
        ab = create_ab_table(ions, n, lat, "ref" if flavor == "ref" else "soa")
        aa.evaluate(P)
        ab.evaluate(P)
        moves = rng.normal(0.0, 0.2, (n, 3))
        accept = rng.uniform(size=n) < 0.7
        t0 = time.perf_counter()
        for _ in range(steps):
            _sweep_aa(aa, P, moves, accept)
            for k in range(n):
                ab.move(P, P.lattice.wrap(P.R[k] + moves[k]), k)
                if accept[k]:
                    ab.update(k)
        result.seconds[flavor] = time.perf_counter() - t0
        # Correctness fingerprint: total pair distance after the walk,
        # accumulated in double regardless of the table dtype.
        aa.evaluate(P)
        row = aa.dist_row(0)
        result.checks[flavor] = float(np.sum(row[1:], dtype=np.float64))
    return result


def main(argv=None) -> int:
    p = base_parser("distance-table miniapp (DistTable hot spot)")
    args = p.parse_args(argv)
    res = run_minidist(args.nelectrons, args.steps, args.seed)
    print(res.format_table())
    print(f"  speedup ref->otf: {res.speedup('ref', 'otf'):.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
