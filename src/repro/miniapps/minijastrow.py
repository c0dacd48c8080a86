"""minijastrow — J1/J2 miniapp over real distance tables."""

from __future__ import annotations

import time


from repro.distances.factory import create_aa_table, create_ab_table
from repro.jastrow.functor import BsplineFunctor
from repro.jastrow.j1 import OneBodyJastrowOtf, OneBodyJastrowRef
from repro.jastrow.j2 import TwoBodyJastrowOtf, TwoBodyJastrowRef
from repro.miniapps.common import MiniappResult, base_parser, \
    make_electron_system


def _build(n, flavor, seed):
    lat, P, ions, rng = make_electron_system(n, seed=seed)
    aa = create_aa_table(n, lat, "ref" if flavor == "ref" else "otf")
    ab = create_ab_table(ions, n, lat, "ref" if flavor == "ref" else "soa")
    P.add_table(aa)
    P.add_table(ab)
    P.update_tables()
    rcut = 0.99 * lat.wigner_seitz_radius
    uu = BsplineFunctor.from_shape(rcut, cusp=-0.25, decay=1.2, name="uu")
    ud = BsplineFunctor.from_shape(rcut, cusp=-0.5, decay=0.9, name="ud")
    jf = {(0, 0): uu, (1, 1): uu, (0, 1): ud}
    j1f = {0: BsplineFunctor.from_shape(rcut, amplitude=-0.4, decay=0.8,
                                        name="X")}
    groups = list(P.group_ranges())
    if flavor == "ref":
        j2 = TwoBodyJastrowRef(n, groups, jf, 0)
        j1 = OneBodyJastrowRef(n, ions.species_ids, j1f, 1)
    else:
        j2 = TwoBodyJastrowOtf(n, groups, jf, 0)
        j1 = OneBodyJastrowOtf(n, ions.species_ids, j1f, 1)
    return lat, P, rng, j1, j2


def run_minijastrow(n: int = 128, steps: int = 5,
                    seed: int = 7) -> MiniappResult:
    """Time evaluate_log + PbyP ratio/accept sweeps for both flavors."""
    result = MiniappResult("minijastrow", {"n": n, "steps": steps})
    for flavor in ("ref", "otf"):
        lat, P, rng, j1, j2 = _build(n, flavor, seed)
        P.G[...] = 0
        P.L[...] = 0
        logpsi = j1.evaluate_log(P) + j2.evaluate_log(P)
        moves = rng.normal(0.0, 0.2, (n, 3))
        accept = rng.uniform(size=n) < 0.7
        t0 = time.perf_counter()
        for _ in range(steps):
            for k in range(n):
                P.set_active(k)
                P.make_move(k, lat.wrap(P.R[k] + moves[k]))
                r1, g1 = j1.ratio_grad(P, k)
                r2, g2 = j2.ratio_grad(P, k)
                if accept[k]:
                    j1.accept_move(P, k)
                    j2.accept_move(P, k)
                    P.accept_move(k)
                else:
                    j1.reject_move(P, k)
                    j2.reject_move(P, k)
                    P.reject_move(k)
        result.seconds[flavor] = time.perf_counter() - t0
        P.update_tables()
        P.G[...] = 0
        P.L[...] = 0
        result.checks[flavor] = j1.evaluate_log(P) + j2.evaluate_log(P)
    return result


def main(argv=None) -> int:
    p = base_parser("Jastrow miniapp (J1 + J2 hot spots)")
    args = p.parse_args(argv)
    res = run_minijastrow(args.nelectrons, args.steps, args.seed)
    print(res.format_table())
    print(f"  speedup ref->otf: {res.speedup('ref', 'otf'):.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
