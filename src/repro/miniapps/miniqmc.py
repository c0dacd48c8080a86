"""miniQMC — the combined miniapp: DistTable + Jastrow + Bspline + Det.

Mimics one QMC step per walker: a PbyP drift-diffusion sweep (move,
ratio_grad, accept/reject through the full TrialWaveFunction) followed
by pseudopotential-style extra ratio evaluations — without Hamiltonian
measurement or branching, exactly like the paper's miniQMC.
"""

from __future__ import annotations

import numpy as np

from repro.core.system import QmcSystem
from repro.core.version import CodeVersion
from repro.metrics.registry import METRICS
from repro.miniapps.common import MiniappResult


def run_miniqmc(workload: str = "NiO-32", scale: float = 0.125,
                steps: int = 2, seed: int = 7,
                versions=(CodeVersion.REF, CodeVersion.CURRENT),
                nlpp_ratios: int = 2) -> MiniappResult:
    """Time PbyP sweeps + extra ratios per code version; collect profiles."""
    sys_ = QmcSystem.from_workload(workload, scale=scale, seed=seed,
                                   with_nlpp=False)
    result = MiniappResult("miniqmc", {"workload": workload, "scale": scale,
                                       "steps": steps})
    result.profiles = {}
    for ver in versions:
        parts = sys_.build(ver)
        P, twf = parts.electrons, parts.twf
        rng = np.random.default_rng(seed + 1)
        twf.evaluate_log(P)
        n = P.n
        tau = 0.3
        with METRICS.profile_run(
                "miniQMC", f"miniqmc/{workload}/{ver.label}") as profile:
            for _ in range(steps):
                for k in range(n):
                    chi = rng.normal(0, np.sqrt(tau), 3)
                    P.set_active(k)
                    g_old = twf.grad(P, k)
                    P.make_move(k, P.R[k] + tau * g_old + chi)
                    rho, g_new = twf.ratio_grad(P, k)
                    if rng.uniform() < min(1.0, rho * rho):
                        twf.accept_move(P, k, float(np.log(abs(rho))))
                        P.accept_move(k)
                    else:
                        twf.reject_move(P, k)
                        P.reject_move(k)
                # Pseudopotential-style extra ratios (no acceptance).
                for k in range(0, n, max(1, n // 8)):
                    P.set_active(k)
                    for _ in range(nlpp_ratios):
                        P.make_move(k, P.R[k] + rng.normal(0, 0.3, 3))
                        twf.ratio(P, k)
                        twf.reject_move(P, k)
                        P.reject_move(k)
                P.update_tables()
                twf.evaluate_gl(P)
        result.seconds[ver.label] = profile.total
        result.profiles[ver.label] = profile
        result.checks[ver.label] = float(np.sum(P.R))
    return result


def main(argv=None) -> int:
    import argparse
    p = argparse.ArgumentParser(description="combined QMC miniapp")
    p.add_argument("-w", "--workload", default="NiO-32")
    p.add_argument("--scale", type=float, default=0.125)
    p.add_argument("-s", "--steps", type=int, default=2)
    p.add_argument("--seed", type=int, default=7)
    args = p.parse_args(argv)
    res = run_miniqmc(args.workload, args.scale, args.steps, args.seed)
    print(res.format_table())
    for label, prof in res.profiles.items():
        print()
        print(prof.format_table())
    print(f"\n  speedup Ref->Current: {res.speedup('Ref', 'Current'):.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
