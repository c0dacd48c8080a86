"""Reference oracles for the batched path's differential suites.

:func:`run_reference` drives the *genuine* per-walker machinery
(:class:`QMCDriverBase` with one compute-object set, walkers
loaded/stored one at a time) with the same per-walker RNG streams the
batched driver consumes, and records the per-move accept/reject trace.
Nothing there is a reimplementation — any divergence the differential
suite finds is therefore attributable to the batched execution path.

:func:`loop_sweep` is the pre-fusion per-electron batched sweep, the
bitwise oracle of the fused ``sweep_run`` pipeline
(docs/sweep_fusion.md); :func:`use_loop_sweep` installs it on a driver.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.backend import active
from repro.batched.system import JastrowSystemSpec, walker_streams
from repro.drivers.base import QMCDriverBase
from repro.hamiltonian.nlpp import NonLocalPP, QuadratureRotations
from repro.metrics.registry import METRICS
from repro.particles.walker import Walker


@dataclass
class ReferenceTrace:
    """What the per-walker path did, move by move and step by step."""

    #: energies[s, w] = E_L of walker w at the end of step s+1
    energies: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: components[name][s, w] = Hamiltonian term ``name`` of that E_L
    components: Dict[str, np.ndarray] = field(default_factory=dict)
    #: move_log[w][m] = accept decision of walker w's m-th move
    move_log: List[List[bool]] = field(default_factory=list)
    #: final (W, n, 3) configurations
    positions: np.ndarray = field(default_factory=lambda: np.empty(0))
    n_moves: int = 0
    n_accept: int = 0


def run_reference(spec: JastrowSystemSpec, nwalkers: int, steps: int,
                  master_seed: int, timestep: float = 0.5,
                  use_drift: bool = True) -> ReferenceTrace:
    """Run the per-walker path over ``nwalkers`` independent RNG streams."""
    P, twf, ham = spec.build_scalar()
    driver = QMCDriverBase(P, twf, ham, np.random.default_rng(0),
                           timestep=timestep, use_drift=use_drift)
    rngs = walker_streams(master_seed, nwalkers)
    # NLPP rotation contract: stateless streams keyed on the same master
    # seed, walker w / serial s — serial 0 is the setup evaluation, step
    # s uses serial s, matching the batched engine's per-measurement
    # serial bump.
    nlpp_terms = [t for t in ham.terms if isinstance(t, NonLocalPP)]
    rotations = QuadratureRotations(master_seed)
    for t in nlpp_terms:
        t.use_rotations(rotations)
    positions = spec.initial_positions(nwalkers)
    walkers = []
    for w in range(nwalkers):
        walker = Walker.from_positions(positions[w])
        P.load_walker(walker)
        logpsi = twf.evaluate_log(P)
        twf.register_data(P, walker.buffer)
        twf.update_buffer(P, walker.buffer)
        walker.properties["logpsi"] = logpsi
        for t in nlpp_terms:
            t.set_walker(w, 0)
        walker.properties["local_energy"] = ham.evaluate(P, twf)
        walkers.append(walker)
    trace = ReferenceTrace(move_log=[[] for _ in range(nwalkers)])
    energies = np.empty((steps, nwalkers))
    components = {t.name: np.empty((steps, nwalkers)) for t in ham.terms}
    for step in range(1, steps + 1):
        for w, walker in enumerate(walkers):
            driver.rng = rngs[w]  # walker w always consumes stream w
            driver.move_log = trace.move_log[w]
            driver.load_walker(walker)
            driver.sweep()
            for t in nlpp_terms:
                t.set_walker(w, step)
            energies[step - 1, w] = driver.store_walker(walker)
            for name, value in ham.last_components.items():
                components[name][step - 1, w] = value
            walker.age += 1
    trace.energies = energies
    trace.components = components
    trace.positions = np.stack([w.R for w in walkers])
    trace.n_moves = driver.n_moves
    trace.n_accept = driver.n_accept
    return trace


# -- the pre-fusion batched sweep ---------------------------------------------------

def _grad(drv, k: int) -> np.ndarray:
    g = np.zeros((drv.nw, 3))
    for c in drv.components:
        g += c.grad(drv.tables, k)
    return g


def _ratio(drv, k: int) -> np.ndarray:
    rho = np.ones(drv.nw)
    for c in drv.components:
        rho *= c.ratio(drv.tables, k)
    return rho


def _ratio_grad(drv, k: int):
    rho = np.ones(drv.nw)
    g = np.zeros((drv.nw, 3))
    for c in drv.components:
        r, gc = c.ratio_grad(drv.tables, k)
        rho *= r
        g += gc
    return rho, g


def loop_limited_drift(drv, g: np.ndarray) -> np.ndarray:
    """Batched norm-capped drift; the norm uses the same BLAS dot the
    per-walker ``np.linalg.norm`` lowers to, for bitwise agreement."""
    drift = drv.tau * g
    norm = np.sqrt(np.matmul(drift[:, None, :],
                             drift[:, :, None])[:, 0, 0])
    cap = drv.DRIFT_CAP * math.sqrt(drv.tau)
    over = norm > cap
    if np.any(over):
        drift[over] *= (cap / norm[over])[:, None]
    return drift


def loop_sweep(drv) -> int:
    """One PbyP pass of a :class:`BatchedCrowdDriver` as the per-electron
    loop it was before fusion, retained verbatim: ~14 kernel dispatches
    per electron where the fused pipeline makes one per sweep."""
    batch = drv.batch
    tau = drv.tau
    sqrt_tau = math.sqrt(tau)
    n = drv.n
    # Per-walker streams, per-walker draw order (the RNG contract).
    chi_all = np.stack([rng.normal(scale=sqrt_tau, size=(n, 3))
                        for rng in drv.rngs])
    uniforms = np.stack([rng.uniform(size=n) for rng in drv.rngs])
    accepted_total = 0
    accepts_per_walker = np.zeros(drv.nw, dtype=np.int64)
    for k in range(n):
        chi = chi_all[:, k]
        for t in drv.tables:
            with METRICS.scope(t.category):
                t.set_active(batch, k)
        if drv.use_drift:
            drift_old = loop_limited_drift(drv, _grad(drv, k))
            rnew = batch.R[:, k] + drift_old + chi
        else:
            rnew = batch.R[:, k] + chi
        for t in drv.tables:
            with METRICS.scope(t.category):
                t.move(batch, rnew, k)
        if drv.use_drift:
            rho, g_new = _ratio_grad(drv, k)
            drift_new = loop_limited_drift(drv, g_new)
            # log T(R'->R) - log T(R->R'), batched over the crowd:
            back = batch.R[:, k] - rnew - drift_new
            fwd = rnew - batch.R[:, k] - drift_old
            log_t = (-np.matmul(back[:, None, :], back[:, :, None])[:, 0, 0]
                     + np.matmul(fwd[:, None, :],
                                 fwd[:, :, None])[:, 0, 0]) / (2.0 * tau)
        else:
            rho = _ratio(drv, k)
            log_t = None
        acc = np.asarray(
            active().accept_mask(
                rho, log_t, uniforms[:, k]))
        if drv.move_log is not None:
            drv.move_log.append(acc.copy())
        for t in drv.tables:
            with METRICS.scope(t.category):
                t.update(k, acc)
        for c in drv.components:
            c.accept_move(k, acc)
        batch.commit(k, rnew, acc)
        if drv.sanitizers is not None:
            drv.sanitizers.after_accept(batch, drv.tables, k, acc)
        accepts_per_walker += acc
        accepted_total += int(np.count_nonzero(acc))
    drv.last_sweep_accepts = accepts_per_walker
    drv.n_accept += accepted_total
    drv.n_moves += n * drv.nw
    return accepted_total


def use_loop_sweep(drv):
    """Make ``drv.sweep()`` run :func:`loop_sweep`; returns ``drv``."""
    drv._sweep = functools.partial(loop_sweep, drv)
    return drv
