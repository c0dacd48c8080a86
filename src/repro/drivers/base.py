"""Shared PbyP sweep machinery for the QMC drivers."""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

from repro.drivers.generation import DMCPolicy, Generation, GenerationLoop
from repro.sanitizers import SanitizerSuite, sanitizers_enabled
from repro.metrics.registry import METRICS
from repro.particles.walker import Walker
from repro.precision.policy import FULL, PrecisionPolicy


class QMCDriverBase(GenerationLoop):
    """Owns the per-thread compute objects and the drift-diffusion sweep,
    and advances a Walker-list population through them one walker at a
    time (the load/sweep/store structure of Fig. 4).

    Parameters
    ----------
    P, twf, ham:
        The electron ParticleSet (with tables attached), trial
        wavefunction and Hamiltonian.
    timestep:
        Monte Carlo time step tau.
    use_drift:
        Importance-sampled moves (r' = r + tau*grad log Psi + chi) with
        the Green's-function detailed-balance correction, vs plain
        symmetric Gaussian moves.
    precision:
        PrecisionPolicy controlling the periodic from-scratch recompute
        of per-walker state (mixed precision needs it; Sec. 7.2).
    """

    #: cap on the drift displacement per move, in units of sqrt(tau)
    DRIFT_CAP = 2.0

    def __init__(self, P, twf, ham, rng: np.random.Generator,
                 timestep: float = 0.5, use_drift: bool = True,
                 precision: PrecisionPolicy = FULL):
        self.P = P
        self.twf = twf
        self.ham = ham
        self.rng = rng
        self.tau = float(timestep)
        self.use_drift = use_drift
        self.precision = precision
        self.n_accept = 0
        self.n_moves = 0
        #: the Walker list the current run advances
        self.population: List[Walker] = []
        #: optional per-move accept/reject trace (list of bools); assign a
        #: list to record — the differential suite compares it against the
        #: batched path's fused-step decisions
        self.move_log: list | None = None
        #: runtime invariant checks, armed by REPRO_SANITIZE=1 (repro.sanitizers)
        self.sanitizers = (SanitizerSuite(precision)
                           if sanitizers_enabled() else None)

    # -- walkers ----------------------------------------------------------------------
    def create_walkers(self, nw: int, jitter: float = 0.05) -> List[Walker]:
        """Spawn walkers around the current configuration and initialize
        their buffers (register + first from-scratch evaluation)."""
        base = self.P.R.copy()
        with METRICS.scope("spawn"):
            return self._create_walkers(nw, jitter, base)

    def _create_walkers(self, nw: int, jitter: float,
                        base: np.ndarray) -> List[Walker]:
        walkers = []
        for _ in range(nw):
            w = Walker.from_positions(
                base + jitter * self.rng.normal(size=base.shape),
                dtype=self.precision.value_dtype)
            self.P.load_walker(w)
            logpsi = self.twf.evaluate_log(self.P)
            self.twf.register_data(self.P, w.buffer)
            self.twf.update_buffer(self.P, w.buffer)
            el = self.ham.evaluate(self.P, self.twf)
            w.properties["logpsi"] = logpsi
            w.properties["local_energy"] = el
            walkers.append(w)
        return walkers

    def _begin(self, walkers: int | List[Walker], resume, label: str) -> int:
        """Install the run's population — spawned, handed in, or restored
        with the driver RNG and move counters from ``resume`` (a
        :class:`repro.output.runstate.RunCheckpoint`) — and return the
        number of generations already done."""
        start = self._resume_step(resume, label)
        if resume is not None:
            from repro.output.runstate import restore_rng
            restore_rng(self.rng, resume.rng_states["driver"])
            self.n_accept = int(resume.scalars["n_accept"])
            self.n_moves = int(resume.scalars["n_moves"])
            self.population = resume.walkers
        elif isinstance(walkers, int):
            self.population = self.create_walkers(walkers)
        else:
            self.population = walkers
        return start

    # -- GenerationLoop hooks over the Walker list --------------------------------------
    def _advance(self, step: int, e_trial: float | None) -> Generation:
        """One generation in the per-walker form of Fig. 4: each walker
        is loaded onto the compute objects, swept and stored; then every
        walker ages (VMC) or is reweighted against ``e_trial`` (DMC)."""
        walkers = self.population
        nw = len(walkers)
        el_old = np.empty(nw)
        energies = np.empty(nw)
        accepted = np.empty(nw, dtype=np.int64)
        comps: Dict[str, list] = {}
        recompute = self.precision.should_recompute(step)
        for i, w in enumerate(walkers):
            el_old[i] = w.properties["local_energy"]
            self.load_walker(w, recompute=recompute)
            accepted[i] = self.sweep()
            energies[i] = self.store_walker(w)
            for name, v in sorted(self.ham.last_components.items()):
                comps.setdefault(name, []).append(v)
        weights = np.array([w.weight for w in walkers], dtype=np.float64)
        ages = np.array([w.age for w in walkers], dtype=np.int64)
        if e_trial is None:
            ages += 1
        else:
            DMCPolicy.reweight(weights, ages, accepted, el_old, energies,
                               e_trial, self.tau)
        for w, weight, age in zip(walkers, weights, ages):
            w.weight = float(weight)
            w.age = int(age)
        return Generation(energies, weights,
                          {name: np.asarray(v) for name, v in comps.items()})

    def _run_meta(self) -> dict:
        return {"timestep": self.tau, "use_drift": bool(self.use_drift),
                "precision": self.precision.name}

    def _checkpoint_state(self) -> dict:
        from repro.output.runstate import rng_state
        return {"rng_states": {"driver": rng_state(self.rng)},
                "scalars": {"n_accept": float(self.n_accept),
                            "n_moves": float(self.n_moves)},
                "walkers": self.population}

    def load_walker(self, w: Walker, recompute: bool = False) -> None:
        with METRICS.scope("load"):
            self.P.load_walker(w)
            if recompute:
                self.twf.evaluate_log(self.P)
            else:
                self.twf.copy_from_buffer(self.P, w.buffer)

    def store_walker(self, w: Walker) -> float:
        """Measure E_L at the sweep's final configuration and store state."""
        with METRICS.scope("measure"):
            return self._store_walker(w)

    def _store_walker(self, w: Walker) -> float:
        self.P.update_tables()
        if self.sanitizers is not None:
            walker = next((i for i, x in enumerate(self.population)
                           if x is w), None)
            self.sanitizers.check_state(self.P, self.twf, walker)
        self.twf.evaluate_gl(self.P)
        el = self.ham.evaluate(self.P, self.twf)
        self.twf.update_buffer(self.P, w.buffer)
        self.P.store_walker(w)
        w.properties["local_energy"] = el
        return el

    # -- the drift-diffusion sweep (Alg. 1, L4-L10) ---------------------------------------
    def sweep(self) -> int:
        """One PbyP pass over all electrons; returns acceptance count."""
        with METRICS.scope("sweep"):
            return self._sweep()

    def _sweep(self) -> int:
        P = self.P
        twf = self.twf
        tau = self.tau
        sqrt_tau = math.sqrt(tau)
        accepted = 0
        n = P.n
        chi_all = self.rng.normal(scale=sqrt_tau, size=(n, 3))
        uniforms = self.rng.uniform(size=n)
        for k in range(n):
            chi = chi_all[k]
            P.set_active(k)
            if self.use_drift:
                g_old = twf.grad(P, k)
                drift_old = self._limited_drift(g_old)
                rnew = P.R[k] + drift_old + chi
            else:
                rnew = P.R[k] + chi
            P.make_move(k, rnew)
            if self.use_drift:
                rho, g_new = twf.ratio_grad(P, k)
                drift_new = self._limited_drift(g_new)
                # log T(R'->R) - log T(R->R'):
                back = P.R[k] - rnew - drift_new
                fwd = rnew - P.R[k] - drift_old
                log_t = (-(back @ back) + (fwd @ fwd)) / (2.0 * tau)
                A = min(1.0, rho * rho * math.exp(log_t))
            else:
                rho = twf.ratio(P, k)
                A = min(1.0, rho * rho)
            accept = uniforms[k] < A and rho != 0.0
            if self.move_log is not None:
                self.move_log.append(bool(accept))
            if accept:
                twf.accept_move(P, k, math.log(abs(rho)))
                P.accept_move(k)
                accepted += 1
                if self.sanitizers is not None:
                    self.sanitizers.after_accept(P, k)
            else:
                twf.reject_move(P, k)
                P.reject_move(k)
        self.n_accept += accepted
        self.n_moves += n
        return accepted

    def _limited_drift(self, g: np.ndarray) -> np.ndarray:
        """tau * grad, norm-capped — the standard umrigar-style limiter
        keeping rare huge gradients from catapulting walkers."""
        drift = self.tau * g
        norm = float(np.linalg.norm(drift))
        cap = self.DRIFT_CAP * math.sqrt(self.tau)
        if norm > cap:
            drift *= cap / norm
        return drift
