"""Fused per-electron sweep pipeline: workspace, plan, reference kernels.

The pre-fusion ``BatchedCrowdDriver._sweep`` issued ~14 separate backend
calls, two table moves/updates with their own ``METRICS.scope`` context
managers, and a handful of fresh (W, 3)/(W,) allocations *per electron
per sweep* — pure host-side dispatch overhead that grows linearly with
N (ROADMAP item 1; the same observation drives QMCPACK's batched "move
pipeline" redesign).  This module packages one whole Metropolis move —
propose → table move → ratio/ratio_grad product → drift limit → log T →
accept_mask → commit — as data (:class:`SweepPlan` + the preallocated
:class:`SweepWorkspace`) plus the bitwise reference implementation the
kernel class dispatches to, so the driver makes **one** kernel
call per sweep (``sweep_run``) instead.

Bitwise contract: :func:`fused_sweep_step` is an op-for-op extraction of
the pre-fusion loop body.  Every floating-point operation runs on the
same operands; the changes are *where* results land (reused workspace
buffers instead of fresh allocations — identical values, elementwise
ufunc semantics), the removal of per-electron ``METRICS.scope`` context
managers (timers never touch numerics), and one eliminated redundancy:
in the drift path the component's old-row value sum is taken from the
``sweep_grad`` evaluation instead of a second value-only pass — safe
because the value channel is bitwise the value-only result (identical
Horner, gather and reduction; see the fused-sweep notes in
:mod:`repro.batched.jastrow`) and because every table's row k is exact
from ``set_active(k)``, the move's first step, on.  The differential
suite pins the fused path against the retained loop oracle
(``repro.batched.reference.loop_sweep``) with exact accept/reject-sequence
and trace equality.

Workspace lifetime: one :class:`SweepWorkspace` is allocated per driver
and reused for every sweep of its lifetime.  ``fill`` redraws the
per-walker Gaussian block and uniforms *into* the standing (W, n, 3) /
(W, n) slabs with the identical per-generator call pattern the
pre-fusion ``np.stack`` comprehensions made, so RNG streams — and hence
accept/reject sequences — are unchanged.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.metrics.registry import METRICS


class SweepWorkspace:
    """Per-driver scratch reused across sweeps (no per-electron allocs).

    ``chi_all``/``uniforms`` replace the per-sweep ``np.stack``
    comprehensions; the (W, 3) move buffers replace the per-electron
    fresh arrays of the pre-fusion loop body.
    """

    __slots__ = ("nw", "n", "chi_all", "uniforms", "g", "drift_old",
                 "drift_new", "rnew", "back", "fwd", "rho", "accepts")

    def __init__(self, nwalkers: int, n: int):
        self.nw = int(nwalkers)
        self.n = int(n)
        #: per-sweep random draws, (W, n, 3) Gaussians and (W, n) uniforms
        self.chi_all = np.empty((self.nw, self.n, 3))
        self.uniforms = np.empty((self.nw, self.n))
        #: per-move (W, 3) buffers of the propose/drift/log-T pipeline
        self.g = np.empty((self.nw, 3))
        self.drift_old = np.empty((self.nw, 3))
        self.drift_new = np.empty((self.nw, 3))
        self.rnew = np.empty((self.nw, 3))
        self.back = np.empty((self.nw, 3))
        self.fwd = np.empty((self.nw, 3))
        #: (W,) ratio product accumulator
        self.rho = np.empty(self.nw)
        #: (W,) accepted-move counts of the sweep in flight
        self.accepts = np.zeros(self.nw, dtype=np.int64)

    def fill(self, rngs: List[np.random.Generator],
             sqrt_tau: float) -> None:
        """Redraw the sweep's randoms into the standing slabs.

        Per-generator call pattern is identical to the pre-fusion
        ``np.stack([rng.normal(...)])`` / ``np.stack([rng.uniform(...)])``
        pair — walker w's stream sees exactly the same (n, 3) Gaussian
        request followed by the same n-uniform request, so the draws are
        bitwise the ones the old code stacked.
        """
        for w, rng in enumerate(rngs):
            self.chi_all[w] = rng.normal(scale=sqrt_tau, size=(self.n, 3))
        for w, rng in enumerate(rngs):
            self.uniforms[w] = rng.uniform(size=self.n)


class SweepPlan:
    """Everything one sweep kernel call needs, bundled once per driver.

    The sweep kernels are the seam's one documented departure from
    the pure array-in/array-out contract (see
    :mod:`repro.backend.numpy_backend`): they receive this host-side plan and
    *commit* accepted moves into its batch and tables — that mutation is
    the pipeline's whole point.  All fields except ``move_log`` and
    ``sanitizers`` are fixed at driver construction; those two are
    re-synced from the driver before every sweep (tests attach
    ``move_log`` after construction).
    """

    __slots__ = ("batch", "tables", "components", "workspace", "tau",
                 "sqrt_tau", "use_drift", "drift_cap", "n", "nw",
                 "move_log", "sanitizers", "u_olds")

    def __init__(self, batch, tables, components, workspace: SweepWorkspace,
                 tau: float, drift_cap: float, use_drift: bool,
                 move_log: Optional[list] = None, sanitizers=None):
        self.batch = batch
        self.tables = tables
        self.components = components
        self.workspace = workspace
        self.tau = float(tau)
        self.sqrt_tau = math.sqrt(self.tau)
        self.use_drift = bool(use_drift)
        self.drift_cap = float(drift_cap)
        self.n = workspace.n
        self.nw = workspace.nw
        self.move_log = move_log
        self.sanitizers = sanitizers
        #: per-component old-row value sums of the move in flight
        #: (written by ``_fused_grad``, read by ``_fused_ratio_grad``)
        self.u_olds = [None] * len(components)


def limited_drift(tau: float, drift_cap: float, g: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """Norm-capped drift — op-for-op the driver's ``_limited_drift``.

    ``out`` only changes where the product lands (ufunc semantics keep
    the elementwise results identical); the batched ``np.matmul`` norm
    is the same BLAS dot the per-walker ``np.linalg.norm`` lowers to.
    """
    if out is None:
        drift = tau * g
    else:
        drift = np.multiply(tau, g, out=out)
    norm = np.sqrt(np.matmul(drift[:, None, :],
                             drift[:, :, None])[:, 0, 0])
    cap = drift_cap * math.sqrt(tau)
    over = norm > cap
    if np.any(over):
        drift[over] *= (cap / norm[over])[:, None]
    return drift


def _fused_grad(plan: SweepPlan, k: int) -> np.ndarray:
    """Summed component gradient at the current positions (timer-free).

    Stashes each component's old-row value sum in ``plan.u_olds`` so
    :func:`_fused_ratio_grad` can skip the eager path's second old-row
    functor pass (bitwise-identical value channel, see the component
    notes)."""
    g = plan.workspace.g
    g[...] = 0.0
    for ci, c in enumerate(plan.components):
        u_old, gc = c.sweep_grad(plan.tables, k)
        plan.u_olds[ci] = u_old
        g += gc
    return g


def _fused_ratio(plan: SweepPlan, k: int) -> np.ndarray:
    """Product of component ratios for the proposed move (timer-free)."""
    rho = plan.workspace.rho
    rho[...] = 1.0
    for c in plan.components:
        rho *= c.sweep_ratio(plan.tables, k)
    return rho


def _fused_ratio_grad(plan: SweepPlan, k: int):
    """(ratio product, summed gradient at the proposed positions)."""
    ws = plan.workspace
    rho = ws.rho
    rho[...] = 1.0
    g = ws.g
    g[...] = 0.0
    for ci, c in enumerate(plan.components):
        r, gc = c.sweep_ratio_grad(plan.tables, k, plan.u_olds[ci])
        rho *= r
        g += gc
    return rho, g


def fused_sweep_step(backend, plan: SweepPlan, k: int) -> np.ndarray:
    """One whole Metropolis move of electron k across the crowd.

    The op-for-op extraction of the pre-fusion loop body: activate row
    k → propose → table move → ratio/ratio_grad product → drift limit →
    log T → accept_mask → commit, mutating the plan's batch/tables and
    returning the (W,) accept mask.  ``backend`` supplies
    ``accept_mask``; the table and component kernels dispatch through
    ``active()``.
    """
    batch = plan.batch
    ws = plan.workspace
    tau = plan.tau
    chi = ws.chi_all[:, k]
    for t in plan.tables:
        t.set_active(batch, k)
    if plan.use_drift:
        drift_old = limited_drift(tau, plan.drift_cap, _fused_grad(plan, k),
                                  out=ws.drift_old)
        rnew = np.add(batch.R[:, k], drift_old, out=ws.rnew)
        rnew += chi
    else:
        rnew = np.add(batch.R[:, k], chi, out=ws.rnew)
    for t in plan.tables:
        t.move(batch, rnew, k)
    if plan.use_drift:
        rho, g_new = _fused_ratio_grad(plan, k)
        drift_new = limited_drift(tau, plan.drift_cap, g_new,
                                  out=ws.drift_new)
        # log T(R'->R) - log T(R->R'), batched over the crowd:
        back = np.subtract(batch.R[:, k], rnew, out=ws.back)
        back -= drift_new
        fwd = np.subtract(rnew, batch.R[:, k], out=ws.fwd)
        fwd -= drift_old
        log_t = (-np.matmul(back[:, None, :], back[:, :, None])[:, 0, 0]
                 + np.matmul(fwd[:, None, :],
                             fwd[:, :, None])[:, 0, 0]) / (2.0 * tau)
    else:
        rho = _fused_ratio(plan, k)
        log_t = None
    acc = np.asarray(backend.accept_mask(rho, log_t, ws.uniforms[:, k]))
    if plan.move_log is not None:
        plan.move_log.append(acc.copy())
    for t in plan.tables:
        t.update(k, acc)
    for c in plan.components:
        c.accept_move(k, acc)
    batch.commit(k, rnew, acc)
    if plan.sanitizers is not None:
        plan.sanitizers.after_accept(batch, plan.tables, k, acc)
    return acc


def fused_sweep_run(backend, plan: SweepPlan):
    """One whole PbyP sweep through :func:`fused_sweep_step`.

    Per-electron ``METRICS.scope`` context managers are hoisted into a
    single per-sweep ``Sweep`` scope (per-category attribution stays
    available through ``measure()`` and the retained loop oracle).
    Returns ``(accepts_per_walker, accepted_total)`` where the first is
    a fresh (W,) int64 array.
    """
    ws = plan.workspace
    accepts = ws.accepts
    accepts[...] = 0
    accepted_total = 0
    with METRICS.scope("Sweep"):
        for k in range(plan.n):
            acc = fused_sweep_step(backend, plan, k)
            accepts += acc
            accepted_total += int(np.count_nonzero(acc))
    return accepts.copy(), accepted_total
