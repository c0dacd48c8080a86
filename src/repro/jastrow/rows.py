"""The Jastrow row sums, written once for both execution stacks.

A Jastrow component reduces one (electron, all-partners) distance row
to a value, a gradient and a Laplacian by walking its *groups* — the
``(functor, columns)`` pairs that split the row by species: for J2 the
spin-group slices resolved against the moved electron's group
(:func:`j2_groups`), for J1 the per-species ion index sets
(:func:`j1_groups`).  The kernels below take the ``(W, n)`` /
``(W, 3, n)`` row *blocks* of the batched tables and return per-walker
``(W,)`` / ``(W, 3)`` results; the per-walker classes call them with
``row[None]`` and unwrap ``[0]``.  Op counting stays with the caller.

Bitwise contract (the differential suites rely on it): functor
evaluation is elementwise and ``np.sum(..., axis=-1)`` reduces each row
with the pairwise order of a 1-D ``np.sum``, so the value and Laplacian
of row ``w`` of a block result do not depend on W, whatever the group
columns.  The gradient's ``(W, 3, m) @ (W, m, 1)`` matmul keeps that
only where the columns are a slice (J2's spin groups): the block's
``(3, m)`` items are then views with the strides of a single row and
lower to the per-walker BLAS reduction.  An index-array group (J1's
species) gathers a fresh ``(W, 3, m)`` array whose layout differs at
W > 1 from W = 1, and its gradient rows may differ from one-row calls
in the last bit (for m >= 8 on most rows).

Gradient/Laplacian conventions (contributions to log Psi):

* grad_k = sum_j u'(d_kj) * disp(k->j) / d_kj          (3-vector)
* lap_k  = -sum_j ( u''(d_kj) + 2 u'(d_kj) / d_kj )
"""

from __future__ import annotations

import numpy as np


def j2_groups(j2, gk: int):
    """J2's groups for an electron of spin group ``gk``."""
    return [(j2.functor_for(gk, g), s) for g, s in j2.group_slices]


def j1_groups(j1):
    """J1's groups: one functor per ion species, ascending species id —
    the pinned visit order of every accumulation."""
    return [(j1.functors[g], idx) for g, idx in j1.species_masks]


def rows_v(groups, rows_r: np.ndarray) -> np.ndarray:
    """``sum_j u(rows_r[w, j])`` per walker; ``rows_r`` is (W, n)."""
    total = np.zeros(len(rows_r))
    for f, s in groups:
        total += np.sum(f.evaluate_v(rows_r[:, s]), axis=-1)
    return total


def rows_vg(groups, rows_r: np.ndarray, rows_dr: np.ndarray):
    """``(sum u, grad)`` per walker: :func:`rows_vgl` without the
    Laplacian channel the PbyP moves never read, bitwise its first two
    results.  ``rows_dr`` is (W, 3, n)."""
    nw = len(rows_r)
    u_sum = np.zeros(nw)
    grad = np.zeros((nw, 3))
    for f, s in groups:
        r = rows_r[:, s]
        u, du = f.evaluate_vg(r)
        u_sum += np.sum(u, axis=-1)
        w = du / r  # safe: du == 0 wherever r >= rcut (incl. BIG diag)
        grad += np.matmul(rows_dr[:, :, s], w[:, :, None])[:, :, 0]
    return u_sum, grad


def rows_vgl(groups, rows_r: np.ndarray, rows_dr: np.ndarray):
    """``(sum u, grad, lap)`` per walker, shapes (W,), (W, 3), (W,)."""
    nw = len(rows_r)
    u_sum = np.zeros(nw)
    grad = np.zeros((nw, 3))
    lap = np.zeros(nw)
    for f, s in groups:
        r = rows_r[:, s]
        u, du, d2u = f.evaluate_vgl(r)
        u_sum += np.sum(u, axis=-1)
        w = du / r  # safe: du == 0 wherever r >= rcut (incl. BIG diag)
        grad += np.matmul(rows_dr[:, :, s], w[:, :, None])[:, :, 0]
        lap -= np.sum(d2u + 2.0 * w, axis=-1)
    return u_sum, grad, lap
