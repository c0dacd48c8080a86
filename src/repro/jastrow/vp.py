"""The virtual-particle ratio kernel behind every Jastrow ``ratios_vp``.

An NLPP slab is ``Nvp`` quadrature points, each owned by a (walker,
electron) pair; its Jastrow ratio needs one fresh minimum-image distance
row per point against that walker's ``n`` sources.  The kernel keeps the
paper's layout on this path too: sources are a ``(3, n)`` SoA block,
distances are built component by component
(:meth:`~repro.lattice.cell.CrystalLattice.min_image_soa`), and the slab
is walked in *tiles* — maximal runs of equal owner walker — so the
working set is a few ``(tile, n)`` blocks instead of one
``(Nvp, n, 3)`` AoS slab.  The crowd engine's ``argwhere`` emits the
slab walker-sorted, which makes a tile one walker's whole quadrature
cloud; an unsorted slab only shortens the runs.

Bitwise contract (docs/batched_nlpp.md): on exactly diagonal cells the
distance rows, the functor row sums and ``u_old`` (J2: the stored
rows' sums; J1: its carried ``U``, bitwise those sums) are the same
floating-point results per point as the per-point ``ratio_at``
recompute, whatever the tiling.
"""

from __future__ import annotations

import numpy as np

from repro.distances.base import BIG_DISTANCE
from repro.jastrow.rows import j1_groups, j2_groups, rows_v
from repro.metrics.registry import METRICS


def equal_runs(*keys: np.ndarray):
    """``(starts, stops)`` of the maximal runs over which every array in
    ``keys`` (same non-zero length) stays equal to its previous
    element."""
    change = keys[0][1:] != keys[0][:-1]
    for k in keys[1:]:
        change |= k[1:] != k[:-1]
    cuts = np.flatnonzero(change) + 1
    return (np.concatenate(([0], cuts)),
            np.concatenate((cuts, [len(keys[0])])))


def dist_rows(lattice, src: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """``(m, n)`` minimum-image distances from the ``(m, 3)`` points
    ``pts`` to the ``(3, n)`` SoA source block ``src``, in accumulation
    precision."""
    dx, dy, dz = (src[c][None, :] - pts[:, c, None] for c in range(3))
    lattice.min_image_soa(dx, dy, dz)
    dx *= dx
    dy *= dy
    dz *= dz
    dx += dy
    dx += dz
    return np.sqrt(dx, out=dx)


def j2_row_sums(j2, rows: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """``sum_j u(rows[m, j])`` with row ``m``'s functors chosen by the
    group of its electron ``ks[m]``.  Rows of one owner group are taken
    as a view when they are contiguous (a walker-sorted slab) and
    gathered otherwise."""
    total = np.empty(len(rows))
    owner_group = j2.group_of[ks]
    for gk in np.unique(owner_group):
        sel = np.flatnonzero(owner_group == gk)
        if sel[-1] - sel[0] + 1 == len(sel):
            sel = slice(sel[0], sel[-1] + 1)
        total[sel] = rows_v(j2_groups(j2, int(gk)), rows[sel])
    return total


def j1_row_sums(j1, rows: np.ndarray, ks: np.ndarray) -> np.ndarray:
    """``sum_I u_{s(I)}(rows[m, I])`` per row (``ks`` is unused: every
    electron sees the same per-species functors)."""
    return rows_v(j1_groups(j1), rows)


def ratios_vp(lattice, dtype, owners_w, owners_k, positions, source,
              old_sums, row_sums, mask_self: bool) -> np.ndarray:
    """``(Nvp,)`` Jastrow ratios for a virtual-particle slab, op-counted
    on the caller's open (J2 or J1) scope.

    ``owners_w`` names each point's walker and ``owners_k`` its
    electron (the per-walker components pass a constant ``owners_w``:
    one tile).  ``source(w)`` is walker ``w``'s ``(3, n)`` float64
    source block, ``old_sums(ws, ks)`` the ``(len(ks),)`` current value
    sums of the (walker, electron) pairs ``zip(ws, ks)`` (J2: a row sum
    over the stored table rows; J1: its carried ``U``), and
    ``row_sums(rows, ks)`` the component's functor row sum.  Fresh rows
    get the table's ``dtype`` downcast exactly as ``table.move`` applies
    it; ``mask_self`` puts the BIG sentinel on each point's own column.

    ``u_old`` is asked for once per run of equal (walker, electron) —
    once per pair on the engines' pair-major slabs.  Scratch is a
    handful of ``(tile, n)`` float64 blocks.
    """
    owners_w = np.asarray(owners_w)
    owners_k = np.asarray(owners_k)
    pos = np.asarray(positions, dtype=np.float64)
    nvp = len(pos)
    if nvp == 0:
        return np.ones(0)
    starts, stops = equal_runs(owners_w, owners_k)
    u_old = np.repeat(old_sums(owners_w[starts], owners_k[starts]),
                      stops - starts)
    u_new = np.empty(nvp)
    for lo, hi in zip(*equal_runs(owners_w)):
        ks = owners_k[lo:hi]
        src = np.ascontiguousarray(source(int(owners_w[lo])))
        d = dist_rows(lattice, src, pos[lo:hi])
        if mask_self:
            d[np.arange(hi - lo), ks] = BIG_DISTANCE
        u_new[lo:hi] = row_sums(d.astype(dtype, copy=False), ks)
    n = d.shape[1]
    METRICS.record(flops=10.0 * n * nvp, rbytes=8.0 * n * nvp,
                   wbytes=8.0 * nvp)
    return np.exp(-(u_new - u_old))
