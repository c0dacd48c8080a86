"""Runtime sanitizers for the walker-batched path.

Reuses the :mod:`repro.sanitizers` pieces (dtype / layout / tolerance
conventions) and adds the batched layout contract: the ``(W, 3, Np)``
block must stay contiguous, aligned, float64 and zero-padded, and
the incrementally-updated table row blocks must agree with a
from-scratch recompute for every *accepted* walker after each fused
accept/reject step, and every table (float64 storage, carried across
generations instead of rebuilt) must equal a fresh pair pass bit for
bit after ``settle`` and after a comb ``gather`` — and so must J1's
carried per-electron arrays equal a fresh row pass over it, and J2's
carried row value sums a fresh pass after each log pass.  The
compute-on-the-fly AA table stores no pair block: every row it serves
(the active row) must equal the matching pair-pass row bit for bit.

Armed by the same ``REPRO_SANITIZE=1`` toggle as the per-walker suite.
"""

from __future__ import annotations

import numpy as np

from repro.backend import get_backend, use_backend
from repro.sanitizers import (DtypeSanitizer, ForwardUpdateChecker,
                              LayoutSanitizer, SanitizerError,
                              check_carried_j1)
from repro.precision.policy import FULL


class BatchedSanitizerSuite:
    """Driver-facing bundle for :class:`BatchedCrowdDriver`; the batched
    stack runs one precision, so its dtype checks assert float64."""

    def __init__(self):
        self.dtype = DtypeSanitizer(FULL)
        self.layout = LayoutSanitizer()
        self.forward = ForwardUpdateChecker()

    # -- the (W, 3, Np) layout contract ------------------------------------------
    def check_batch(self, batch) -> None:
        soa = batch.Rsoa
        if not soa.flags["C_CONTIGUOUS"]:
            raise SanitizerError(
                "batched layout sanitizer: WalkerBatch.Rsoa is not "
                "C-contiguous")
        if batch.alignment and soa.ctypes.data % batch.alignment != 0:
            raise SanitizerError(
                f"batched layout sanitizer: WalkerBatch.Rsoa pointer "
                f"0x{soa.ctypes.data:x} is not {batch.alignment}-byte "
                f"aligned")
        if batch.np > batch.n and not np.all(soa[:, :, batch.n:] == 0):
            raise SanitizerError(
                f"batched layout sanitizer: WalkerBatch.Rsoa padding "
                f"columns [{batch.n}:{batch.np}] are not zero")
        self.dtype.check_array("WalkerBatch.Rsoa", soa)
        if batch.R.dtype != np.float64:
            raise SanitizerError(
                f"batched layout sanitizer: canonical WalkerBatch.R must "
                f"stay float64, got {batch.R.dtype.name}")

    def check_state(self, batch, tables, components=()) -> None:
        """Measurement-time and post-comb pass: batch layout, every
        table's storage and contents, and the carried J1 arrays of
        ``components`` (:func:`check_carried_j1`)."""
        self.check_batch(batch)
        for t in tables:
            self.layout.check_table(t)
            distances = getattr(t, "distances", None)
            if isinstance(distances, np.ndarray):
                self.dtype.check_array(
                    f"{type(t).__name__}.distances", distances)
            self.check_carried(batch, t)
        check_carried_j1(components, tables)

    @staticmethod
    def check_carried_j2(batch, tables, components) -> None:
        """After a log pass: every component carrying J2's row value
        sums ``U`` (it has ``fresh_sums``) must hold exactly ``rows_v``
        over the rows of a fresh pair pass over ``batch.R`` (through
        the process's kernel object, as :func:`check_carried_j1`)."""
        for c in components:
            if not hasattr(c, "fresh_sums"):
                continue
            with use_backend(get_backend()):
                fresh = c.fresh_sums(batch, tables)
            bad = np.argwhere(c.U != fresh)
            if len(bad):
                w, k = (int(i) for i in bad[0])
                raise SanitizerError(
                    f"carried-J2 checker: {type(c).__name__} walker #{w} "
                    f"electron {k} row value sum is {float(c.U[w, k])!r}, "
                    f"rows_v over a fresh pair pass gives "
                    f"{float(fresh[w, k])!r}")

    @staticmethod
    def check_carried(batch, table) -> None:
        """A table must equal a from-scratch pair pass over
        ``batch.R`` exactly — the whole stored block, or on the
        compute-on-the-fly table the active row, if it holds one.  The
        pass goes to the process's kernel object directly, not through
        ``active()``, so a counting proxy sees only the driver's own
        calls."""
        k = getattr(table, "active_k", None)
        if k == -1:
            return  # the compute-on-the-fly table holds no row
        backend = get_backend()
        source = getattr(table, "source", None)
        if source is not None:
            fresh = backend.ab_pairs(source.R, batch.R, table.lattice)
        else:
            fresh = backend.aa_pairs(batch.R, table.lattice)
        n = table.n
        if k is None:
            k = 0
            held = (table.distances[:, :, :n],
                    table.displacements[:, :, :, :n])
        else:  # only the active row k is stored
            held = (table.dist_rows(k)[:, None], table.disp_rows(k)[:, None])
            fresh = tuple(f[:, k:k + 1] for f in fresh)
        for name, got, want in zip(("distance", "displacement"), held, fresh):
            bad = got != want
            if bad.any():
                idx = tuple(int(i) for i in np.argwhere(bad)[0])
                w, i, j = idx[0], k + idx[1], idx[-1]
                axis = f" axis {idx[2]}" if len(idx) == 4 else ""
                raise SanitizerError(
                    f"carried-table checker: {type(table).__name__} "
                    f"walker #{w} {name} entry ({i}, {j}){axis} is "
                    f"{float(got[idx])!r}, a fresh pair pass gives "
                    f"{float(want[idx])!r}")

    # -- incremental-update cross-check ------------------------------------------
    def after_accept(self, batch, tables, k: int,
                     accepted: np.ndarray) -> None:
        """Row/column blocks of every accepted walker must match a
        double-precision from-scratch recompute after the commit, and
        the compute-on-the-fly table's row k, for every walker, the
        pair-pass row bit for bit."""
        for t in tables:
            if hasattr(t, "active_k"):
                # the row the compute-on-the-fly table serves, every walker
                self.check_carried(batch, t)
        if not np.any(accepted):
            return
        R = batch.R[accepted]  # (Wa, n, 3) — post-commit positions
        for t in tables:
            source = getattr(t, "source", None)
            if source is not None:
                brute = t.lattice.min_image_dist(
                    source.R[None, :, :] - R[:, k, None, :])
            else:
                brute = t.lattice.min_image_dist(R - R[:, k, None, :])
            rows = np.asarray(t.dist_rows(k)[accepted], dtype=np.float64)
            mask = np.ones(brute.shape[1], dtype=bool)
            if source is None:
                mask[k] = False  # self-distance holds the BIG sentinel
            tol = self.forward._tol(t)
            scale = max(1.0, float(np.max(brute[:, mask], initial=0.0)))
            bad = ~np.isclose(rows[:, mask], brute[:, mask], rtol=tol,
                              atol=tol * scale)
            if bad.any():
                w, j = np.argwhere(bad)[0]
                raise SanitizerError(
                    f"batched forward-update checker: {type(t).__name__} "
                    f"row {k} of accepted walker #{int(w)} is stale at "
                    f"partner {int(np.flatnonzero(mask)[j])} "
                    f"(tol={tol:.2g})")
            if getattr(t, "forward_update", False) and k + 1 < t.n:
                brute_col = t.lattice.min_image_dist(
                    R[:, k + 1:] - R[:, k, None, :])
                col = np.asarray(t.distances[accepted, k + 1:, k],
                                 dtype=np.float64)
                bad = ~np.isclose(col, brute_col, rtol=tol,
                                  atol=tol * scale)
                if bad.any():
                    w, j = np.argwhere(bad)[0]
                    raise SanitizerError(
                        f"batched forward-update checker: "
                        f"{type(t).__name__} forward column entry "
                        f"d({k + 1 + int(j)}, {k}) of accepted walker "
                        f"#{int(w)} is stale (tol={tol:.2g}) — column "
                        f"update after a rejected move?")
