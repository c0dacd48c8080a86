"""Differential suite for the virtual-particle NLPP engines.

Gates (docs/batched_nlpp.md):

* the vp slab engine reproduces the scalar temp-move oracle's V_NL
  within the accumulation-precision tolerance (1e4 * eps of the value
  dtype) on determinant+Jastrow workloads, across dtypes and quadrature
  grids, with the runtime sanitizers armed;
* the ratio-only API (``ratio_at`` / ``ratios_vp``) leaves every piece
  of walker state untouched and agrees with the legacy
  make_move/ratio/reject round-trip;
* stateless quadrature rotations are pure functions of
  ``(walker, serial)``, so splitting a population across crowds keeps
  the NLPP trace bitwise identical;
* the batched crowd driver with NLPP enabled reproduces the per-walker
  reference move for move (fp64: the batched stack runs one precision).
"""

import numpy as np
import pytest

from repro.batched import (BatchedCrowdDriver, JastrowSystemSpec,
                           WalkerBatch, run_reference)
from repro.hamiltonian.nlpp import NonLocalPP, QuadratureRotations
from repro.output.stream import StreamSet, TraceReader
from repro.workloads import get_workload
from repro.workloads.builder import build_system

SEED = 42


def _tol(dtype, ref=1.0):
    return 1e4 * float(np.finfo(dtype).eps) * max(1.0, abs(ref))


_PARTS_CACHE = {}


def _parts(wl_name, dtype):
    """One determinant+Jastrow system per (workload, dtype), shared
    across tests — the NLPP engines never mutate it."""
    key = (wl_name, np.dtype(dtype).name)
    if key not in _PARTS_CACHE:
        parts = build_system(get_workload(wl_name), scale=0.125, seed=9,
                             value_dtype=dtype, with_nlpp=False)
        parts.electrons.update_tables()
        parts.twf.evaluate_log(parts.electrons)
        _PARTS_CACHE[key] = parts
    return _PARTS_CACHE[key]


def _make_term(parts, npoints):
    """A synthetic l=1 channel over every ion (Be-64 carries no PP in
    the catalog, so the differential term is built directly)."""
    rcut = min(1.4, 0.9 * parts.lattice.wigner_seitz_radius)
    return NonLocalPP(parts.ions, range(parts.ions.n), l=1, v0=0.5,
                      width=0.8, rcut=rcut, npoints=npoints, table_index=1)


@pytest.mark.parametrize("npoints", [6, 12])
@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["fp64", "fp32"])
@pytest.mark.parametrize("wl_name", ["NiO-32", "Be-64"])
class TestVpMatchesReference:
    def test_vp_matches_loop_oracle(self, wl_name, dtype, npoints, sanitize):
        parts = _parts(wl_name, dtype)
        term = _make_term(parts, npoints)
        term.use_rotations(QuadratureRotations(31))
        term.set_walker(0, 1)
        v_vp = term.evaluate(parts.electrons, parts.twf)
        term.set_walker(0, 1)  # re-key the identical rotation
        v_loop = term.evaluate_reference(parts.electrons, parts.twf)
        assert v_loop != 0.0  # the gate must exercise in-range pairs
        assert abs(v_vp - v_loop) < _tol(dtype, v_loop)

    def test_vp_leaves_walker_untouched(self, wl_name, dtype, npoints):
        parts = _parts(wl_name, dtype)
        P, twf = parts.electrons, parts.twf
        term = _make_term(parts, npoints)
        term.use_rotations(QuadratureRotations(31))
        R_before = P.R.copy()
        row_before = np.array(P.distance_tables[1].dist_row_array(0))
        dets = [c for c in twf.components if hasattr(c, "psiM_inv")]
        inv_before = [d.psiM_inv.copy() for d in dets]
        term.evaluate(P, twf)
        np.testing.assert_array_equal(P.R, R_before)
        np.testing.assert_array_equal(
            np.array(P.distance_tables[1].dist_row_array(0)), row_before)
        for d, inv in zip(dets, inv_before):
            np.testing.assert_array_equal(d.psiM_inv, inv)


class TestRatioOnlyAPI:
    @pytest.fixture(scope="class")
    def parts(self):
        return _parts("NiO-32", np.float64)

    def _probe(self, parts, k=3, scale=0.3):
        P = parts.electrons
        r_new = P.R[k] + scale * np.array([0.21, -0.17, 0.09])
        return P.lattice.wrap(r_new[None, :])[0]

    def test_ratio_at_matches_move_round_trip(self, parts):
        P, twf = parts.electrons, parts.twf
        k = 3
        r_new = self._probe(parts, k)
        rho_api = twf.ratio_at(P, k, r_new)
        P.make_move(k, r_new)
        rho_move = twf.ratio(P, k)
        twf.reject_move(P, k)
        P.reject_move(k)
        assert rho_api == pytest.approx(rho_move, rel=1e-10)

    def test_ratios_vp_matches_ratio_at(self, parts):
        P, twf = parts.electrons, parts.twf
        owners = np.array([0, 0, 3, 7, P.n - 1], dtype=np.int64)
        rng = np.random.default_rng(5)
        positions = P.lattice.wrap(
            P.R[owners] + 0.4 * rng.normal(size=(owners.size, 3)))
        rho_slab = twf.ratios_vp(P, owners, positions)
        rho_scalar = np.array([twf.ratio_at(P, int(k), r)
                               for k, r in zip(owners, positions)])
        np.testing.assert_allclose(rho_slab, rho_scalar, rtol=1e-10)

    def test_ratio_at_leaves_state_untouched(self, parts):
        P, twf = parts.electrons, parts.twf
        k = 3
        R_before = P.R.copy()
        rows_before = [np.array(t.dist_row_array(k))
                       for t in P.distance_tables]
        dets = [c for c in twf.components if hasattr(c, "psiM_inv")]
        inv_before = [d.psiM_inv.copy() for d in dets]
        twf.ratio_at(P, k, self._probe(parts, k))
        owners = np.array([k], dtype=np.int64)
        twf.ratios_vp(P, owners, self._probe(parts, k)[None, :])
        np.testing.assert_array_equal(P.R, R_before)
        for t, row in zip(P.distance_tables, rows_before):
            np.testing.assert_array_equal(np.array(t.dist_row_array(k)), row)
        for d, inv in zip(dets, inv_before):
            np.testing.assert_array_equal(d.psiM_inv, inv)


class TestQuadratureRotations:
    def test_stateless_and_orthogonal(self):
        rots = QuadratureRotations(5)
        r1 = rots.rotation(3, 7)
        r2 = QuadratureRotations(5).rotation(3, 7)
        np.testing.assert_array_equal(r1, r2)
        np.testing.assert_allclose(r1 @ r1.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r1) == pytest.approx(1.0)

    def test_keys_are_independent(self):
        rots = QuadratureRotations(5)
        base = rots.rotation(3, 7)
        assert not np.array_equal(base, rots.rotation(4, 7))
        assert not np.array_equal(base, rots.rotation(3, 8))
        assert not np.array_equal(base, QuadratureRotations(6).rotation(3, 7))

    def test_crowd_split_is_bitwise_identical(self):
        """Evaluating the same 4 walkers as one crowd or as two crowds
        of 2 (with global walker ids injected) gives the identical V_NL
        per walker — the rotation cannot see crowd membership."""
        spec = JastrowSystemSpec(n=16, seed=7, with_nlpp=True)
        positions = spec.initial_positions(4)

        def run_crowd(pos, walker_ids):
            nw = pos.shape[0]
            tables, components, ham = spec.build_batched(nw)
            batch = WalkerBatch.from_positions(pos)
            for t in tables:
                t.evaluate(batch)
            ham.nlpp.set_rotations(QuadratureRotations(99),
                                   walker_ids=walker_ids)
            return ham.nlpp.evaluate(batch, tables, components)

        full = run_crowd(positions, np.arange(4))
        halves = np.concatenate([
            run_crowd(positions[:2], np.array([0, 1])),
            run_crowd(positions[2:], np.array([2, 3]))])
        np.testing.assert_array_equal(full, halves)
        assert np.all(full != 0.0)


# one value, the batched stack's one storage dtype; the id names it
@pytest.mark.parametrize("dtype", [pytest.param(np.float64, id="fp64")])
@pytest.mark.parametrize("npoints", [6, 12])
class TestDriverDifferentialWithNlpp:
    """The driver-level gate of docs/batched_walkers.md, with the NLPP
    term wired into both local-energy paths."""

    def _run_pair(self, npoints, dtype, nwalkers=4, steps=2, streams=None):
        spec = JastrowSystemSpec(n=16, seed=7, aa_flavor="otf",
                                 with_nlpp=True, nlpp_npoints=npoints)
        ref = run_reference(spec, nwalkers, steps, SEED, timestep=0.5)
        drv = BatchedCrowdDriver(spec, nwalkers, SEED, timestep=0.5)
        assert drv.batch.Rsoa.dtype == dtype
        drv.move_log = []
        drv.run(steps, streams=streams)
        return ref, drv

    def test_moves_exact_energies_within_policy(self, npoints, dtype,
                                                sanitize):
        ref, drv = self._run_pair(npoints, dtype)
        batched = np.array(drv.move_log)
        for w in range(4):
            assert ref.move_log[w] == list(batched[:, w])
        tol = _tol(dtype)
        np.testing.assert_allclose(drv.batch.local_energy, ref.energies[-1],
                                   rtol=tol, atol=tol)

    def test_nlpp_component_tracked(self, npoints, dtype, tmp_path):
        path = str(tmp_path / "run.trace")
        with StreamSet(trace_path=path) as streams:
            ref, drv = self._run_pair(npoints, dtype, streams=streams)
        assert "NonLocalECP" in drv.ham.names
        nl = drv.ham.last_components["NonLocalECP"]
        assert nl.shape == (4,)
        assert np.all(np.isfinite(nl))
        assert np.any(nl != 0.0)
        ref_series = ref.components["NonLocalECP"].ravel()
        with TraceReader(path) as trace:
            drv_series = trace.series("NonLocalECP")
        tol = _tol(dtype)
        np.testing.assert_allclose(drv_series, ref_series, rtol=tol, atol=tol)
