"""Carried distance tables: ``settle`` and ``gather`` leave exactly what
a from-scratch pair pass over ``R`` leaves.

Every batched table (fp64 storage) is kept across generations: measure
settles it (the AB table is already current, the forward-update AA
table mirrors its current lower triangle) and the DMC comb's resync
gathers each slot's table from the slot its walker came from.  Whole
storage arrays are compared, padding included.  The compute-on-the-fly
AA table stores no block: every row it serves — its active row and each
row of its measure stream — must be the pair-pass row, bit for bit.
"""

import numpy as np
import pytest

from repro.backend import get_backend
from repro.batched import JastrowSystemSpec, WalkerBatch
from repro.batched.driver import BatchedCrowdDriver
from repro.batched.walkerbatch import commit_rows
from repro.drivers.generation import DMCPolicy
from repro.parallel.crowds import _host_crowd
from repro.parallel.shm import SharedWalkerState
from repro.sanitizers import SanitizerError

W = 6
N = 10
SOA = JastrowSystemSpec(n=N, seed=7, aa_flavor="soa")
#: one value, the batched tables' one storage dtype; the id names it
FP64 = pytest.mark.parametrize("dtype", [pytest.param(np.float64, id="fp64")])


def _tables(spec, batch, dtype=np.float64):
    tables, _, _ = spec.build_batched(W)
    for t in tables:
        assert getattr(t, "distances", getattr(t, "row_r", None)).dtype \
            == dtype
        t.evaluate(batch)
    return tables


def _sweep(tables, batch, rng, accept_p):
    """One PbyP pass with random moves and random accept masks."""
    for k in range(N):
        rnew = batch.R[:, k] + rng.normal(scale=0.4, size=(W, 3))
        for t in tables:
            t.set_active(batch, k)
            t.move(batch, rnew, k)
        acc = rng.random(W) < accept_p
        for t in tables:
            t.update(k, acc)
        batch.commit(k, rnew, acc)


def _assert_serves_pair_rows(batch, table):
    """The compute-on-the-fly table's active row, if it holds one, and
    every row it streams equal the rows of a pair pass."""
    dist, disp = get_backend().aa_pairs(batch.R, table.lattice)
    k = table.active_k
    if k >= 0:
        assert np.array_equal(table.dist_rows(k), dist[:, k]), k
        assert np.array_equal(table.disp_rows(k), disp[:, k]), k
    for i, (r, dr) in enumerate(table.rows(batch)):
        assert np.array_equal(r, dist[:, i]), i
        assert np.array_equal(dr, disp[:, i]), i


def _assert_from_scratch(spec, batch, tables):
    for t, f in zip(tables, _tables(spec, batch)):
        if not hasattr(t, "distances"):
            _assert_serves_pair_rows(batch, t)
            continue
        assert np.array_equal(t.distances, f.distances), type(t).__name__
        assert np.array_equal(t.displacements, f.displacements), \
            type(t).__name__


@FP64
@pytest.mark.parametrize("flavor", ["soa", "otf"])
@pytest.mark.parametrize("accept_p", [1.0, 0.7, 0.0])
def test_settle_after_sweeps_equals_a_pair_pass(flavor, dtype, accept_p):
    spec = JastrowSystemSpec(n=N, seed=5, aa_flavor=flavor)
    batch = WalkerBatch.from_positions(spec.initial_positions(W))
    tables = _tables(spec, batch, dtype)
    rng = np.random.default_rng(1)
    for _ in range(3):
        _sweep(tables, batch, rng, accept_p)
        for t in tables:
            t.settle(batch)
        _assert_from_scratch(spec, batch, tables)


@FP64
@pytest.mark.parametrize("flavor", ["soa", "otf"])
def test_gather_equals_a_pair_pass(flavor, dtype):
    spec = JastrowSystemSpec(n=N, seed=6, aa_flavor=flavor)
    batch = WalkerBatch.from_positions(spec.initial_positions(W))
    tables = _tables(spec, batch, dtype)
    rng = np.random.default_rng(2)
    _sweep(tables, batch, rng, 0.8)
    for t in tables:
        t.settle(batch)
    # slots 1 and 4 take walkers from outside the crowd (-1), the rest
    # a comb-like gather with a clone and a slot that keeps its walker
    src = np.array([0, -1, 0, 2, -1, 3])
    outside = spec.initial_positions(2) + 0.25
    R = batch.R[np.maximum(src, 0)]
    R[src < 0] = outside
    batch.R[...] = R
    batch.sync_soa()
    for t in tables:
        t.gather(batch, src)
    _assert_from_scratch(spec, batch, tables)


class TestCommitRows:
    @pytest.mark.parametrize("negate", [False, True])
    @pytest.mark.parametrize("accepted", [[1, 1, 1, 1], [1, 0, 1, 1],
                                          [0, 0, 0, 0]])
    def test_slice_and_index_paths_write_the_accepted_rows(self, accepted,
                                                           negate):
        rng = np.random.default_rng(3)
        acc = np.array(accepted, dtype=bool)
        src = rng.normal(size=(3, 5, 4)).transpose(2, 1, 0)  # strided
        dst = rng.normal(size=(4, 5, 3))
        want = dst.copy()
        want[acc] = -src[acc] if negate else src[acc]
        commit_rows(dst, src, acc, negate=negate)
        assert np.array_equal(dst, want)

    def test_writes_through_a_view(self):
        block = np.zeros((4, 6, 3))
        rnew = np.arange(12.0).reshape(4, 3)
        acc = np.array([True, False, True, True])
        commit_rows(block[:, 2], rnew, acc)
        assert np.array_equal(block[acc, 2], rnew[acc])
        assert not block[~acc].any() and not block[:, [0, 1, 3, 4, 5]].any()


def _crowd(spec):
    state = SharedWalkerState(W, spec.n)
    state.R[...] = spec.initial_positions(W)
    return state, _host_crowd(spec, state, 0, 1, 11, 0.1, True, 1)


def _comb(state, seed=3):
    picks, clone = DMCPolicy.comb_picks(
        state.weight, state.nw,
        np.random.default_rng(seed).uniform(0.0, 1.0 / state.nw))
    state.resample(picks, clone)


class TestCarriedChecker:
    """``BatchedSanitizerSuite.check_state`` compares every table with
    a fresh pair pass; a stale entry raises."""

    def test_armed_dmc_generations_pass(self, sanitize):
        state, crowd = _crowd(SOA)
        e_trial = float(np.mean(state.local_energy))
        for step in (1, 2, 3):
            crowd.run_generation(step, e_trial)
            _comb(state, step)

    def test_corrupt_upper_triangle_entry(self, sanitize):
        drv = BatchedCrowdDriver(SOA, W, 11, timestep=0.1)
        aa = drv.tables[0]
        settle = aa.settle

        def settle_then_corrupt(batch):
            settle(batch)
            aa.distances[2, 1, 4] = np.nextafter(aa.distances[2, 1, 4], 9.0)
        aa.settle = settle_then_corrupt
        drv.sweep()
        with pytest.raises(SanitizerError,
                           match=r"BatchedDistTableAA walker #2 distance "
                                 r"entry \(1, 4\)"):
            drv.measure()

    def test_corrupt_gathered_slot(self, sanitize):
        state, crowd = _crowd(SOA)
        e_trial = float(np.mean(state.local_energy))
        crowd.run_generation(1, e_trial)
        _comb(state)
        ab = crowd.tables[1]
        gather = ab.gather

        def gather_then_corrupt(batch, src):
            gather(batch, src)
            ab.displacements[3, 5, 1, 0] += 1e-9
        ab.gather = gather_then_corrupt
        with pytest.raises(SanitizerError,
                           match=r"BatchedDistTableAB walker #3 displacement "
                                 r"entry \(5, 0\) axis 1"):
            crowd.run_generation(2, e_trial)


OTF = JastrowSystemSpec(n=N, seed=7, aa_flavor="otf", with_nlpp=True)


class TestOtfRowChecker:
    """The compute-on-the-fly table is held to the pair pass row by row
    (``check_state`` and ``after_accept``), and J2's carried row value
    sums to a fresh pass after every log pass (``check_carried_j2``)."""

    def test_armed_dmc_generations_pass(self, sanitize):
        state, crowd = _crowd(OTF)
        e_trial = float(np.mean(state.local_energy))
        for step in (1, 2, 3):
            crowd.run_generation(step, e_trial)
            _comb(state, step)

    def test_corrupt_active_row_at_measure(self, sanitize):
        drv = BatchedCrowdDriver(OTF, W, 11, timestep=0.1)
        aa = drv.tables[0]
        settle = aa.settle

        def settle_then_corrupt(batch):
            settle(batch)
            aa.row_r[2, 4] = np.nextafter(aa.row_r[2, 4], 9.0)
        aa.settle = settle_then_corrupt
        drv.sweep()
        with pytest.raises(SanitizerError,
                           match=rf"BatchedDistTableAAOtf walker #2 distance "
                                 rf"entry \({N - 1}, 4\)"):
            drv.measure()

    def test_corrupt_served_row_after_accept(self, sanitize):
        drv = BatchedCrowdDriver(OTF, W, 11, timestep=0.1)
        aa = drv.tables[0]
        update = aa.update

        def update_then_corrupt(k, accepted):
            update(k, accepted)
            if k == 3:
                aa.row_dr[1, 2, 5] += 1e-12
        aa.update = update_then_corrupt
        with pytest.raises(SanitizerError,
                           match=r"BatchedDistTableAAOtf walker #1 "
                                 r"displacement entry \(3, 5\) axis 2"):
            drv.sweep()

    def test_corrupt_carried_j2_sum(self, sanitize):
        drv = BatchedCrowdDriver(OTF, W, 11, timestep=0.1)
        j2 = drv.components[0]
        evaluate_log = j2.evaluate_log

        def evaluate_then_corrupt(*args, **kwargs):
            logpsi = evaluate_log(*args, **kwargs)
            j2.U[4, 6] = np.nextafter(j2.U[4, 6], 9.0)
            return logpsi
        j2.evaluate_log = evaluate_then_corrupt
        drv.sweep()
        with pytest.raises(SanitizerError,
                           match=r"carried-J2 checker: BatchedTwoBodyJastrow "
                                 r"walker #4 electron 6"):
            drv.measure()
