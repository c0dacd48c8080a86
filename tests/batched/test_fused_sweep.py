"""Fused-sweep pipeline gates (docs/sweep_fusion.md).

Three contracts:

* the fused ``sweep_run`` path (the driver default) is **bitwise
  identical** to the retained pre-fusion loop oracle
  (``repro.batched.reference.loop_sweep``) — accept/reject sequences,
  energy traces, final configurations, counters;
* the workspace-buffered ``limited_drift`` is bitwise the driver's
  ``loop_limited_drift`` across value dtypes, crowd widths and cap-branch
  outcomes (the hypothesis sweep);
* the crowd-split determinism guarantee survives fusion: the process
  -parallel driver produces bitwise-equal traces at workers 0 and 2
  with the fused sweep underneath.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.batched import BatchedCrowdDriver, JastrowSystemSpec
from repro.batched.reference import loop_limited_drift, use_loop_sweep
from repro.batched.sweep import SweepWorkspace, limited_drift
from repro.drivers.generation import DRIFT_CAP
from repro.output.stream import StreamSet, TraceReader
from repro.parallel.crowds import ParallelCrowdDriver

SEED = 42
W = 6


def _assert_same_series(trace_a, trace_b, names):
    """Every named per-sample series of two traces, bitwise."""
    with TraceReader(trace_a) as a, TraceReader(trace_b) as b:
        for name in names:
            np.testing.assert_array_equal(a.series(name), b.series(name))


def _pair(flavor="otf", n=16, nwalkers=W):
    """(fused driver, loop-oracle driver) on identical specs/seeds."""
    spec = JastrowSystemSpec(n=n, seed=7, aa_flavor=flavor)
    fused = BatchedCrowdDriver(spec, nwalkers, SEED)
    loop = BatchedCrowdDriver(spec, nwalkers, SEED)
    use_loop_sweep(loop)
    fused.move_log = []
    loop.move_log = []
    return fused, loop


@pytest.mark.parametrize("flavor", ["soa", "otf"])
class TestFusedSweepBitwise:
    """Fused pipeline vs the loop oracle: exact, not merely close."""

    def test_trajectory_bitwise(self, flavor):
        fused, loop = _pair(flavor)
        for _ in range(3):
            a = fused.sweep()
            b = loop.sweep()
            assert a == b
            assert np.array_equal(fused.last_sweep_accepts,
                                  loop.last_sweep_accepts)
            assert np.array_equal(fused.measure(), loop.measure())
        assert len(fused.move_log) == len(loop.move_log) == 3 * fused.n
        for x, y in zip(fused.move_log, loop.move_log):
            assert np.array_equal(x, y)
        assert np.array_equal(fused.batch.R, loop.batch.R)
        assert np.array_equal(fused.batch.Rsoa, loop.batch.Rsoa)
        assert fused.n_accept == loop.n_accept
        assert fused.n_moves == loop.n_moves

    def test_run_traces_bitwise(self, flavor, tmp_path):
        fused, loop = _pair(flavor)
        traces = [str(tmp_path / "fused.trace"), str(tmp_path / "loop.trace")]
        with StreamSet(trace_path=traces[0]) as streams:
            ra = fused.run(3, streams=streams)
        with StreamSet(trace_path=traces[1]) as streams:
            rb = loop.run(3, streams=streams)
        assert ra.energies == rb.energies
        assert ra.acceptance == rb.acceptance
        _assert_same_series(*traces, ra.online.names())

    def test_streamed_run_traces_bitwise(self, flavor, tmp_path):
        """Streaming observes, never perturbs: a run that writes the
        per-generation binary trace and feeds the online reblocker walks
        the trajectory of the in-memory run, and the file holds it."""
        spec = JastrowSystemSpec(n=16, seed=7, aa_flavor=flavor)
        plain = BatchedCrowdDriver(spec, W, SEED)
        streamed = BatchedCrowdDriver(spec, W, SEED)
        trace = str(tmp_path / "run.trace")
        with StreamSet(trace_path=trace) as streams:
            rb = streamed.run(4, streams=streams)
        ra = plain.run(4, streams=None)
        assert ra.energies == rb.energies
        assert ra.acceptance == rb.acceptance
        assert np.array_equal(plain.batch.R, streamed.batch.R)
        # The in-memory run's online statistics saw the samples the
        # file holds, bit for bit.
        assert ra.online.names() == rb.online.names()
        for name, state in ra.online.state_dict().items():
            other = rb.online.state_dict()[name]
            for key in state:
                assert np.array_equal(state[key], other[key]), (name, key)
        with TraceReader(trace) as reader:
            rows = list(reader.iter_rows())
        assert [step for step, _ in rows] == [1, 2, 3, 4]
        assert [float(np.mean(r["local_energy"])) for _, r in rows] \
            == rb.energies


class TestFusedSweepSurface:
    def test_workspace_is_reused_across_sweeps(self):
        fused, _ = _pair()
        ws = fused._plan.workspace
        chi0, uni0 = id(ws.chi_all), id(ws.uniforms)
        for _ in range(2):
            fused.sweep()
        assert id(fused._plan.workspace.chi_all) == chi0
        assert id(fused._plan.workspace.uniforms) == uni0

    def test_last_sweep_accepts_is_not_the_workspace_buffer(self):
        """The driver hands out a fresh (W,) array, never a view of the
        reused accumulator (callers keep references across sweeps)."""
        fused, _ = _pair()
        fused.sweep()
        first = fused.last_sweep_accepts
        fused.sweep()
        assert fused.last_sweep_accepts is not first
        assert first.base is not fused._plan.workspace.accepts

    def test_disabled_move_log_allocates_no_copies(self):
        """move_log=None (the default) must skip the per-move
        acc.copy() entirely — the plan carries the None through."""
        spec = JastrowSystemSpec(n=8, seed=7)
        drv = BatchedCrowdDriver(spec, 4, SEED)
        drv.sweep()
        assert drv._plan.move_log is None
        assert drv._plan.sanitizers is drv.sanitizers

    def test_workspace_fill_matches_stacked_draw_order(self):
        """fill() consumes each stream exactly as the pre-fusion
        np.stack comprehensions did."""
        from repro.batched.system import walker_streams
        n, nw, tau = 5, 3, 0.5
        a = walker_streams(9, nw)
        b = walker_streams(9, nw)
        ws = SweepWorkspace(nw, n)
        ws.fill(a, np.sqrt(tau))
        chi = np.stack([r.normal(scale=np.sqrt(tau), size=(n, 3))
                        for r in b])
        uni = np.stack([r.uniform(size=n) for r in b])
        assert np.array_equal(ws.chi_all, chi)
        assert np.array_equal(ws.uniforms, uni)


@settings(max_examples=60, deadline=None)
@given(
    w=st.sampled_from([1, 7, 32]),
    dtype=st.sampled_from([np.float64, np.float32]),
    scale=st.sampled_from([1e-3, 0.5, 5.0, 500.0]),  # straddles the cap
    tau=st.sampled_from([0.05, 0.5, 2.0]),
    seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
)
def test_limited_drift_bitwise_property(w, dtype, scale, tau, seed):
    """Workspace-buffered limited_drift == the loop oracle's, bit
    for bit, on both sides of the norm-cap branch (satellite: the
    fp32/fp64 x W in {1,7,32} hypothesis sweep)."""
    rng = np.random.default_rng(seed)
    g = rng.normal(scale=scale, size=(w, 3)).astype(dtype)
    want = loop_limited_drift(SimpleNamespace(tau=tau), g.copy())
    out = np.empty_like(g)
    got = limited_drift(tau, g.copy(), out=out)
    assert got is out
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    # and the allocation-per-call variant used where no buffer exists
    assert np.array_equal(limited_drift(tau, g.copy()), want)
    # the one cap both stacks read bounds every drift
    norm = np.linalg.norm(got.astype(np.float64), axis=1)
    assert np.all(norm <= DRIFT_CAP * np.sqrt(tau) * (1 + 1e-6))


class TestFusedCrowdSplit:
    """Crowd-split bitwise determinism under the fused sweep: the
    process-parallel driver at workers 0 and 2 produces identical
    traces (the fused path is the default path both run)."""

    @pytest.mark.parametrize("mode", ["vmc", "dmc"])
    def test_workers_0_vs_2_bitwise(self, mode, tmp_path):
        spec = JastrowSystemSpec(n=8, seed=7)
        results, traces = {}, {}
        for workers in (0, 2):
            traces[workers] = str(tmp_path / f"w{workers}.trace")
            drv = ParallelCrowdDriver(spec, 6, 11, workers=workers,
                                      timestep=0.3)
            with drv, StreamSet(trace_path=traces[workers]) as streams:
                results[workers] = drv.run(2, mode=mode, streams=streams)
        assert results[0].energies == results[2].energies
        assert results[0].acceptance == results[2].acceptance
        _assert_same_series(traces[0], traces[2], results[0].online.names())
