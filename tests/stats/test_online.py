"""Tests for the online reblocker (repro.stats.online).

The load-bearing claims:

* online results equal the offline Flyvbjerg-Petersen analysis
  (:func:`repro.stats.series.blocking_error`) to fp64 round-off — on
  synthetic correlated streams *and* on every tier-1 workload's actual
  VMC energy trace;
* the checkpoint contract: cutting a stream at arbitrary points, saving
  the state there with ``state_dict``, restoring it with ``from_state``
  and adding the rest is **bitwise** identical to serial streaming, for
  any number of cuts;
* ``state_dict``/``from_state`` round-trips bit-exactly;
* block-level variances match a naive recomputation from the raw
  samples.

Property-based randomization lives at the bottom, guarded by an
importorskip so the suite degrades gracefully without hypothesis.
"""

import math

import numpy as np
import pytest

from repro.stats.online import (BlockLevel, OnlineEstimate, OnlineReblocker,
                                OnlineScalarStats)
from repro.stats.series import blocking_error


def _ar1(n, phi=0.7, seed=0):
    rng = np.random.default_rng(seed)
    x = np.empty(n)
    x[0] = rng.normal()
    for i in range(1, n):
        x[i] = phi * x[i - 1] + rng.normal() * np.sqrt(1 - phi * phi)
    return x


def _offline_block_values(x, level):
    """Recursive pair-averaging, exactly as the offline analysis blocks."""
    b = np.asarray(x, dtype=np.float64)
    for _ in range(level):
        m = (b.size // 2) * 2
        b = 0.5 * (b[0:m:2] + b[1:m:2])
    return b


class TestOnlineVsOffline:
    def test_mean_bitwise(self):
        x = _ar1(1000)
        rb = OnlineReblocker()
        rb.add_many(x)
        # The fold is pairwise, not left-to-right, so compare to the
        # recursive pair-average (bitwise) and np.mean (round-off).
        assert rb.mean() == pytest.approx(float(np.mean(x)), rel=1e-13)

    @pytest.mark.parametrize("n", [64, 100, 1000, 4097])
    def test_error_matches_blocking_error(self, n):
        x = _ar1(n, seed=n)
        rb = OnlineReblocker()
        rb.add_many(x)
        offline = blocking_error(x)
        online = rb.error(min_blocks=8)
        assert online == pytest.approx(offline, rel=1e-12)

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_block_level_variance_matches_naive(self, level):
        x = _ar1(777, seed=4)
        rb = OnlineReblocker()
        rb.add_many(x)
        blocks = _offline_block_values(x, level)
        nb = blocks.size
        assert rb.n_blocks(level) == nb
        assert rb.variance(level) == pytest.approx(
            float(np.var(blocks[:nb], ddof=1)), rel=1e-10)
        assert rb.block_error(level) == pytest.approx(
            float(np.std(blocks[:nb], ddof=1) / np.sqrt(nb)), rel=1e-10)

    def test_node_means_bitwise_vs_pair_averaging(self):
        x = _ar1(256, seed=9)
        rb = OnlineReblocker()
        rb.add_many(x)
        # 256 = 2**8: a single node whose mean is the full recursion.
        assert len(rb._nodes) == 1
        assert rb._nodes[0].mean == float(_offline_block_values(x, 8)[0])

    def test_tau_white_noise_near_one(self):
        x = np.random.default_rng(5).normal(size=4096)
        rb = OnlineReblocker()
        rb.add_many(x)
        assert rb.tau() < 1.7

    def test_tau_correlated_grows(self):
        x = _ar1(8192, phi=0.8, seed=6)
        rb = OnlineReblocker()
        rb.add_many(x)
        assert rb.tau() > 3.0

    def test_plateau_converged_flag(self):
        x = np.random.default_rng(7).normal(size=8192)
        rb = OnlineReblocker()
        rb.add_many(x)
        level, converged = rb.plateau()
        assert converged  # white noise plateaus immediately
        est = rb.estimate()
        assert isinstance(est, OnlineEstimate)
        assert est.plateau_level == level

    def test_levels_report(self):
        x = _ar1(512, seed=8)
        rb = OnlineReblocker()
        rb.add_many(x)
        levels = rb.levels(min_blocks=8)
        assert [lv.level for lv in levels] == list(range(len(levels)))
        for lv in levels:
            assert isinstance(lv, BlockLevel)
            assert lv.block_size == 1 << lv.level
            assert lv.error == pytest.approx(
                math.sqrt(lv.variance / lv.n_blocks))

    def test_weighted_mean(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=300)
        w = rng.uniform(0.5, 2.0, size=300)
        rb = OnlineReblocker()
        rb.add_many(x, w)
        assert rb.weighted_mean() == pytest.approx(
            float(np.sum(w * x) / np.sum(w)), rel=1e-13)


def _resumed_at(x, cuts):
    """A reblocker fed ``x`` with a ``state_dict -> from_state`` round
    trip at every cut — a run checkpointed and resumed there."""
    rb = OnlineReblocker()
    prev = 0
    for cut in list(cuts) + [len(x)]:
        rb = OnlineReblocker.from_state(rb.state_dict())
        rb.add_many(x[prev:cut])
        prev = cut
    return rb


def _states_equal(a, b):
    sa, sb = a.state_dict(), b.state_dict()
    assert sorted(sa) == sorted(sb)
    for key in sa:
        assert np.array_equal(sa[key], sb[key]), key


class TestResumeAtAnySplit:
    @pytest.mark.parametrize("splits", [(1,), (7,), (64,), (100,),
                                        (3, 77), (32, 64, 96)])
    def test_resume_bitwise_at_fixed_splits(self, splits):
        x = _ar1(130, seed=11)
        serial = OnlineReblocker()
        serial.add_many(x)
        resumed = _resumed_at(x, splits)
        _states_equal(serial, resumed)
        assert resumed.estimate() == serial.estimate()

    def test_resume_random_partitions_bitwise(self):
        x = _ar1(257, seed=12)
        serial = OnlineReblocker()
        serial.add_many(x)
        rng = np.random.default_rng(13)
        for _ in range(20):
            k = int(rng.integers(1, 9))
            cuts = sorted(rng.choice(np.arange(1, x.size), size=k,
                                     replace=False).tolist())
            _states_equal(serial, _resumed_at(x, cuts))


class TestStateRoundTrip:
    @pytest.mark.parametrize("n", [0, 1, 2, 63, 64, 100])
    def test_round_trip_bitwise(self, n):
        x = _ar1(max(n, 1), seed=15)[:n]
        rb = OnlineReblocker()
        rb.add_many(x)
        clone = OnlineReblocker.from_state(rb.state_dict())
        assert clone.count == rb.count
        sa, sb = rb.state_dict(), clone.state_dict()
        for key in sa:
            assert np.array_equal(sa[key], sb[key]), key
        if n >= 2:
            assert clone.estimate() == rb.estimate()

    def test_round_trip_then_continue(self):
        x = _ar1(100, seed=16)
        serial = OnlineReblocker()
        serial.add_many(x)
        half = OnlineReblocker()
        half.add_many(x[:57])
        resumed = OnlineReblocker.from_state(half.state_dict())
        resumed.add_many(x[57:])
        sa, sb = serial.state_dict(), resumed.state_dict()
        for key in sa:
            assert np.array_equal(sa[key], sb[key]), key

    def test_bad_version_rejected(self):
        rb = OnlineReblocker()
        rb.add(1.0)
        state = rb.state_dict()
        state["version"] = np.int64(99)
        with pytest.raises(ValueError, match="version"):
            OnlineReblocker.from_state(state)


class TestOnlineScalarStats:
    def test_names_sorted_and_counts(self):
        stats = OnlineScalarStats()
        stats.add_array("Kinetic", [1.0, 2.0])
        stats.add_array("ElecElec", [3.0])
        assert stats.names() == ["ElecElec", "Kinetic"]
        assert stats.count("Kinetic") == 2
        assert stats.count("missing") == 0

    def test_state_round_trip(self):
        stats = OnlineScalarStats()
        rng = np.random.default_rng(17)
        for _ in range(13):
            stats.add_array("LocalEnergy", rng.normal(size=4),
                            rng.uniform(0.5, 1.5, size=4))
        clone = OnlineScalarStats.from_state(stats.state_dict())
        assert clone.names() == stats.names()
        assert clone.estimate("LocalEnergy") == stats.estimate("LocalEnergy")

    def test_report_lists_every_name(self):
        stats = OnlineScalarStats()
        stats.add_array("A", np.arange(16.0))
        stats.add_array("B", np.arange(16.0) * 2)
        text = stats.report()
        assert "A" in text and "B" in text


class TestTier1WorkloadParity:
    """Online == offline on every tier-1 workload's actual energy trace."""

    @pytest.mark.parametrize("workload", ["Graphite", "Be-64",
                                          "NiO-32", "NiO-64"])
    def test_vmc_online_matches_offline(self, workload, tmp_path):
        from repro.core.system import QmcSystem
        from repro.core.version import CodeVersion
        from repro.drivers.vmc import VMCDriver
        from repro.output.stream import StreamSet, TraceReader
        sys_ = QmcSystem.from_workload(workload, scale=0.125, seed=6,
                                       with_nlpp=False)
        parts = sys_.build(CodeVersion.CURRENT)
        drv = VMCDriver(parts.electrons, parts.twf, parts.ham,
                        np.random.default_rng(99), timestep=0.3)
        trace = str(tmp_path / "trace.bin")
        streams = StreamSet(trace_path=trace, meta={"workload": workload})
        with streams:
            res = drv.run(walkers=3, steps=24, streams=streams)
        reader = TraceReader(trace)
        el = reader.read_concat("local_energy")
        reader.close()
        est = res.online.estimate("LocalEnergy")
        assert est.n == el.size == 3 * 24
        assert est.mean == pytest.approx(float(np.mean(el)), rel=1e-13)
        assert est.error == pytest.approx(blocking_error(el), rel=1e-12)
        assert est.naive_error == pytest.approx(
            float(np.std(el, ddof=1) / np.sqrt(el.size)), rel=1e-12)

    def test_dmc_online_matches_offline(self, tmp_path):
        from repro.core.system import QmcSystem
        from repro.core.version import CodeVersion
        from repro.drivers.dmc import DMCDriver
        from repro.output.stream import StreamSet, TraceReader
        sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=6,
                                       with_nlpp=False)
        parts = sys_.build(CodeVersion.CURRENT)
        drv = DMCDriver(parts.electrons, parts.twf, parts.ham,
                        np.random.default_rng(99), timestep=0.02)
        trace = str(tmp_path / "trace.bin")
        streams = StreamSet(trace_path=trace, meta={"workload": "NiO-32"})
        with streams:
            res = drv.run(walkers=4, steps=12, streams=streams)
        reader = TraceReader(trace)
        el = reader.read_concat("local_energy")
        wt = reader.read_concat("weight")
        reader.close()
        est = res.online.estimate("LocalEnergy")
        assert est.n == el.size
        assert est.mean == pytest.approx(float(np.mean(el)), rel=1e-13)
        assert est.weighted_mean == pytest.approx(
            float(np.sum(wt * el) / np.sum(wt)), rel=1e-12)
        assert est.error == pytest.approx(blocking_error(el), rel=1e-12)


# ----------------------------------------------------------------------
# Property-based randomization (optional dependency)
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def _stream_and_cuts(draw, max_n=260):
    n = draw(st.integers(min_value=2, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    k = draw(st.integers(min_value=0, max_value=min(6, n - 1)))
    cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1),
                               min_size=k, max_size=k)))
    return n, seed, cuts


class TestProperties:
    @given(_stream_and_cuts())
    @settings(max_examples=60, deadline=None)
    def test_chunked_resume_bitwise_equals_serial(self, case):
        n, seed, cuts = case
        x = np.random.default_rng(seed).normal(size=n)
        serial = OnlineReblocker()
        serial.add_many(x)
        _states_equal(serial, _resumed_at(x, cuts))

    @given(st.integers(min_value=16, max_value=300),
           st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_block_variances_match_naive(self, n, seed, level):
        x = np.random.default_rng(seed).normal(size=n)
        rb = OnlineReblocker()
        rb.add_many(x)
        blocks = _offline_block_values(x, level)
        if blocks.size < 2:
            return
        assert rb.n_blocks(level) == blocks.size
        naive = float(np.var(blocks, ddof=1))
        got = rb.variance(level)
        assert got == pytest.approx(naive, rel=1e-9, abs=1e-12)

    @given(st.integers(min_value=3, max_value=200),
           st.integers(min_value=0, max_value=2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_error_matches_offline_blocking(self, n, seed):
        x = np.random.default_rng(seed).normal(size=n)
        rb = OnlineReblocker()
        rb.add_many(x)
        offline = blocking_error(x)
        online = rb.error(min_blocks=8)
        if math.isnan(offline):
            assert math.isnan(online) or online >= 0.0
        else:
            assert online == pytest.approx(offline, rel=1e-12)
