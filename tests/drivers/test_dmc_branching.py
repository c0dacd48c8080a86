"""Tests for the comb (reconfiguration) branching and age control."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.system import QmcSystem
from repro.core.version import CodeVersion
from repro.drivers.dmc import DMCDriver
from repro.drivers.generation import DMCPolicy, resample
from repro.parallel.shm import SharedWalkerState
from repro.particles.walker import Walker


@pytest.fixture(scope="module")
def driver():
    sys_ = QmcSystem.from_workload("NiO-32", scale=0.125, seed=6,
                                   with_nlpp=False)
    parts = sys_.build(CodeVersion.CURRENT)
    return DMCDriver(parts.electrons, parts.twf, parts.ham,
                     np.random.default_rng(0), timestep=0.005)


class TestCombBranching:
    def test_population_exactly_constant(self, driver):
        res = driver.run(walkers=6, steps=6, branching="comb")
        assert res.populations == [6] * 6

    def test_comb_resamples_by_weight(self, driver):
        """A walker with overwhelming weight should dominate the comb."""
        heavy = Walker(4)
        heavy.weight = 100.0
        heavy.properties["tag"] = 1.0
        light = [Walker(4) for _ in range(5)]
        for w in light:
            w.weight = 0.01
        out = driver._branch_comb([heavy] + light, target=6)
        assert len(out) == 6
        tagged = sum(1 for w in out if w.properties.get("tag") == 1.0)
        assert tagged >= 5

    def test_comb_resets_weights(self, driver):
        pop = [Walker(4) for _ in range(4)]
        for i, w in enumerate(pop):
            w.weight = 0.5 + i
        out = driver._branch_comb(pop, target=4)
        assert all(w.weight == 1.0 for w in out)

    def test_comb_survives_zero_weights(self, driver):
        pop = [Walker(4) for _ in range(3)]
        for w in pop:
            w.weight = 0.0
        out = driver._branch_comb(pop, target=3)
        assert len(out) >= 1

    def test_clones_are_independent(self, driver):
        heavy = Walker(4)
        heavy.weight = 100.0
        out = driver._branch_comb([heavy], target=3)
        out[0].R[0, 0] = 42.0
        assert not any(np.allclose(w.R[0, 0], 42.0) for w in out[1:])

    @settings(max_examples=60, deadline=None)
    @given(weights=st.lists(st.one_of(st.just(0.0),
                                      st.floats(0.0, 50.0, allow_nan=False)),
                            min_size=1, max_size=9),
           ages=st.lists(st.integers(0, 9), min_size=9, max_size=9),
           seed=st.integers(0, 2 ** 31 - 1))
    def test_list_and_block_forms_comb_identically(self, driver, weights,
                                                   ages, seed):
        """The Walker-list comb and the walker-block comb are one policy:
        same picks and same age resets for the same weights and ``u0`` —
        the all-zero-weight guard included (it combs uniformly)."""
        nw = len(weights)
        pop = [Walker(2) for _ in range(nw)]
        block = SharedWalkerState(nw, 2)  # heap-backed
        for i, w in enumerate(pop):
            w.R[...] = block.R[i] = i  # tag each walker with its index
            w.weight = block.weight[i] = weights[i]
            w.age = block.age[i] = ages[i]
        driver.rng = np.random.default_rng(seed)
        u0 = np.random.default_rng(seed).uniform(0.0, 1.0 / nw)
        out = driver._branch_comb(pop, target=nw)
        resample(block, block.source,
                 *DMCPolicy.comb_picks(weights, nw, u0))
        assert [w.R[0, 0] for w in out] == list(block.R[:, 0, 0])
        assert [w.age for w in out] == list(block.age)
        assert all(w.weight == 1.0 for w in out)
        assert np.all(block.weight == 1.0)
        if sum(weights) == 0.0:
            assert list(block.R[:, 0, 0]) == list(range(nw))

    def test_unknown_branching_rejected(self, driver):
        with pytest.raises(ValueError):
            driver.run(walkers=2, steps=1, branching="minted")


class TestAgeControl:
    def test_old_walker_weight_damped(self, driver):
        """Weight cap kicks in for walkers past MAX_AGE."""
        # Exercised through the weight-cap arithmetic directly.
        w = Walker(4)
        w.age = driver.MAX_AGE + 1
        w.weight = 3.0
        # emulate the in-loop damping
        if w.age > driver.MAX_AGE:
            w.weight = min(w.weight, 0.5)
        assert w.weight == 0.5

    def test_age_resets_on_acceptance(self, driver):
        """Through a real run, ages stay small when moves accept."""
        res = driver.run(walkers=3, steps=3, branching="comb")
        # acceptance ~99% at this timestep, so no walker should be old
        assert res.acceptance > 0.9
