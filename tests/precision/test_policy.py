"""Tests for the precision policies."""

import numpy as np
import pytest

from repro.precision.policy import FULL, MIXED, PrecisionPolicy


class TestPolicies:
    def test_full(self):
        assert FULL.value_dtype == np.float64
        assert FULL.accum_dtype == np.float64
        assert not FULL.is_mixed

    def test_mixed(self):
        assert MIXED.value_dtype == np.float32
        assert MIXED.accum_dtype == np.float64
        assert MIXED.is_mixed
        assert MIXED.recompute_period > 0

    def test_recompute_schedule(self):
        p = PrecisionPolicy("t", np.float32, np.float64, recompute_period=4)
        fires = [g for g in range(1, 13) if p.should_recompute(g)]
        assert fires == [4, 8, 12]

    def test_never_recompute(self):
        assert not any(FULL.should_recompute(g) for g in range(1, 100))

    def test_generation_zero_never_fires(self):
        p = PrecisionPolicy("t", np.float32, np.float64, recompute_period=4)
        assert not p.should_recompute(0)

    def test_negative_period_rejected(self):
        with pytest.raises(ValueError):
            PrecisionPolicy("t", np.float32, np.float64,
                            recompute_period=-1)

    def test_accum_always_double(self):
        """The paper's invariant: ensemble quantities stay double."""
        for p in (FULL, MIXED):
            assert p.accum_dtype == np.float64
