"""WalkerBatch container invariants: layout, padding, commit."""

import numpy as np
import pytest

from repro.batched import WalkerBatch
from repro.containers.aligned import CACHE_LINE_BYTES, padded_size


@pytest.fixture
def positions():
    rng = np.random.default_rng(3)
    return rng.uniform(0, 5, (6, 16, 3))


class TestLayout:
    def test_padded_and_aligned(self, positions):
        b = WalkerBatch.from_positions(positions)
        assert b.np == padded_size(16, b.dtype)
        assert b.Rsoa.shape == (6, 3, b.np)
        assert b.Rsoa.flags["C_CONTIGUOUS"]
        ptr = b.Rsoa.__array_interface__["data"][0]
        assert ptr % CACHE_LINE_BYTES == 0

    def test_padding_columns_zero(self, positions):
        b = WalkerBatch.from_positions(positions)
        if b.np > b.n:
            assert np.all(b.Rsoa[:, :, b.n:] == 0)

    def test_canonical_r_stays_double(self, positions):
        b = WalkerBatch.from_positions(positions)
        assert b.R.dtype == np.float64
        assert b.Rsoa.dtype == np.float64

    def test_soa_mirrors_r(self, positions):
        b = WalkerBatch.from_positions(positions)
        for w in range(6):
            assert np.array_equal(b.Rsoa[w, :, :16], positions[w].T)


class TestCommit:
    def test_commit_masks_walkers(self, positions):
        b = WalkerBatch.from_positions(positions)
        rnew = np.random.default_rng(4).uniform(0, 5, (6, 3))
        acc = np.array([True, False, True, True, False, False])
        before = b.R.copy()
        b.commit(2, rnew, acc)
        for w in range(6):
            if acc[w]:
                assert np.array_equal(b.R[w, 2], rnew[w])
                assert np.array_equal(b.Rsoa[w, :, 2], rnew[w])
            else:
                assert np.array_equal(b.R[w], before[w])
        # Untouched particles unchanged everywhere.
        mask = np.ones(16, dtype=bool)
        mask[2] = False
        assert np.array_equal(b.R[:, mask], before[:, mask])

    def test_commit_none_is_noop(self, positions):
        b = WalkerBatch.from_positions(positions)
        before = b.R.copy()
        b.commit(0, np.zeros((6, 3)), np.zeros(6, dtype=bool))
        assert np.array_equal(b.R, before)


class TestInterop:
    def test_validation(self):
        with pytest.raises(ValueError):
            WalkerBatch(0, 4)
        with pytest.raises(ValueError):
            WalkerBatch(2, 0)
        with pytest.raises(ValueError):
            WalkerBatch.from_positions(np.zeros((4, 3)))

    def test_repr_and_len(self, positions):
        b = WalkerBatch.from_positions(positions)
        assert len(b) == 6
        assert "nw=6" in repr(b)
        assert b.nbytes == b.Rsoa.nbytes
