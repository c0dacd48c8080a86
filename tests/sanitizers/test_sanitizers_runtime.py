"""Unit tests for the runtime determinism sanitizers."""

import numpy as np
import pytest

from repro.sanitizers import (
    RngStreamSanitizer, RngStreamError, ShmRaceSanitizer, ShmRaceError,
)


class TestShmRaceSanitizer:
    def test_unchanged_block_verifies(self):
        san = ShmRaceSanitizer()
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        san.seal("state/R", arr)
        san.verify("state/R", arr)  # silent

    def test_out_of_epoch_write_detected(self):
        san = ShmRaceSanitizer()
        arr = np.arange(12, dtype=np.float64).reshape(3, 4)
        san.seal("trace/local_energy", arr)
        arr[0, 2] += 1.0
        with pytest.raises(ShmRaceError, match="trace/local_energy"):
            san.verify("trace/local_energy", arr)

    def test_verify_pops_the_seal(self):
        san = ShmRaceSanitizer()
        arr = np.zeros(4)
        san.seal("x", arr)
        san.verify("x", arr)
        arr[0] = 99.0
        san.verify("x", arr)  # no seal held any more: no-op

    def test_unsealed_label_is_noop(self):
        ShmRaceSanitizer().verify("never/sealed", np.zeros(2))

    def test_release_and_clear(self):
        san = ShmRaceSanitizer()
        san.seal("a", np.zeros(2))
        san.seal("b", np.zeros(2))
        san.release("a")
        assert san.sealed == ["b"]
        san.clear()
        assert san.sealed == []

    def test_reseal_tracks_latest_contents(self):
        san = ShmRaceSanitizer()
        arr = np.zeros(4)
        san.seal("x", arr)
        san.verify("x", arr)
        arr[1] = 5.0  # sanctioned write between epochs
        san.seal("x", arr)
        san.verify("x", arr)


class TestRngStreamSanitizer:
    def test_armed_global_rng_raises(self):
        with RngStreamSanitizer():
            with pytest.raises(RngStreamError, match="np.random.normal"):
                np.random.normal()
            with pytest.raises(RngStreamError):
                np.random.seed(1)

    def test_generator_api_still_allowed(self):
        with RngStreamSanitizer():
            rng = np.random.default_rng(7)
            assert rng.normal() == np.random.default_rng(7).normal()

    def test_disarm_restores_originals(self):
        before = np.random.normal
        with RngStreamSanitizer():
            assert np.random.normal is not before
        assert np.random.normal is before

    def test_refcounted_nesting(self):
        before = np.random.rand
        RngStreamSanitizer.arm()
        RngStreamSanitizer.arm()
        RngStreamSanitizer.disarm()
        assert RngStreamSanitizer.armed()
        with pytest.raises(RngStreamError):
            np.random.rand(2)
        RngStreamSanitizer.disarm()
        assert not RngStreamSanitizer.armed()
        assert np.random.rand is before


