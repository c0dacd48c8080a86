"""Tests for full-run checkpoints (repro.output.runstate).

The checkpoint is the restart contract's substrate, so everything here
is about *exactness*: RNG generator states must continue the identical
bit stream, shared-memory arrays and walker populations must round-trip
bit-for-bit, online-stat states must rebuild equal estimators, and a
kill during the write must leave the previous checkpoint intact.
"""

import os

import numpy as np
import pytest

from repro.output.runstate import (RUNSTATE_VERSION, RunCheckpoint,
                                   load_run_checkpoint, restore_rng,
                                   rng_state, save_run_checkpoint)
from repro.output.stream import TracePosition
from repro.particles.walker import Walker
from repro.stats.online import OnlineScalarStats


class TestRngState:
    def test_restored_stream_continues_bitwise(self):
        rng = np.random.default_rng(7)
        rng.normal(size=100)  # advance
        state = rng_state(rng)
        ahead = rng.normal(size=50)
        fresh = np.random.default_rng(0)
        restore_rng(fresh, state)
        assert np.array_equal(fresh.normal(size=50), ahead)

    def test_state_is_json_round_trippable(self):
        import json
        rng = np.random.default_rng(8)
        rng.uniform(size=13)
        state = json.loads(json.dumps(rng_state(rng)))
        clone = np.random.default_rng(0)
        restore_rng(clone, state)
        assert np.array_equal(clone.uniform(size=20), rng.uniform(size=20))


class TestRoundTrip:
    def _checkpoint(self, rng):
        stats = OnlineScalarStats()
        stats.add_array("LocalEnergy", rng.normal(size=24),
                        rng.uniform(0.5, 1.5, size=24))
        gen = np.random.default_rng(5)
        gen.normal(size=37)
        return RunCheckpoint(
            kind="parallel", step=12,
            rng_states={"branch": rng_state(gen)},
            scalars={"accepted_total": 1234.0, "e_trial": -3.25},
            shared_state={"R": rng.normal(size=(6, 8, 3)),
                          "weight": rng.uniform(0.5, 2.0, size=6),
                          "age": rng.integers(0, 5, size=6)},
            online_state=stats.state_dict(),
            trace_position=TracePosition(rows=12, chunks=12,
                                         bytes=4096).as_array(),
            meta={"mode": "dmc", "nwalkers": 6, "seed": 11})

    def test_bit_exact_round_trip(self, rng, tmp_path):
        ckpt = self._checkpoint(rng)
        path = str(tmp_path / "run.npz")
        save_run_checkpoint(path, ckpt)
        back = load_run_checkpoint(path)
        assert back.kind == "parallel"
        assert back.step == 12
        assert back.path == path
        assert back.scalars == ckpt.scalars
        assert back.meta == ckpt.meta
        assert np.array_equal(back.trace_position, ckpt.trace_position)
        assert sorted(back.shared_state) == sorted(ckpt.shared_state)
        for name, arr in ckpt.shared_state.items():
            restored = back.shared_state[name]
            assert restored.dtype == np.asarray(arr).dtype
            assert np.array_equal(restored, arr)
        # The restored RNG state continues the identical bit stream.
        gen = np.random.default_rng(5)
        gen.normal(size=37)
        clone = np.random.default_rng(0)
        restore_rng(clone, back.rng_states["branch"])
        assert np.array_equal(clone.normal(size=20), gen.normal(size=20))

    def test_online_state_rebuilds_equal_estimates(self, rng, tmp_path):
        ckpt = self._checkpoint(rng)
        stats = OnlineScalarStats.from_state(ckpt.online_state)
        path = str(tmp_path / "run.npz")
        save_run_checkpoint(path, ckpt)
        back = load_run_checkpoint(path)
        rebuilt = OnlineScalarStats.from_state(back.online_state)
        assert rebuilt.names() == stats.names()
        assert rebuilt.estimate("LocalEnergy") \
            == stats.estimate("LocalEnergy")

    def test_walker_population_round_trip(self, rng, tmp_path):
        pop = []
        for i in range(4):
            w = Walker.from_positions(rng.normal(size=(5, 3)))
            w.weight = 0.75 + i
            w.age = i
            w.properties["local_energy"] = -2.0 * i
            pop.append(w)
        ckpt = RunCheckpoint(kind="vmc", step=3, walkers=pop,
                             rng_states={"w0": rng_state(
                                 np.random.default_rng(1))})
        path = str(tmp_path / "walkers.npz")
        save_run_checkpoint(path, ckpt)
        back = load_run_checkpoint(path)
        assert len(back.walkers) == 4
        for a, b in zip(pop, back.walkers):
            assert np.array_equal(a.R, b.R)
            assert a.weight == b.weight
            assert a.age == b.age
            assert a.properties == b.properties

    def test_walker_buffers_bit_exact(self, rng, tmp_path):
        pop = []
        for i in range(5):
            w = Walker.from_positions(rng.normal(size=(6, 3)))
            w.multiplicity = 1.0 + 0.5 * i
            w.buffer.register(rng.normal(size=10))
            w.buffer.seal()
            pop.append(w)
        path = str(tmp_path / "buffers.npz")
        save_run_checkpoint(path, RunCheckpoint(kind="dmc", step=2,
                                                walkers=pop))
        back = load_run_checkpoint(path).walkers
        for a, b in zip(pop, back):
            assert a.multiplicity == b.multiplicity
            assert b.buffer.dtype == np.float64
            assert np.array_equal(a.buffer.as_array(), b.buffer.as_array())

    def test_float32_walker_buffers(self, rng, tmp_path):
        w = Walker.from_positions(rng.normal(size=(3, 3)), dtype=np.float32)
        w.buffer.register(np.ones(4, dtype=np.float32))
        path = str(tmp_path / "c32.npz")
        save_run_checkpoint(path, RunCheckpoint(kind="vmc", step=1,
                                                walkers=[w]))
        (back,) = load_run_checkpoint(path).walkers
        assert back.buffer.dtype == np.float32
        assert np.array_equal(back.buffer.as_array(), w.buffer.as_array())

    @pytest.mark.parametrize("shapes", [[], [(3, 3), (4, 3)]],
                             ids=["empty", "ragged"])
    def test_population_validation(self, rng, tmp_path, shapes):
        pop = [Walker.from_positions(rng.normal(size=s)) for s in shapes]
        path = str(tmp_path / "x.npz")
        with pytest.raises(ValueError):
            save_run_checkpoint(path, RunCheckpoint(kind="vmc", step=1,
                                                    walkers=pop))
        assert not os.path.exists(path)

    def test_empty_optionals(self, tmp_path):
        ckpt = RunCheckpoint(kind="vmc", step=0)
        path = str(tmp_path / "empty.npz")
        save_run_checkpoint(path, ckpt)
        back = load_run_checkpoint(path)
        assert back.walkers is None
        assert back.shared_state is None
        assert back.online_state is None
        assert np.array_equal(back.trace_position,
                              TracePosition().as_array())


class TestDurability:
    def test_unsupported_version_rejected(self, rng, tmp_path):
        path = str(tmp_path / "v.npz")
        save_run_checkpoint(path, RunCheckpoint(kind="vmc", step=1))
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["version"] = np.int64(RUNSTATE_VERSION + 1)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_run_checkpoint(path)

    def test_write_is_atomic(self, rng, tmp_path, monkeypatch):
        """A crash mid-write must leave the previous checkpoint intact."""
        path = str(tmp_path / "run.npz")
        save_run_checkpoint(path, RunCheckpoint(kind="vmc", step=1))
        good = open(path, "rb").read()

        real_replace = os.replace

        def exploding_replace(src, dst):
            raise RuntimeError("killed during checkpoint")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(RuntimeError):
            save_run_checkpoint(path, RunCheckpoint(kind="vmc", step=2))
        monkeypatch.setattr(os, "replace", real_replace)
        assert open(path, "rb").read() == good
        assert load_run_checkpoint(path).step == 1

    def test_no_tmp_left_behind_on_success(self, tmp_path):
        path = str(tmp_path / "run.npz")
        save_run_checkpoint(path, RunCheckpoint(kind="vmc", step=1))
        assert os.listdir(tmp_path) == ["run.npz"]
