"""Tests for the chunked binary trace pipeline (repro.output.stream).

Covers the format contract (roundtrip, CRC-per-chunk, schema-versioned
header, deterministic bytes), the resume path (byte-identical
continuation; refusal on damage), the corruption taxonomy (byte flip →
:class:`TraceCorruptionError` naming the chunk, mid-chunk truncation →
:class:`TraceTruncationError`, missing file → typed error), and the
:class:`StreamSet` bundle a driver records through.
"""

import os

import numpy as np
import pytest

from repro.output.stream import (StreamSet, TraceCorruptionError, TraceField,
                                 TracePosition, TraceReader, TraceSchemaError,
                                 TraceTruncationError, TraceWriter)

FIELDS = [TraceField("weight", "<f8"), TraceField("local_energy", "<f8")]


def _write_rows(path, rows, flush_every=1, meta=None, fields=FIELDS):
    """rows: list of (step, nw, seed) → deterministic payload."""
    with TraceWriter(path, fields, meta=meta or {"run": "t"},
                     flush_every=flush_every) as writer:
        for step, nw, seed in rows:
            rng = np.random.default_rng(seed)
            writer.append_row(step, {
                "weight": rng.uniform(0.5, 1.5, size=nw),
                "local_energy": rng.normal(size=nw)})
    return path


class TestRoundtrip:
    def test_rows_roundtrip_exact(self, tmp_path):
        path = str(tmp_path / "t.trace")
        spec = [(1, 4, 10), (2, 4, 11), (3, 4, 12)]
        _write_rows(path, spec)
        with TraceReader(path) as reader:
            assert reader.meta == {"run": "t"}
            assert [f.name for f in reader.fields] == ["weight",
                                                       "local_energy"]
            rows = list(reader.iter_rows())
        assert [step for step, _ in rows] == [1, 2, 3]
        for (step, nw, seed), (_, values) in zip(spec, rows):
            rng = np.random.default_rng(seed)
            assert np.array_equal(values["weight"],
                                  rng.uniform(0.5, 1.5, size=nw))
            assert np.array_equal(values["local_energy"],
                                  rng.normal(size=nw))

    def test_variable_walker_counts(self, tmp_path):
        """DMC populations fluctuate; rows carry their own nw."""
        path = str(tmp_path / "v.trace")
        _write_rows(path, [(1, 3, 0), (2, 7, 1), (3, 2, 2)])
        with TraceReader(path) as reader:
            rows = [values for _, values in reader.iter_rows()]
            concat = reader.read_concat("local_energy")
        assert [r["weight"].shape[0] for r in rows] == [3, 7, 2]
        assert concat.size == 12
        assert np.array_equal(
            concat, np.concatenate([r["local_energy"] for r in rows]))

    def test_array_valued_field(self, tmp_path):
        path = str(tmp_path / "a.trace")
        fields = FIELDS + [TraceField("components", "<f8", (3,))]
        with TraceWriter(path, fields) as writer:
            rng = np.random.default_rng(3)
            comp = rng.normal(size=(5, 3))
            writer.append_row(1, {"weight": np.ones(5),
                                  "local_energy": rng.normal(size=5),
                                  "components": comp})
        with TraceReader(path) as reader:
            (_, values), = reader.iter_rows()
        assert np.array_equal(values["components"], comp)

    def test_wrong_shape_rejected(self, tmp_path):
        with TraceWriter(str(tmp_path / "s.trace"), FIELDS) as writer:
            with pytest.raises(ValueError, match="shape"):
                writer.append_row(1, {"weight": np.ones(4),
                                      "local_energy": np.ones(5)})

    @pytest.mark.parametrize("flush_every,n_rows,n_chunks",
                             [(1, 5, 5), (2, 5, 3), (5, 5, 1), (3, 7, 3)])
    def test_chunk_cadence(self, tmp_path, flush_every, n_rows, n_chunks):
        path = str(tmp_path / "c.trace")
        _write_rows(path, [(s, 2, s) for s in range(1, n_rows + 1)],
                    flush_every=flush_every)
        with TraceReader(path) as reader:
            position = reader.validate()
        assert position.rows == n_rows
        assert position.chunks == n_chunks
        assert position.bytes == os.path.getsize(path)

    def test_equal_runs_byte_equal(self, tmp_path):
        """No wall-clock anywhere in the format: equal input, equal bytes."""
        spec = [(s, 3, s) for s in range(1, 7)]
        a = _write_rows(str(tmp_path / "a.trace"), spec, flush_every=2)
        b = _write_rows(str(tmp_path / "b.trace"), spec, flush_every=2)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_meta_key_order_irrelevant(self, tmp_path):
        a = _write_rows(str(tmp_path / "a.trace"), [(1, 2, 0)],
                        meta={"x": 1, "y": 2})
        b = _write_rows(str(tmp_path / "b.trace"), [(1, 2, 0)],
                        meta={"y": 2, "x": 1})
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_position_excludes_buffered_rows(self, tmp_path):
        writer = TraceWriter(str(tmp_path / "p.trace"), FIELDS,
                             flush_every=4)
        writer.append_row(1, {"weight": np.ones(2),
                              "local_energy": np.zeros(2)})
        assert writer.position.rows == 0
        writer.flush()
        assert writer.position.rows == 1
        writer.close()


class TestResume:
    SPEC = [(s, 3, 100 + s) for s in range(1, 11)]

    def _partial(self, path, upto):
        writer = TraceWriter(path, FIELDS, meta={"run": "t"})
        for step, nw, seed in self.SPEC[:upto]:
            rng = np.random.default_rng(seed)
            writer.append_row(step, {
                "weight": rng.uniform(0.5, 1.5, size=nw),
                "local_energy": rng.normal(size=nw)})
        writer.flush()
        position = writer.position
        writer.close()
        return position

    def test_resume_continues_byte_identical(self, tmp_path):
        full = _write_rows(str(tmp_path / "full.trace"), self.SPEC)
        path = str(tmp_path / "resumed.trace")
        position = self._partial(path, 6)
        with TraceWriter.resume(path, position) as writer:
            assert writer.meta == {"run": "t"}
            for step, nw, seed in self.SPEC[6:]:
                rng = np.random.default_rng(seed)
                writer.append_row(step, {
                    "weight": rng.uniform(0.5, 1.5, size=nw),
                    "local_energy": rng.normal(size=nw)})
        assert open(path, "rb").read() == open(full, "rb").read()

    def test_resume_discards_rows_past_position(self, tmp_path):
        """Generations after the last checkpoint are replayed: the resumed
        writer truncates them and the replay rewrites identical bytes."""
        full = _write_rows(str(tmp_path / "full.trace"), self.SPEC)
        path = str(tmp_path / "killed.trace")
        position_at_6 = self._partial(path, 6)
        # Simulate the killed run having written 2 more generations.
        with TraceWriter.resume(path, position_at_6) as writer:
            for step, nw, seed in self.SPEC[6:8]:
                rng = np.random.default_rng(seed)
                writer.append_row(step, {
                    "weight": rng.uniform(0.5, 1.5, size=nw),
                    "local_energy": rng.normal(size=nw)})
        with TraceWriter.resume(path, position_at_6) as writer:
            for step, nw, seed in self.SPEC[6:]:
                rng = np.random.default_rng(seed)
                writer.append_row(step, {
                    "weight": rng.uniform(0.5, 1.5, size=nw),
                    "local_energy": rng.normal(size=nw)})
        assert open(path, "rb").read() == open(full, "rb").read()

    def test_resume_refuses_position_beyond_file(self, tmp_path):
        path = str(tmp_path / "short.trace")
        position = self._partial(path, 4)
        beyond = TracePosition(rows=position.rows + 1,
                               chunks=position.chunks + 1,
                               bytes=position.bytes + 64)
        with pytest.raises(TraceTruncationError):
            TraceWriter.resume(path, beyond)

    def test_resume_refuses_corrupt_prefix(self, tmp_path):
        path = str(tmp_path / "corrupt.trace")
        position = self._partial(path, 5)
        with TraceReader(path) as reader:
            header_bytes = reader.header_bytes
        data = bytearray(open(path, "rb").read())
        data[header_bytes + 40] ^= 0xFF  # inside chunk 0's body
        open(path, "wb").write(bytes(data))
        with pytest.raises(TraceCorruptionError) as err:
            TraceWriter.resume(path, position)
        assert err.value.chunk_index == 0
        assert err.value.path == path


class TestCorruption:
    def _trace(self, tmp_path, flush_every=1):
        path = str(tmp_path / "x.trace")
        _write_rows(path, [(s, 4, s) for s in range(1, 6)],
                    flush_every=flush_every)
        with TraceReader(path) as reader:
            header_bytes = reader.header_bytes
        return path, header_bytes

    def test_byte_flip_names_chunk(self, tmp_path):
        path, header_bytes = self._trace(tmp_path)
        data = bytearray(open(path, "rb").read())
        # Flip a byte in the third chunk's payload region.
        chunk_bytes = (len(data) - header_bytes) // 5
        target = header_bytes + 2 * chunk_bytes + chunk_bytes // 2
        data[target] ^= 0x01
        open(path, "wb").write(bytes(data))
        with TraceReader(path) as reader:
            with pytest.raises(TraceCorruptionError) as err:
                reader.validate()
        assert err.value.chunk_index == 2
        assert "chunk 2" in str(err.value)
        assert err.value.path == path

    def test_mid_chunk_truncation(self, tmp_path):
        path, header_bytes = self._trace(tmp_path)
        size = os.path.getsize(path)
        chunk_bytes = (size - header_bytes) // 5
        with open(path, "r+b") as fh:
            fh.truncate(size - chunk_bytes // 2)  # cut into the last chunk
        with TraceReader(path) as reader:
            with pytest.raises(TraceTruncationError) as err:
                reader.validate()
        assert err.value.chunk_index == 4
        assert err.value.path == path

    def test_truncation_inside_chunk_header(self, tmp_path):
        path, header_bytes = self._trace(tmp_path)
        chunk_bytes = (os.path.getsize(path) - header_bytes) // 5
        with open(path, "r+b") as fh:
            fh.truncate(header_bytes + 3 * chunk_bytes + 5)
        with TraceReader(path) as reader:
            with pytest.raises(TraceTruncationError) as err:
                reader.validate()
        assert err.value.chunk_index == 3

    def test_clean_truncation_at_chunk_boundary_parses_prefix(self, tmp_path):
        """Losing whole trailing chunks is detectable only via the
        checkpointed position — the prefix itself stays valid."""
        path, header_bytes = self._trace(tmp_path)
        chunk_bytes = (os.path.getsize(path) - header_bytes) // 5
        with open(path, "r+b") as fh:
            fh.truncate(header_bytes + 3 * chunk_bytes)
        with TraceReader(path) as reader:
            position = reader.validate()
        assert position.rows == 3

    def test_header_crc_flip(self, tmp_path):
        path, header_bytes = self._trace(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[12] ^= 0xFF  # inside the JSON header
        open(path, "wb").write(bytes(data))
        with pytest.raises(TraceCorruptionError, match="header CRC"):
            TraceReader(path)

    def test_bad_magic(self, tmp_path):
        path, _ = self._trace(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[0] ^= 0xFF
        open(path, "wb").write(bytes(data))
        with pytest.raises(TraceSchemaError, match="magic"):
            TraceReader(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceTruncationError, match="missing"):
            TraceReader(str(tmp_path / "nope.trace"))

    def test_unsupported_version(self, tmp_path):
        path, _ = self._trace(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[4:6] = (99).to_bytes(2, "little")  # version field
        open(path, "wb").write(bytes(data))
        with pytest.raises(TraceSchemaError, match="version"):
            TraceReader(path)


class TestStreamSet:
    def test_online_only_without_trace(self):
        streams = StreamSet()
        rng = np.random.default_rng(1)
        for step in range(1, 5):
            streams.record(step, rng.normal(size=3))
        assert streams.writer is None
        assert streams.online.count("LocalEnergy") == 12
        assert streams.trace_position == TracePosition()

    def test_lazy_writer_sorts_components(self, tmp_path):
        path = str(tmp_path / "s.trace")
        streams = StreamSet(trace_path=path, meta={"mode": "vmc"})
        rng = np.random.default_rng(2)
        rows = []
        with streams:
            for step in range(1, 4):
                rows.append({"LocalEnergy": rng.normal(size=2),
                             "Kinetic": rng.normal(size=2),
                             "ElecElec": rng.normal(size=2)})
                streams.record(step, rows[-1]["LocalEnergy"], np.ones(2),
                               {"Kinetic": rows[-1]["Kinetic"],
                                "ElecElec": rows[-1]["ElecElec"]})
        assert streams.component_names == ("ElecElec", "Kinetic")
        with TraceReader(path) as reader:
            assert reader.meta["components"] == ["ElecElec", "Kinetic"]
            assert reader.meta["mode"] == "vmc"
            comp = reader.read_concat("components")
            # series(name): each estimator's samples in (step, walker)
            # order, the stream its online reblocker consumed
            for name in streams.online.names():
                assert np.array_equal(
                    reader.series(name),
                    np.concatenate([row[name] for row in rows]))
        assert comp.shape == (6, 2)
        assert streams.online.count("Kinetic") == 6

    def test_want_checkpoint_cadence(self, tmp_path):
        streams = StreamSet(checkpoint_path=str(tmp_path / "c.npz"),
                            checkpoint_every=4)
        assert [s for s in range(1, 13) if streams.want_checkpoint(s)] \
            == [4, 8, 12]
        assert not StreamSet(checkpoint_every=4).want_checkpoint(4)
        assert not StreamSet(
            checkpoint_path=str(tmp_path / "c.npz")).want_checkpoint(4)

    def test_resume_restores_online_and_trace(self, tmp_path):
        from repro.output.runstate import (RunCheckpoint,
                                           load_run_checkpoint,
                                           save_run_checkpoint)
        path = str(tmp_path / "r.trace")
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(10, 4))
        full = StreamSet(trace_path=str(tmp_path / "full.trace"))
        with full:
            for step in range(1, 11):
                full.record(step, samples[step - 1])
        streams = StreamSet(trace_path=path)
        for step in range(1, 7):
            streams.record(step, samples[step - 1])
        position = streams.trace_position
        ckpt = RunCheckpoint(kind="vmc", step=6,
                             online_state=streams.online.state_dict(),
                             trace_position=position.as_array())
        ckpt_path = str(tmp_path / "run.npz")
        save_run_checkpoint(ckpt_path, ckpt)
        streams.close()
        resumed = StreamSet.resume(load_run_checkpoint(ckpt_path),
                                   trace_path=path)
        with resumed:
            for step in range(7, 11):
                resumed.record(step, samples[step - 1])
        assert open(path, "rb").read() \
            == open(str(tmp_path / "full.trace"), "rb").read()
        assert resumed.online.estimate("LocalEnergy") \
            == full.online.estimate("LocalEnergy")

    def test_resume_refuses_corrupt_trace(self, tmp_path):
        from repro.output.runstate import RunCheckpoint
        path = str(tmp_path / "c.trace")
        streams = StreamSet(trace_path=path)
        for step in range(1, 6):
            streams.record(step, np.random.default_rng(step).normal(size=3))
        position = streams.trace_position
        streams.close()
        with TraceReader(path) as reader:
            header_bytes = reader.header_bytes
        data = bytearray(open(path, "rb").read())
        data[header_bytes + 30] ^= 0xFF
        open(path, "wb").write(bytes(data))
        ckpt = RunCheckpoint(kind="vmc", step=5,
                             trace_position=position.as_array())
        with pytest.raises(TraceCorruptionError):
            StreamSet.resume(ckpt, trace_path=path)
