"""Atomic persistence and checksum framing (`repro.resil.atomic`)."""

from __future__ import annotations

import json

import pytest

from repro.resil.atomic import (
    MAGIC,
    TornPayloadError,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    frame_payload,
    is_framed,
    unframe_payload,
)


class TestFraming:
    def test_roundtrip(self):
        payload = b"hello \x00 world" * 100
        assert unframe_payload(frame_payload(payload)) == payload

    def test_empty_payload_roundtrip(self):
        assert unframe_payload(frame_payload(b"")) == b""

    def test_is_framed(self):
        assert is_framed(frame_payload(b"x"))
        assert not is_framed(b"raw pickle bytes")
        assert not is_framed(b"")

    def test_unframed_data_rejected(self):
        with pytest.raises(TornPayloadError):
            unframe_payload(b"not framed at all")

    def test_torn_body_detected(self):
        framed = frame_payload(b"a meaningful payload")
        with pytest.raises(TornPayloadError):
            unframe_payload(framed[: len(framed) // 2])

    def test_truncated_header_detected(self):
        framed = frame_payload(b"payload")
        with pytest.raises(TornPayloadError):
            unframe_payload(framed[: len(MAGIC) + 10])

    def test_corrupted_body_detected(self):
        framed = bytearray(frame_payload(b"payload bytes"))
        framed[-1] ^= 0xFF
        with pytest.raises(TornPayloadError):
            unframe_payload(bytes(framed))

    def test_magic_never_prefixes_pickle(self):
        import pickle

        blob = pickle.dumps({"k": 1}, protocol=pickle.HIGHEST_PROTOCOL)
        assert not is_framed(blob)


class TestAtomicWrites:
    def test_write_bytes_creates_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "entry.bin"
        atomic_write_bytes(target, b"content")
        assert target.read_bytes() == b"content"

    def test_write_replaces_existing(self, tmp_path):
        target = tmp_path / "entry.bin"
        atomic_write_bytes(target, b"old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"

    def test_no_temp_file_left_behind(self, tmp_path):
        target = tmp_path / "entry.bin"
        atomic_write_bytes(target, b"payload")
        assert [p.name for p in tmp_path.iterdir()] == ["entry.bin"]

    def test_write_text(self, tmp_path):
        target = tmp_path / "note.txt"
        atomic_write_text(target, "héllo")
        assert target.read_text(encoding="utf-8") == "héllo"

    def test_write_json(self, tmp_path):
        target = tmp_path / "bench.json"
        atomic_write_json(target, {"mean": 1.5, "runs": [1, 2]})
        assert json.loads(target.read_text()) == {"mean": 1.5, "runs": [1, 2]}
        assert target.read_text().endswith("\n")
