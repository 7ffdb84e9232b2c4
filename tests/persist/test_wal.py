"""WAL framing, checksum verification and torn-tail truncation."""

from __future__ import annotations

import json
import struct
import zlib

import pytest

from repro.errors import PersistenceError
from repro.persist.wal import BODY_KEY, WriteAheadLog


@pytest.fixture
def wal(tmp_path):
    return WriteAheadLog(tmp_path / "wal.log")


def test_records_round_trip(wal):
    wal.reset(epoch=7)
    records = [
        {"op": "append", "table": "t", "rows": [[1, 2.5, "x", None]]},
        {"op": "append", "table": "t", "rows": [[2, float("nan"), "y", True]]},
        {"op": "create_table", "name": "u", "schema": [["a", "int64", True]]},
        {"op": "append", BODY_KEY: b"\x00\xffrows\x00", "name": "u", "row_count": 1},
    ]
    for record in records:
        wal.append(record)
    logged = wal.path.read_bytes()
    replay = wal.replay()
    assert replay.epoch == 7
    assert not replay.was_truncated
    assert len(replay.records) == len(records)
    assert replay.records[0] == records[0]
    assert replay.records[2:] == records[2:]
    # NaN survives the JSON round trip (non-strict mode)
    value = replay.records[1]["rows"][0][1]
    assert value != value
    # A record without a body is its compact JSON; one with a body is that
    # JSON header, a NUL and the body.  A replayed record frames as it did.
    payloads = [
        json.dumps(records[0], separators=(",", ":")).encode(),
        b'{"op":"append","name":"u","row_count":1}\x00\x00\xffrows\x00',
    ]
    for payload in payloads:
        assert struct.pack("<II", len(payload), zlib.crc32(payload)) + payload in logged
    wal.reset(epoch=7)
    for record in replay.records:
        wal.append(record)
    assert wal.path.read_bytes() == logged


def test_empty_log_replays_empty(wal):
    replay = wal.replay()
    assert replay.records == []
    assert replay.epoch == 0
    assert not replay.was_truncated


def test_torn_header_is_truncated(wal):
    wal.reset(epoch=1)
    wal.append({"op": "append", "table": "t", "rows": [[1]]})
    wal.close()
    with open(wal.path, "ab") as handle:
        handle.write(b"\x05\x00")  # half a frame header
    replay = wal.replay()
    assert len(replay.records) == 1
    assert replay.was_truncated
    assert replay.truncation_reason == "torn frame header"
    # The replay physically removed the tail: a fresh replay is clean.
    again = wal.replay()
    assert not again.was_truncated
    assert len(again.records) == 1


def test_torn_payload_is_truncated(wal):
    wal.reset(epoch=1)
    wal.append({"op": "append", "table": "t", "rows": [[1]]})
    size_before = wal.size_bytes
    wal.append({"op": "append", "table": "t", "rows": [[2]]})
    wal.close()
    # Chop the last record's payload mid-way (simulated crash mid-write).
    with open(wal.path, "r+b") as handle:
        handle.truncate(size_before + 10)
    replay = wal.replay()
    assert len(replay.records) == 1
    assert replay.records[0]["rows"] == [[1]]
    assert replay.truncation_reason == "torn frame payload"


def test_corrupted_checksum_drops_tail(wal):
    wal.reset(epoch=1)
    offsets = []
    for i in range(4):
        offsets.append(wal.append({"op": "append", "table": "t", "rows": [[i]]}))
    wal.close()
    # Flip one payload byte inside the third record.
    data = bytearray(wal.path.read_bytes())
    data[offsets[1] + 12] ^= 0xFF
    wal.path.write_bytes(bytes(data))
    replay = wal.replay()
    # Records after the corruption are untrusted and dropped with it.
    assert [r["rows"] for r in replay.records] == [[[0]], [[1]]]
    assert replay.truncation_reason == "frame checksum mismatch"


def test_implausible_length_stops_replay(wal):
    wal.reset(epoch=1)
    wal.append({"op": "append", "table": "t", "rows": [[1]]})
    wal.close()
    with open(wal.path, "ab") as handle:
        handle.write(struct.pack("<II", 2**31, 0) + b"garbage")
    replay = wal.replay()
    assert len(replay.records) == 1
    assert "implausible" in replay.truncation_reason


def test_reset_truncates_and_stamps_epoch(wal):
    wal.reset(epoch=1)
    for i in range(5):
        wal.append({"op": "append", "table": "t", "rows": [[i]]})
    wal.reset(epoch=2)
    replay = wal.replay()
    assert replay.epoch == 2
    assert replay.records == []


def test_oversized_record_is_refused(wal):
    wal.reset(epoch=1)
    huge = {"op": "append", "table": "t", "rows": [["x" * (300 * 1024 * 1024)]]}
    with pytest.raises(PersistenceError):
        wal.append(huge)
