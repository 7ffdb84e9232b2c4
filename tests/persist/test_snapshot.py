"""Columnar snapshot round trips across every dtype, NULLs and segmenting."""

from __future__ import annotations

import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, LawsDatabase
from repro.db.schema import ColumnDef, Schema
from repro.db.table import Table
from repro.db.types import DataType
from repro.errors import PersistenceError, SnapshotReadError, SnapshotWriteError
from repro.persist.snapshot import (
    read_table_segments,
    schema_from_payload,
    schema_to_payload,
    write_table_segments,
)
from repro.resilience import FaultInjector, FaultSpec

ALL_TYPES = Schema(
    [
        ColumnDef("i", DataType.INT64),
        ColumnDef("f", DataType.FLOAT64),
        ColumnDef("s", DataType.STRING),
        ColumnDef("b", DataType.BOOL),
    ]
)


def roundtrip(tmp_path, table, rows_per_segment=65536):
    entries = write_table_segments(tmp_path, table, rows_per_segment=rows_per_segment)
    loaded = read_table_segments(tmp_path, table.name, table.schema, entries)
    return entries, loaded


def test_all_dtypes_with_nulls(tmp_path):
    table = Table.from_rows(
        "t",
        ALL_TYPES,
        [
            (1, 1.5, "alpha", True),
            (None, None, None, None),
            (-(2**60), float("inf"), "", False),
            (3, -0.0, "unicode: ünïcödé ✓", True),
            # Trailing NULs: numpy's fixed-width unicode strips them; the
            # snapshot pad must protect them through the round trip.
            (4, 2.5, "nul tail\x00", True),
            (5, 3.5, "\x00", False),
        ],
    )
    _, loaded = roundtrip(tmp_path, table)
    assert loaded.to_pydict() == table.to_pydict()
    assert loaded.schema == table.schema


def test_schema_payload_round_trip():
    payload = schema_to_payload(ALL_TYPES)
    assert schema_from_payload(payload) == ALL_TYPES


def test_empty_table_round_trip(tmp_path):
    table = Table.empty("empty", ALL_TYPES)
    entries, loaded = roundtrip(tmp_path, table)
    assert entries == []
    assert loaded.num_rows == 0
    assert loaded.schema == ALL_TYPES


def test_multi_segment_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    n = 1000
    table = Table.from_dict(
        "big",
        {
            "x": [int(v) for v in rng.integers(-100, 100, size=n)],
            "y": [float(v) for v in rng.standard_normal(n)],
        },
    )
    entries, loaded = roundtrip(tmp_path, table, rows_per_segment=128)
    assert len(entries) == 8  # ceil(1000 / 128)
    assert [e["rows"] for e in entries[:2]] == [128, 128]
    assert loaded.to_pydict() == table.to_pydict()


def test_segment_manifest_carries_column_stats(tmp_path):
    table = Table.from_dict("t", {"x": [1, 2, None, 4], "s": ["a", "b", "c", None]})
    entries, _ = roundtrip(tmp_path, table)
    stats = entries[0]["columns"]
    assert stats["x"] == {"null_count": 1, "min": 1, "max": 4}
    assert stats["s"] == {"null_count": 1, "min": "a", "max": "c"}


def test_missing_segment_file_raises(tmp_path):
    table = Table.from_dict("t", {"x": [1, 2, 3]})
    entries = write_table_segments(tmp_path, table)
    (tmp_path / entries[0]["file"]).unlink()
    with pytest.raises(PersistenceError, match="segment missing"):
        read_table_segments(tmp_path, "t", table.schema, entries)


def test_schema_mismatch_raises(tmp_path):
    table = Table.from_dict("t", {"x": [1, 2, 3]})
    entries = write_table_segments(tmp_path, table)
    wrong = Schema([ColumnDef("y", DataType.INT64)])
    with pytest.raises(PersistenceError, match="lacks column"):
        read_table_segments(tmp_path, "t", wrong, entries)


# ---------------------------------------------------------------------------
# The segment codec (format v2): narrowest integers, masks only where there
# is a NULL, deflate for strings only — and the v1 layout through the same
# reader.
# ---------------------------------------------------------------------------

INT64 = np.iinfo(np.int64)
#: Both sides of every storage width's limits, and of the type's own.
WIDTH_EDGES = sorted(
    {sign * 2**bits + step for bits in (7, 15, 31) for sign in (-1, 1) for step in (-2, -1, 0, 1)}
    | {0, INT64.min, INT64.min + 1, INT64.max - 1, INT64.max}
)
FLOAT_EDGES = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1.7976931348623157e308]

INTS = st.one_of(st.sampled_from(WIDTH_EDGES), st.integers(-100, 100), st.integers(INT64.min, INT64.max))
FLOATS = st.one_of(st.sampled_from(FLOAT_EDGES), st.floats(allow_nan=True, allow_infinity=True))
VALUES = {"i": INTS, "f": FLOATS, "s": st.text(max_size=12), "b": st.booleans()}


@st.composite
def tables_and_segment_sizes(draw):
    """A four-dtype table and a ``rows_per_segment``: lengths on and around the
    segment boundary (and empty), each column all valid, all NULL or mixed."""
    rows_per_segment = draw(st.integers(1, 6))
    n = draw(st.sampled_from([0, 1, rows_per_segment - 1, rows_per_segment, rows_per_segment + 1,
                              2 * rows_per_segment, 3 * rows_per_segment + 1]))
    data = {}
    for name, values in VALUES.items():
        nulls = draw(st.sampled_from(["none", "all", "some"]))
        element = {"none": values, "all": st.none(), "some": st.one_of(st.none(), values)}[nulls]
        data[name] = draw(st.lists(element, min_size=n, max_size=n))
    return Table.from_dict("t", data, ALL_TYPES), rows_per_segment


def _assert_same_table(loaded, table):
    """Logically equal, and physically: value and validity arrays bit for bit."""
    assert loaded.schema == table.schema
    assert loaded.to_pydict() == table.to_pydict()
    assert fingerprint_of(loaded) == fingerprint_of(table)
    for name in table.schema.names:
        got, want = loaded.column(name), table.column(name)
        assert got.validity.tolist() == want.validity.tolist()
        if want.dtype is DataType.STRING:
            assert got.values.tolist() == want.values.tolist()
        else:
            assert got.values.dtype == want.values.dtype
            assert got.values.tobytes() == want.values.tobytes()  # -0.0 and NaN payloads too


def fingerprint_of(table):
    database = Database()
    database.register_table(table)
    return database.fingerprint()


def _members(path):
    """``{member name: (dtype on disk, zip storage method)}`` of a segment
    file, read with ``zipfile`` and the public ``.npy`` header parser."""
    members = {}
    with zipfile.ZipFile(path) as archive:
        for info in archive.infolist():
            with archive.open(info) as member:
                assert np.lib.format.read_magic(member) == (1, 0)
                _, _, dtype = np.lib.format.read_array_header_1_0(member)
            members[info.filename] = (dtype, info.compress_type)
    return members


def _narrowest(values):
    """The width rule, restated: the first signed width that holds them all."""
    for bits in (8, 16, 32, 64):
        if all(-(2 ** (bits - 1)) <= v <= 2 ** (bits - 1) - 1 for v in values):
            return np.dtype(f"<i{bits // 8}")
    raise AssertionError(values)


@settings(max_examples=300, deadline=None)
@given(tables_and_segment_sizes())
def test_codec_round_trip_and_members_on_disk(drawn):
    table, rows_per_segment = drawn
    with tempfile.TemporaryDirectory() as scratch:
        entries, loaded = roundtrip(Path(scratch), table, rows_per_segment)
        _assert_same_table(loaded, table)
        assert [e["rows"] for e in entries] == [
            min(rows_per_segment, table.num_rows - start)
            for start in range(0, table.num_rows, rows_per_segment)
        ]
        for entry in entries:
            piece = table.slice(entry["start_row"], entry["start_row"] + entry["rows"])
            members = _members(Path(scratch) / entry["file"])
            expected = {}
            for name in piece.schema.names:
                column = piece.column(name)
                if not column.validity.all():
                    expected[f"m__{name}.npy"] = (np.dtype(bool), zipfile.ZIP_STORED)
            valid_ints = piece.column("i").values[piece.column("i").validity].tolist()
            expected["v__i.npy"] = (_narrowest(valid_ints), zipfile.ZIP_STORED)
            expected["v__f.npy"] = (np.dtype("<f8"), zipfile.ZIP_STORED)
            expected["v__b.npy"] = (np.dtype(bool), zipfile.ZIP_STORED)
            assert members.pop("v__s.npy")[1] == zipfile.ZIP_DEFLATED
            assert members == expected


@pytest.mark.parametrize(
    "low, high, width",
    [
        (-(2**7), 2**7 - 1, "<i1"), (-(2**7) - 1, 0, "<i2"), (0, 2**7, "<i2"),
        (-(2**15), 2**15 - 1, "<i2"), (-(2**15) - 1, 0, "<i4"), (0, 2**15, "<i4"),
        (-(2**31), 2**31 - 1, "<i4"), (-(2**31) - 1, 0, "<i8"), (0, 2**31, "<i8"),
        (INT64.min + 1, INT64.max, "<i8"),
        # INT64 min doubles as the NULL sentinel in memory; stored as a *value*
        # it simply keeps the segment at full width.
        (INT64.min, 0, "<i8"),
    ],
)
def test_integer_width_straddles(tmp_path, low, high, width):
    table = Table.from_dict("t", {"i": [low, None, high, 0]}, Schema([ColumnDef("i", DataType.INT64)]))
    entries, loaded = roundtrip(tmp_path, table)
    assert _members(tmp_path / entries[0]["file"])["v__i.npy"][0] == np.dtype(width)
    _assert_same_table(loaded, table)


def _write_v1(directory, table, rows_per_segment):
    """The parent's writer, as the reference: every column at its in-memory
    dtype with a mask, the lot through ``np.savez_compressed``."""
    entries = []
    for index, start in enumerate(range(0, table.num_rows, rows_per_segment)):
        piece = table.slice(start, min(start + rows_per_segment, table.num_rows))
        arrays = {}
        for name in piece.schema.names:
            column = piece.column(name)
            if column.dtype is DataType.STRING:
                values = np.asarray(
                    [("" if v is None else v) + "\x01" for v in column.values], dtype=np.str_
                )
            else:
                values = np.asarray(column.values, dtype=column.dtype.numpy_dtype)
            arrays[f"v__{name}"], arrays[f"m__{name}"] = values, np.asarray(column.validity)
        np.savez_compressed(directory / f"t__{index:05d}.npz", **arrays)
        entries.append({"file": f"t__{index:05d}.npz", "start_row": start, "rows": piece.num_rows})
    return entries


@settings(max_examples=100, deadline=None)
@given(tables_and_segment_sizes())
def test_v1_segments_read_through_the_same_reader(drawn):
    table, rows_per_segment = drawn
    with tempfile.TemporaryDirectory() as scratch:
        entries = _write_v1(Path(scratch), table, rows_per_segment)
        for entry in entries:
            members = _members(Path(scratch) / entry["file"])
            assert members["v__i.npy"] == (np.dtype("<i8"), zipfile.ZIP_DEFLATED)
            assert len(members) == 8
        _assert_same_table(read_table_segments(Path(scratch), "t", table.schema, entries), table)


def _small_ints_and_noise(n=300):
    rng = np.random.default_rng(3)
    return Table.from_dict(
        "t", {"g": rng.integers(0, 50, n).tolist(), "y": rng.standard_normal(n).tolist()}
    )


def _member_data_span(path, member):
    """Byte range of a stored member's data inside the segment file."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member)
    assert info.compress_type == zipfile.ZIP_STORED
    with open(path, "rb") as handle:
        handle.seek(info.header_offset + 26)
        name_length, extra_length = np.frombuffer(handle.read(4), dtype="<u2")
    start = info.header_offset + 30 + int(name_length) + int(extra_length)
    return start, start + info.file_size


def _flip_bit(path, offset):
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x10
    path.write_bytes(bytes(data))


def _truncate(path, size):
    path.write_bytes(path.read_bytes()[:size])


DAMAGE = {
    # A stored member has no deflate stream to trip over: the zip CRC-32 of
    # the member is the only thing standing between a flipped bit and a wrong
    # answer.  (Offset: well inside the float data, past the .npy header.)
    "flipped_bit": lambda path, span: _flip_bit(path, (span[0] + span[1]) // 2),
    "truncated": lambda path, span: _truncate(path, (span[0] + span[1]) // 2),
}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_stored_member_is_a_typed_read_error(tmp_path, damage):
    table = _small_ints_and_noise()
    entries = write_table_segments(tmp_path, table, rows_per_segment=100)
    victim = tmp_path / entries[1]["file"]
    DAMAGE[damage](victim, _member_data_span(victim, "v__y.npy"))
    with pytest.raises(SnapshotReadError, match=entries[1]["file"]):
        read_table_segments(tmp_path, "t", table.schema, entries)
    skipped = []
    partial = read_table_segments(
        tmp_path, "t", table.schema, entries,
        on_segment_error=lambda entry, path, exc: skipped.append(entry["file"]) or True,
    )
    assert skipped == [entries[1]["file"]]
    assert partial.to_pydict() == table.slice(0, 100).concat(table.slice(200, 300)).to_pydict()


@pytest.mark.parametrize("damage", sorted(DAMAGE))
def test_damaged_segment_quarantines_alone_at_open(tmp_path, damage):
    root = tmp_path / "store"
    table = _small_ints_and_noise()
    with LawsDatabase.open(root, rows_per_segment=100) as db:
        db.register_table(table)
        db.load_dict("other", {"k": [1, 2, 3]})
    victim = sorted((root / "segments").rglob("t__00001.npz"))[0]
    DAMAGE[damage](victim, _member_data_span(victim, "v__y.npy"))

    db = LawsDatabase.open(root, rows_per_segment=100)
    report = db.quarantine_report()
    assert report["count"] == 1 and report["by_artefact"] == {"snapshot-segment": 1}
    assert not victim.exists() and Path(report["records"][0]["quarantined_path"]).is_file()
    assert db.table("t").to_pydict() == table.slice(0, 100).concat(table.slice(200, 300)).to_pydict()
    assert db.table("other").to_pydict() == {"k": [1, 2, 3]}
    assert db.query("SELECT count(*) FROM other").table.to_pydict() == {"count(*)": [3]}
    db.close()


def test_segment_with_other_rows_than_its_entry_is_a_read_error(tmp_path):
    """Every member must be exactly the rows the manifest entry promised: a
    one-row member would otherwise broadcast over the whole range."""
    table = _small_ints_and_noise()
    entries = write_table_segments(tmp_path, table, rows_per_segment=100)
    one_row = write_table_segments(tmp_path, table.slice(0, 1), file_prefix="one")
    (tmp_path / one_row[0]["file"]).replace(tmp_path / entries[2]["file"])
    with pytest.raises(SnapshotReadError, match="manifest entry recorded"):
        read_table_segments(tmp_path, "t", table.schema, entries)


# ---------------------------------------------------------------------------
# One writer, deterministic bytes
# ---------------------------------------------------------------------------


def test_equal_rows_give_byte_equal_segment_files(tmp_path):
    table = Table.from_rows("t", ALL_TYPES, [(1, 1.5, "a", True), (None, None, None, None)] * 40)
    first = write_table_segments(tmp_path / "first", table, rows_per_segment=32)
    second = write_table_segments(tmp_path / "second", table, rows_per_segment=32)
    assert first == second and len(first) == 3
    for entry in first:
        assert (tmp_path / "first" / entry["file"]).read_bytes() == (
            tmp_path / "second" / entry["file"]
        ).read_bytes()


@pytest.mark.parametrize("fraction", [1.0, 0.5])
def test_torn_write_leaves_a_prefix_of_the_unfaulted_bytes(tmp_path, fraction):
    """The faulted arm goes through the same member writer as the plain one."""
    table = Table.from_rows("t", ALL_TYPES, [(1, 1.5, "a", True), (None, None, None, None)] * 40)
    entries = write_table_segments(tmp_path / "plain", table)
    plain = (tmp_path / "plain" / entries[0]["file"]).read_bytes()
    faults = FaultInjector([FaultSpec("persist.snapshot.write", "torn_write", fraction=fraction)])
    with pytest.raises(SnapshotWriteError):
        write_table_segments(tmp_path / "torn", table, faults=faults)
    torn = (tmp_path / "torn" / entries[0]["file"]).read_bytes()
    assert torn == plain[: int(len(plain) * fraction)]
    assert (len(torn) == len(plain)) == (fraction == 1.0)
