"""Binary columnar frame codec: goldens, round-trips, hostile inputs.

Three layers of defense for the wire tier added beside JSON:

* golden byte fixtures (``tests/golden/frame_*.bin``) freeze the exact
  encoder output — any byte-level drift fails loudly (regenerate with
  ``REPRO_REGEN_GOLDEN=1`` and review the diff);
* round-trip fuzz covers the value-space corners: NaN vs None, empty
  tables, non-ASCII and NUL-bearing strings, zero-length categories;
* hostile-input tests drive truncated/corrupted/oversized frames through
  the decoder and the live HTTP gateway — every one must fail with a
  clean :class:`FrameError` (HTTP 400) or :class:`FrameSizeError`
  (HTTP 413), never a crash or an allocation proportional to a declared
  (attacker-controlled) length.
"""

from __future__ import annotations

import http.client
import json
import os
import struct
from pathlib import Path

import numpy as np
import pytest

from repro.api import framing
from repro.api.framing import (
    FRAME_CONTENT_TYPE,
    FrameFileWriter,
    decode_frame,
    encode_frame,
    frame_length,
    iter_frames,
    open_frame_file,
    report_from_frame,
    report_to_frame,
)
from repro.data.schema import ColumnKind, ColumnSpec, TableSchema
from repro.data.table import Table
from repro.exceptions import FrameError, FrameSizeError, SchemaError

GOLDEN_DIR = Path(__file__).parent / "golden"

BREAKAGE_HINT = (
    "\n\nThe frame byte layout for {name!r} changed. The binary codec is "
    "frozen under FRAME_VERSION {version}; if the change is deliberate, bump "
    "FRAME_VERSION, regenerate (REPRO_REGEN_GOLDEN=1), and review the diff."
)


def sample_schema() -> TableSchema:
    return TableSchema(
        [
            ColumnSpec("age", ColumnKind.NUMERIC),
            ColumnSpec("score", ColumnKind.NUMERIC),
            ColumnSpec("city", ColumnKind.CATEGORICAL, categories=("paris", "lyon")),
        ]
    )


def sample_table() -> Table:
    return Table(
        sample_schema(),
        {
            "age": np.array([1.0, np.nan, 3.5, -0.0, 1e300], dtype=np.float64),
            "score": np.array([0.25, 0.5, np.nan, 2.0, -7.0], dtype=np.float64),
            "city": np.array(["paris", None, "lyon", "", "paris"], dtype=object),
        },
    )


def sample_report():
    from repro.core.validator import ValidationReport

    return ValidationReport(
        sample_errors=np.array([0.5, 3.0, 0.25, 0.125], dtype=np.float64),
        cell_errors=np.array(
            [[0.25, 0.25], [5.0, 1.0], [0.125, 0.125], [0.0625, 0.0625]],
            dtype=np.float64,
        ),
        row_flags=np.array([False, True, False, False]),
        cell_flags=np.array(
            [[False, False], [True, False], [False, False], [False, False]]
        ),
        threshold=1.5,
        flagged_fraction=0.25,
        is_problematic=True,
        feature_names=["a", "b"],
    )


def build_golden_cases() -> dict[str, bytes]:
    return {
        "frame_table": encode_frame(table=sample_table()),
        "frame_table_extra": encode_frame(
            table=sample_table(),
            extra={"kind": "validate_request", "include_errors": True},
        ),
        "frame_report_dense": report_to_frame(sample_report(), errors="dense"),
        "frame_report_sparse": report_to_frame(sample_report(), errors="sparse"),
        "frame_empty": encode_frame(extra={"ping": 1}),
    }


GOLDEN_CASES = build_golden_cases()


@pytest.fixture(scope="module", autouse=True)
def regenerate_if_requested():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        for name, payload in GOLDEN_CASES.items():
            (GOLDEN_DIR / f"{name}.bin").write_bytes(payload)


class TestGoldenBytes:
    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_encoding_matches_golden(self, name):
        golden_path = GOLDEN_DIR / f"{name}.bin"
        assert golden_path.exists(), (
            f"missing golden fixture {golden_path}; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        assert GOLDEN_CASES[name] == golden_path.read_bytes(), BREAKAGE_HINT.format(
            name=name, version=framing.FRAME_VERSION
        )

    @pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
    def test_golden_bytes_decode(self, name):
        frame = decode_frame((GOLDEN_DIR / f"{name}.bin").read_bytes())
        if name.startswith("frame_report"):
            report = report_from_frame(frame)
            assert report.threshold == 1.5
            np.testing.assert_array_equal(
                report.row_flags, sample_report().row_flags
            )

    def test_encoding_is_deterministic(self):
        assert encode_frame(table=sample_table()) == encode_frame(table=sample_table())

    def test_frame_length_is_8_aligned(self):
        for name, payload in GOLDEN_CASES.items():
            assert frame_length(payload) == len(payload), name
            assert len(payload) % 8 == 0, name


class TestRoundTrip:
    def assert_tables_equal(self, decoded: Table, original: Table):
        assert decoded.schema == original.schema
        assert decoded.n_rows == original.n_rows
        for spec in original.schema:
            a, b = decoded.column(spec.name), original.column(spec.name)
            if spec.is_numeric:
                # NaN-aware AND bit-exact (signed zero, payload bits).
                np.testing.assert_array_equal(
                    np.asarray(a).view(np.uint64), np.asarray(b).view(np.uint64)
                )
            else:
                assert list(a) == list(b)

    def test_basic_round_trip(self):
        table = sample_table()
        frame = decode_frame(encode_frame(table=table), schema=table.schema)
        self.assert_tables_equal(frame.table, table)

    def test_missing_structure_matches_json_tier(self):
        table = sample_table()
        via_frame = decode_frame(encode_frame(table=table), schema=table.schema).table
        via_json = Table.from_records(
            table.schema, json.loads(json.dumps(table.to_records()))
        )
        np.testing.assert_array_equal(via_frame.missing_mask(), via_json.missing_mask())
        np.testing.assert_array_equal(via_frame.missing_mask(), table.missing_mask())

    def test_empty_table(self):
        table = Table(sample_schema(), {"age": [], "score": [], "city": []})
        frame = decode_frame(encode_frame(table=table), schema=table.schema)
        assert frame.table.n_rows == 0

    def test_no_table(self):
        frame = decode_frame(encode_frame(extra={"hello": [1, 2]}))
        assert frame.table is None and frame.extra == {"hello": [1, 2]}

    def test_non_ascii_and_nul_strings(self):
        schema = TableSchema([ColumnSpec("s", ColumnKind.CATEGORICAL)])
        values = ["héllo", "näïve", "日本語", "emoji 🎉", "nul\x00inside", "", None, "Ω"]
        table = Table(schema, {"s": np.array(values, dtype=object)})
        frame = decode_frame(encode_frame(table=table), schema=schema)
        assert list(frame.table.column("s")) == values

    def test_fuzz_round_trip(self):
        rng = np.random.default_rng(7)
        alphabet = ["a", "βγ", "日本", "x" * 50, "", "\x00", "🎉"]
        for trial in range(25):
            n = int(rng.integers(0, 40))
            numeric = rng.normal(size=n)
            numeric[rng.random(n) < 0.3] = np.nan
            strings = np.array(
                [
                    None if rng.random() < 0.25 else "".join(
                        rng.choice(alphabet, size=rng.integers(0, 4))
                    )
                    for _ in range(n)
                ],
                dtype=object,
            )
            schema = TableSchema(
                [ColumnSpec("n", ColumnKind.NUMERIC), ColumnSpec("s", ColumnKind.CATEGORICAL)]
            )
            table = Table(schema, {"n": numeric, "s": strings})
            frame = decode_frame(encode_frame(table=table), schema=schema)
            self.assert_tables_equal(frame.table, table)

    def test_arrays_round_trip(self):
        arrays = {
            "f": np.arange(12, dtype=np.float64).reshape(3, 4),
            "flags": np.array([True, False, True]),
            "i": np.array([-5, 0, 5], dtype=np.int64),
        }
        frame = decode_frame(encode_frame(arrays=arrays))
        for name, expected in arrays.items():
            np.testing.assert_array_equal(frame.arrays[name], expected)
            assert frame.arrays[name].dtype == expected.dtype

    @pytest.mark.parametrize("errors", ["dense", "sparse", "none"])
    def test_report_round_trip(self, errors):
        report = sample_report()
        decoded = report_from_frame(decode_frame(report_to_frame(report, errors=errors)))
        np.testing.assert_array_equal(decoded.row_flags, report.row_flags)
        np.testing.assert_array_equal(decoded.cell_flags, report.cell_flags)
        assert decoded.threshold == report.threshold
        assert decoded.is_problematic == report.is_problematic
        assert decoded.feature_names == report.feature_names
        if errors == "dense":
            np.testing.assert_array_equal(decoded.cell_errors, report.cell_errors)
            np.testing.assert_array_equal(decoded.sample_errors, report.sample_errors)
        elif errors == "sparse":
            np.testing.assert_array_equal(
                decoded.sample_errors[report.row_flags],
                report.sample_errors[report.row_flags],
            )

    def test_schema_pinning_rejects_mismatches(self):
        table = sample_table()
        payload = encode_frame(table=table)
        other = TableSchema(
            [ColumnSpec("age", ColumnKind.NUMERIC), ColumnSpec("score", ColumnKind.NUMERIC)]
        )
        with pytest.raises(FrameError, match="schema"):
            decode_frame(payload, schema=other)
        swapped = TableSchema(
            [
                ColumnSpec("age", ColumnKind.CATEGORICAL),
                ColumnSpec("score", ColumnKind.NUMERIC),
                ColumnSpec("city", ColumnKind.NUMERIC),
            ]
        )
        with pytest.raises(FrameError, match="schema"):
            decode_frame(payload, schema=swapped)


def corrupt(payload: bytes, offset: int, fmt: str, value: int) -> bytes:
    mutated = bytearray(payload)
    struct.pack_into(fmt, mutated, offset, value)
    return bytes(mutated)


class TestHostileInputs:
    """Every malformed frame dies with FrameError — before any allocation."""

    PAYLOAD = encode_frame(table=sample_table())

    def test_truncated_header(self):
        with pytest.raises(FrameError, match="header"):
            decode_frame(self.PAYLOAD[:10])

    def test_truncated_body(self):
        with pytest.raises(FrameError, match="declares"):
            decode_frame(self.PAYLOAD[:-8])

    def test_trailing_garbage(self):
        with pytest.raises(FrameError):
            decode_frame(self.PAYLOAD + b"\x00" * 8)

    def test_bad_magic(self):
        with pytest.raises(FrameError, match="magic"):
            decode_frame(b"XXXX" + self.PAYLOAD[4:])

    def test_future_version(self):
        with pytest.raises(FrameError, match="version"):
            decode_frame(corrupt(self.PAYLOAD, 4, "<H", framing.FRAME_VERSION + 1))

    def test_nonzero_flags(self):
        with pytest.raises(FrameError, match="flags"):
            decode_frame(corrupt(self.PAYLOAD, 6, "<H", 0x8000))

    def test_oversized_declared_length_never_allocates(self):
        # frame_length (u64 at offset 8) claiming 2**50 bytes must fail
        # the `declared != provided` check, not trigger an allocation.
        with pytest.raises(FrameError, match="declares"):
            decode_frame(corrupt(self.PAYLOAD, 8, "<Q", 1 << 50))

    def test_oversized_meta_length(self):
        with pytest.raises(FrameError):
            decode_frame(corrupt(self.PAYLOAD, 16, "<I", 0xFFFFFFF0))

    def test_malformed_meta_json(self):
        mutated = bytearray(self.PAYLOAD)
        mutated[framing._HEADER_SIZE] = 0xFF  # clobber the meta JSON
        with pytest.raises(FrameError, match="meta"):
            decode_frame(bytes(mutated))

    def test_huge_n_rows_in_meta(self):
        # n_rows lives in the meta JSON; a huge value must be rejected
        # against the actual buffer size, not multiplied into frombuffer.
        payload = encode_frame(
            table=Table(sample_schema(), {"age": [1.0], "score": [2.0], "city": ["paris"]})
        )
        hacked = payload.replace(b'"n_rows":1', b'"n_rows":9' + b"0" * 14, 1)
        # keep header consistent with the new byte length
        hacked = corrupt(hacked, 8, "<Q", len(hacked))
        with pytest.raises(FrameError):
            decode_frame(hacked)

    def test_non_monotone_offsets(self):
        schema = TableSchema([ColumnSpec("s", ColumnKind.CATEGORICAL)])
        payload = bytearray(
            encode_frame(table=Table(schema, {"s": np.array(["ab", "cd"], dtype=object)}))
        )
        # Payload section: bitmap(1) pad(3) offsets(3×u32) data(4). The
        # offsets start 4 bytes into the 8-aligned payload section.
        start = len(payload) - _section_len(payload)
        struct.pack_into("<I", payload, start + 4 + 4, 0xFFFF)  # offsets[1] > offsets[2]
        with pytest.raises(FrameError, match="offsets"):
            decode_frame(bytes(payload))

    def test_hostile_array_dtype_rejected(self):
        payload = encode_frame(arrays={"a": np.arange(3, dtype=np.float64)})
        hacked = payload.replace(b'"dtype":"<f8"', b'"dtype":"|O8"', 1)
        hacked = corrupt(hacked, 8, "<Q", len(hacked))
        with pytest.raises(FrameError, match="dtype"):
            decode_frame(hacked)

    def test_iter_frames_size_limit(self):
        with pytest.raises(FrameSizeError):
            list(iter_frames([self.PAYLOAD], max_frame_bytes=len(self.PAYLOAD) - 1))

    def test_iter_frames_truncated_tail(self):
        with pytest.raises(FrameError, match="trailing"):
            list(iter_frames([self.PAYLOAD, self.PAYLOAD[:11]]))

    def test_iter_frames_splits_across_blocks(self):
        stream = self.PAYLOAD * 3
        blocks = [stream[i : i + 7] for i in range(0, len(stream), 7)]
        frames = list(iter_frames(blocks))
        assert len(frames) == 3
        assert all(bytes(f) == self.PAYLOAD for f in frames)


def _section_len(payload: bytes) -> int:
    bitmap = 1
    body = bitmap + 3 + 3 * 4 + 4
    return body + (-body) % 8


class TestFrameFiles:
    def test_write_read_round_trip(self, tmp_path):
        table = sample_table()
        path = tmp_path / "t.rprf"
        table.to_frame_file(path, chunk_rows=2)
        loaded = Table.from_frame_file(path, schema=table.schema)
        assert loaded.n_rows == table.n_rows
        got = loaded.slice_rows(0, table.n_rows)
        for spec in table.schema:
            np.testing.assert_array_equal(
                np.asarray(got.column(spec.name), dtype=object if not spec.is_numeric else None),
                table.column(spec.name),
            )

    def test_lazy_columns_serve_windows(self, tmp_path):
        rng = np.random.default_rng(3)
        schema = TableSchema(
            [ColumnSpec("v", ColumnKind.NUMERIC), ColumnSpec("s", ColumnKind.CATEGORICAL)]
        )
        table = Table(
            schema,
            {
                "v": rng.normal(size=1000),
                "s": np.array([f"cat{i % 5}" for i in range(1000)], dtype=object),
            },
        )
        path = tmp_path / "big.rprf"
        with FrameFileWriter(path, chunk_rows=128) as writer:
            writer.write(table)
        loaded = open_frame_file(path, schema=schema)
        # Windows that straddle frame boundaries must reassemble exactly.
        for start, stop in [(0, 10), (120, 140), (250, 640), (990, 1000), (0, 1000)]:
            np.testing.assert_array_equal(
                loaded.column("v")[start:stop], table.column("v")[start:stop]
            )
            assert list(loaded.column("s")[start:stop]) == list(
                table.column("s")[start:stop]
            )
        # Fancy indexing and scalar access work for e.g. Table.take/row.
        idx = np.array([3, 500, 999])
        np.testing.assert_array_equal(loaded.column("v")[idx], table.column("v")[idx])
        assert loaded.column("s")[567] == table.column("s")[567]

    def test_file_is_valid_stream_body(self, tmp_path):
        table = sample_table()
        path = tmp_path / "t.rprf"
        table.to_frame_file(path, chunk_rows=2)
        frames = list(framing.iter_file_frames(path))
        assert len(frames) == 3  # 5 rows in chunks of 2
        decoded = [decode_frame(f, schema=table.schema).table for f in frames]
        assert sum(t.n_rows for t in decoded) == table.n_rows

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.rprf"
        path.write_bytes(b"")
        with pytest.raises(FrameError):
            open_frame_file(path)


class TestVectorizedFromRecords:
    def test_junk_numeric_value_raises_schema_error(self):
        schema = TableSchema([ColumnSpec("n", ColumnKind.NUMERIC)])
        with pytest.raises(SchemaError, match="'n'"):
            Table.from_records(schema, [{"n": 1.0}, {"n": "not-a-number"}])

    def test_nested_value_raises_schema_error(self):
        schema = TableSchema([ColumnSpec("n", ColumnKind.NUMERIC)])
        with pytest.raises(SchemaError):
            Table.from_records(schema, [{"n": [1.0, 2.0]}, {"n": [3.0, 4.0]}])

    def test_none_becomes_nan(self):
        schema = TableSchema([ColumnSpec("n", ColumnKind.NUMERIC)])
        table = Table.from_records(schema, [{"n": None}, {"n": 2.0}, {}])
        np.testing.assert_array_equal(np.isnan(table.column("n")), [True, False, True])


class TestGatewayHostileFrames:
    """Hostile frames over real sockets: clean 400/413, no crash."""

    @pytest.fixture(scope="class")
    def served(self):
        from repro.runtime import ValidationService
        from repro.serve import AsyncGateway
        from repro.serve.cli import fit_demo_pipeline

        pipeline = fit_demo_pipeline()
        service = ValidationService(capacity=2)
        service.add("demo", pipeline)
        with AsyncGateway(service, port=0, max_body_bytes=1 << 20) as gateway:
            yield pipeline, gateway
        service.close()

    def post(self, gateway, path, body, content_type=FRAME_CONTENT_TYPE):
        connection = http.client.HTTPConnection("127.0.0.1", gateway.port)
        try:
            connection.request(
                "POST", path, body=body, headers={"Content-Type": content_type}
            )
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def frame_for(self, pipeline, n=8) -> bytes:
        rng = np.random.default_rng(0)
        x = rng.uniform(0.1, 0.9, n)
        table = Table(
            pipeline.preprocessor.schema,
            {
                "x": x,
                "y": 2.0 * x,
                "z": 1.0 - x,
                "c": np.where(x > 0.5, "hi", "lo"),
            },
        )
        return encode_frame(table=table)

    def test_valid_frame_validates(self, served):
        pipeline, gateway = served
        status, raw = self.post(
            gateway, "/v1/pipelines/demo/validate", self.frame_for(pipeline)
        )
        assert status == 200
        assert json.loads(raw)["kind"] == "validation_report"

    def test_truncated_frame_400(self, served):
        pipeline, gateway = served
        status, raw = self.post(
            gateway, "/v1/pipelines/demo/validate", self.frame_for(pipeline)[:40]
        )
        assert status == 400 and b"error" in raw

    def test_bad_magic_400(self, served):
        pipeline, gateway = served
        body = b"EVIL" + self.frame_for(pipeline)[4:]
        status, _ = self.post(gateway, "/v1/pipelines/demo/validate", body)
        assert status == 400

    def test_oversized_stream_frame_413(self, served):
        pipeline, gateway = served
        evil = bytearray(self.frame_for(pipeline))
        struct.pack_into("<Q", evil, 8, 1 << 50)
        status, _ = self.post(
            gateway, "/v1/pipelines/demo/validate_stream", bytes(evil)
        )
        assert status == 413

    def test_tableless_frame_400(self, served):
        _, gateway = served
        status, raw = self.post(
            gateway, "/v1/pipelines/demo/validate", encode_frame(extra={"hi": 1})
        )
        assert status == 400 and b"no table" in raw

    def test_schema_mismatch_400(self, served):
        _, gateway = served
        schema = TableSchema([ColumnSpec("wrong", ColumnKind.NUMERIC)])
        body = encode_frame(table=Table(schema, {"wrong": [1.0]}))
        status, _ = self.post(gateway, "/v1/pipelines/demo/validate", body)
        assert status == 400

    def test_gateway_survives_hostility(self, served):
        # After every attack above the server must still serve.
        pipeline, gateway = served
        status, _ = self.post(
            gateway, "/v1/pipelines/demo/validate", self.frame_for(pipeline)
        )
        assert status == 200
