"""Wire-codec benchmarks — binary frames vs the JSON tier.

Quantifies what the binary columnar frame codec (:mod:`repro.api.framing`)
buys on the serving boundary for an Airbnb/Playstore-shaped
categorical-heavy slab:

* ``test_frame_ingest_speedup`` — gateway-side ingest decode: the JSON
  tier runs ``json.loads`` + ``Table.from_records`` (one Python object
  per cell); the frame tier runs ``decode_frame`` straight into column
  buffers. Acceptance: **≥ 5×** ingest throughput, decoded tables
  value- and missing-structure-identical. Encode (client) side and wire
  sizes are reported alongside.
* ``test_out_of_core_frame_stream`` — the out-of-core demo: a frame
  file larger than the gateway's whole-body budget streams through
  ``/validate_stream`` on a live gateway whose ``max_body_bytes`` is a
  fraction of the file size — structurally impossible unless both ends
  stay frame-bounded — and the process RSS delta is asserted well below
  the file size.

Speed bars are asserted at standard scale and above; ``REPRO_SCALE=smoke``
(CI) still asserts **parity** — identical decoded tables and stream
verdicts — so CI stays hardware-agnostic. Machine-readable snapshots
land in ``results/BENCH_wire_*.json``.
"""

from __future__ import annotations

import json
import resource

import numpy as np
import pytest

from repro.api import framing
from repro.core import DQuaG, DQuaGConfig
from repro.data import ColumnKind, ColumnSpec, Table, TableSchema
from repro.experiments.reporting import ResultTable
from repro.utils.timing import Timer

from benchmarks.conftest import emit_result

SLAB_ROWS = 10_000
N_CATEGORICAL = 12
N_NUMERIC = 2
CARDINALITY = 6
INGEST_SPEEDUP_BAR = 5.0


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        with Timer() as timer:
            fn()
        best = min(best, timer.elapsed)
    return best


def make_schema() -> TableSchema:
    vocabularies = [
        tuple(f"{chr(65 + i)}{chr(65 + j)}_cat{j}" for j in range(CARDINALITY))
        for i in range(N_CATEGORICAL)
    ]
    specs = [
        ColumnSpec(f"c{i}", ColumnKind.CATEGORICAL, f"categorical {i}", categories=vocabularies[i])
        for i in range(N_CATEGORICAL)
    ]
    specs += [ColumnSpec(f"n{i}", ColumnKind.NUMERIC, f"numeric {i}") for i in range(N_NUMERIC)]
    return TableSchema(specs)


def make_table(schema: TableSchema, n_rows: int, seed: int, missing: float = 0.02) -> Table:
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, n_rows)
    columns: dict[str, np.ndarray] = {}
    for i in range(N_CATEGORICAL):
        vocabulary = np.array(schema[f"c{i}"].categories, dtype=object)
        index = np.minimum(
            (base * CARDINALITY).astype(int) + rng.integers(0, 2, n_rows), CARDINALITY - 1
        )
        column = vocabulary[index]
        column[rng.random(n_rows) < missing] = None
        columns[f"c{i}"] = column
    noisy = base.copy()
    noisy[rng.random(n_rows) < missing] = np.nan
    columns["n0"] = noisy
    for i in range(1, N_NUMERIC):
        columns[f"n{i}"] = 1.0 - base + rng.normal(0.0, 0.01, n_rows)
    return Table(schema, columns)


def _tables_identical(a: Table, b: Table) -> bool:
    if a.schema != b.schema or a.n_rows != b.n_rows:
        return False
    for spec in a.schema:
        left, right = a.column(spec.name), b.column(spec.name)
        if spec.is_numeric:
            if not np.array_equal(
                np.asarray(left).view(np.uint64), np.asarray(right).view(np.uint64)
            ):
                return False
        elif list(left) != list(right):
            return False
    return True


def test_frame_ingest_speedup(scale):
    """Acceptance: frame decode ≥ 5× JSON ingest, identical tables."""
    schema = make_schema()
    slab = make_table(schema, SLAB_ROWS, seed=2)

    json_body = json.dumps({"records": slab.to_records()}).encode("utf-8")
    frame_body = framing.encode_frame(table=slab)

    def json_ingest() -> Table:
        payload = json.loads(json_body)
        return Table.from_records(schema, payload["records"])

    def frame_ingest() -> Table:
        return framing.decode_frame(frame_body, schema=schema).table

    via_json = json_ingest()
    via_frame = frame_ingest()
    parity = _tables_identical(via_json, via_frame) and _tables_identical(via_frame, slab)

    json_seconds = _best_of(json_ingest)
    frame_seconds = _best_of(frame_ingest)
    ingest_speedup = json_seconds / frame_seconds

    json_encode_seconds = _best_of(lambda: json.dumps({"records": slab.to_records()}).encode())
    frame_encode_seconds = _best_of(lambda: framing.encode_frame(table=slab))
    encode_speedup = json_encode_seconds / frame_encode_seconds

    table = ResultTable(
        f"Wire — frame codec vs JSON tier on a categorical-heavy slab "
        f"({SLAB_ROWS} rows, {N_CATEGORICAL} categorical + {N_NUMERIC} numeric, scale={scale.name})",
        ["path", "seconds", "rows/s", "bytes"],
    )
    table.add_row("JSON ingest (loads + from_records)", json_seconds, int(SLAB_ROWS / json_seconds), len(json_body))
    table.add_row("frame ingest (decode_frame)", frame_seconds, int(SLAB_ROWS / frame_seconds), len(frame_body))
    table.add_row("JSON encode (to_records + dumps)", json_encode_seconds, int(SLAB_ROWS / json_encode_seconds), len(json_body))
    table.add_row("frame encode (encode_frame)", frame_encode_seconds, int(SLAB_ROWS / frame_encode_seconds), len(frame_body))
    table.add_note(f"ingest speedup: {ingest_speedup:.2f}x (bar: {INGEST_SPEEDUP_BAR}x)")
    table.add_note(f"encode speedup: {encode_speedup:.2f}x")
    table.add_note(f"wire size: {len(frame_body) / len(json_body):.2%} of JSON")
    table.add_note(f"decoded tables identical: {parity}")
    emit_result(
        "wire_ingest",
        table.render(),
        data={
            "scale": scale.name,
            "rows": SLAB_ROWS,
            "categorical_columns": N_CATEGORICAL,
            "numeric_columns": N_NUMERIC,
            "json_ingest_seconds": json_seconds,
            "frame_ingest_seconds": frame_seconds,
            "json_encode_seconds": json_encode_seconds,
            "frame_encode_seconds": frame_encode_seconds,
            "json_bytes": len(json_body),
            "frame_bytes": len(frame_body),
            "ingest_speedup": ingest_speedup,
            "encode_speedup": encode_speedup,
            "tables_identical": parity,
        },
    )

    # Parity is the CI gate; speed bars apply at standard scale and up.
    assert parity, "frame-decoded table diverged from the JSON-decoded table"
    if scale.name not in ("smoke", "fast"):
        assert ingest_speedup >= INGEST_SPEEDUP_BAR, (
            f"frame ingest speedup {ingest_speedup:.2f}x below the "
            f"{INGEST_SPEEDUP_BAR}x acceptance bar"
        )


def _stream_schema() -> TableSchema:
    return TableSchema(
        [
            ColumnSpec("x", ColumnKind.NUMERIC, "driver"),
            ColumnSpec("y", ColumnKind.NUMERIC, "2x + noise"),
            ColumnSpec("z", ColumnKind.NUMERIC, "1 - x + noise"),
            ColumnSpec("c", ColumnKind.CATEGORICAL, "band", categories=("lo", "hi")),
        ]
    )


def _stream_chunk(schema: TableSchema, n: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 0.9, n)
    return Table(
        schema,
        {
            "x": x,
            "y": 2.0 * x + rng.normal(0, 0.01, n),
            "z": 1.0 - x + rng.normal(0, 0.01, n),
            "c": np.where(x > 0.5, "hi", "lo"),
        },
    )


def test_out_of_core_frame_stream(scale, tmp_path):
    """A frame file several times the gateway's body budget validates
    through ``/validate_stream`` with bounded memory on both ends."""
    from repro.runtime import ValidationService
    from repro.serve import AsyncGateway, Client

    schema = _stream_schema()
    chunk_rows = 65_536
    n_chunks = 4 if scale.name in ("smoke", "fast") else 16
    config = DQuaGConfig(hidden_dim=16, epochs=2, batch_size=64, seed=0)
    pipeline = DQuaG(config).fit(_stream_chunk(schema, 2000, seed=0), rng=0)

    # Spill the stream chunk by chunk — the full table never exists.
    path = tmp_path / "slab.rprf"
    with framing.FrameFileWriter(path, chunk_rows=chunk_rows) as writer:
        for i in range(n_chunks):
            writer.write(_stream_chunk(schema, chunk_rows, seed=100 + i))
    file_bytes = path.stat().st_size

    # The hard bound: the gateway may not buffer more than a fraction of
    # the file for any single frame/body — oversized requests get 413 —
    # yet the framed stream passes, because each frame stays under it.
    max_body_bytes = file_bytes // 4
    service = ValidationService(capacity=2)
    service.add("demo", pipeline)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    with AsyncGateway(service, port=0, max_body_bytes=max_body_bytes) as gateway:
        client = Client(port=gateway.port)
        with Timer() as timer:
            summary = client.validate_frame_file("demo", path)
    service.close()
    rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    rss_delta = rss_after - rss_before

    total_rows = n_chunks * chunk_rows
    assert summary.n_rows == total_rows
    assert summary.n_chunks == n_chunks

    # Parity: the same deterministic chunks streamed in-process reach
    # the identical verdict (summary folding is chunk-local).
    local = pipeline.streaming_validator(chunk_size=chunk_rows).validate_stream(
        _stream_chunk(schema, chunk_rows, seed=100 + i) for i in range(n_chunks)
    )
    verdicts_identical = bool(
        local.n_flagged == summary.n_flagged
        and np.array_equal(local.flagged_rows, summary.flagged_rows)
        and local.is_problematic == summary.is_problematic
    )

    table = ResultTable(
        f"Wire — out-of-core framed stream through /validate_stream (scale={scale.name})",
        ["metric", "value"],
    )
    table.add_row("frame file bytes", file_bytes)
    table.add_row("gateway max_body_bytes", max_body_bytes)
    table.add_row("rows validated", total_rows)
    table.add_row("seconds", round(timer.elapsed, 4))
    table.add_row("rows/s", int(total_rows / timer.elapsed))
    table.add_row("peak-RSS delta bytes", rss_delta)
    table.add_note("file is 4x the gateway's whole-body budget — only frame-bounded")
    table.add_note(f"verdict identical to in-process stream: {verdicts_identical}")
    emit_result(
        "wire_out_of_core",
        table.render(),
        data={
            "scale": scale.name,
            "file_bytes": file_bytes,
            "max_body_bytes": max_body_bytes,
            "rows": total_rows,
            "chunks": n_chunks,
            "seconds": timer.elapsed,
            "rss_delta_bytes": rss_delta,
            "verdicts_identical": verdicts_identical,
        },
    )

    assert verdicts_identical, "framed upload changed the stream verdict"
    # Memory stays bounded by chunks, not the file: allow generous slack
    # for allocator noise, but never full-file materialization on the
    # shared client+gateway process.
    assert rss_delta < file_bytes // 2 + 64 * 1024 * 1024, (
        f"RSS grew by {rss_delta} bytes while streaming a {file_bytes}-byte file"
    )
