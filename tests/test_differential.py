"""Differential fuzzing: every execution path produces the same report.

A seeded generator drives random tables through paper-style corruptions
(:mod:`repro.errors`) and asserts that the one-shot path, the streaming
path, the shard fold (2 and 4 chunk-aligned row shards, validated apart
and merged), and the full HTTP round-trip — over both the JSON tier and
the binary frame tier (``application/x-repro-frame``), one-shot and
streamed — all produce **bit-identical** :class:`ValidationReport`
objects — the invariant that makes every future refactor of the serving
stack safe. The shard fold is what a router relies on when it scatters
row ranges over replicas and merges their partial reports; here it runs
in process.
The compiled preprocessing plan (:class:`repro.data.plan.TransformPlan`)
is additionally pinned bit-identical to the legacy per-value
``TablePreprocessor.transform`` on every scenario.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import DQuaG, DQuaGConfig
from repro.core.validator import ValidationReport
from repro.data import ColumnKind, ColumnSpec, Table, TableSchema
from repro.errors import (
    CompositeInjector,
    MissingValueInjector,
    NumericAnomalyInjector,
    StringTypoInjector,
)
from repro.api import framing
from repro.runtime import PartialReport, ValidationService
from repro.serve import AsyncGateway, Client
from repro.serve.router import _chunk_ranges

N_SCENARIOS = 20

#: streaming chunk size — a divisor relationship with the engine's
#: internal chunk is *not* required for parity (the kernels are
#: row-local), but a small chunk forces real multi-chunk merges
CHUNK_SIZE = 256


def make_schema() -> TableSchema:
    return TableSchema(
        [
            ColumnSpec("x", ColumnKind.NUMERIC, "driver"),
            ColumnSpec("y", ColumnKind.NUMERIC, "2x + noise"),
            ColumnSpec("z", ColumnKind.NUMERIC, "1 - x + noise"),
            ColumnSpec("c", ColumnKind.CATEGORICAL, "band of x", categories=("lo", "hi")),
        ]
    )


def make_clean(n: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 0.9, n)
    return Table(
        make_schema(),
        {
            "x": x,
            "y": 2.0 * x + rng.normal(0, 0.01, n),
            "z": 1.0 - x + rng.normal(0, 0.01, n),
            "c": np.where(x > 0.5, "hi", "lo"),
        },
    )


def make_scenario(index: int) -> Table:
    """One seeded random table + a seeded random corruption."""
    rng = np.random.default_rng(10_000 + index)
    n_rows = int(rng.integers(300, 1200))
    table = make_clean(n_rows, seed=20_000 + index)
    fraction = float(rng.uniform(0.05, 0.3))
    injectors = [
        None,  # in-distribution: the paths must also agree on clean data
        NumericAnomalyInjector(columns=["y"], fraction=fraction),
        MissingValueInjector(columns=["z"], fraction=fraction),
        StringTypoInjector(columns=["c"], fraction=fraction),
        CompositeInjector(
            [
                NumericAnomalyInjector(columns=["x"], fraction=fraction / 2),
                MissingValueInjector(columns=["y"], fraction=fraction / 2),
            ]
        ),
    ]
    injector = injectors[index % len(injectors)]
    if injector is None:
        return table
    dirty, _ = injector.inject(table, rng=30_000 + index)
    return dirty


@pytest.fixture(scope="module")
def fitted() -> DQuaG:
    config = DQuaGConfig(hidden_dim=16, epochs=6, batch_size=64)
    return DQuaG(config).fit(make_clean(500, seed=0), rng=0)


@pytest.fixture(scope="module")
def served(fitted):
    service = ValidationService(capacity=2)
    service.add("demo", fitted)
    with AsyncGateway(service, port=0) as gateway, Client(port=gateway.port) as client:
        yield client
    service.close()


@pytest.fixture(scope="module")
def frame_client(served):
    """A client pinned to the binary frame tier, against the same gateway."""
    with Client(port=served.port, wire="frame") as client:
        yield client


def merge(core, partials: "list[PartialReport]", rules=None) -> ValidationReport:
    """Merge dense partials with the calibration of ``core``'s engine."""
    engine = core.validator
    return PartialReport.merge(
        partials,
        threshold=engine.calibration.threshold,
        rule=engine.rule,
        feature_names=list(engine.preprocessor.schema.names),
        rules=rules,
    )


def shard_fold(fitted, table: Table, shards: int, rules=None) -> ValidationReport:
    """The shard fold, in process: cut ``shards`` contiguous ranges of
    ``CHUNK_SIZE``-row chunks, validate each range's rows at its offset,
    merge the partials."""
    core = fitted.streaming_validator(keep_cell_errors=True, rules=rules)
    n_chunks = -(-table.n_rows // CHUNK_SIZE)
    partials = [
        core.validate_chunk(
            table.slice_rows(first * CHUNK_SIZE, stop * CHUNK_SIZE), first * CHUNK_SIZE
        )
        for first, stop in _chunk_ranges(n_chunks, shards)
    ]
    return merge(core, partials, rules)


def assert_reports_identical(reference: ValidationReport, other: ValidationReport, path: str):
    __tracebackhide__ = True
    np.testing.assert_array_equal(
        other.sample_errors, reference.sample_errors, err_msg=f"{path}: sample_errors"
    )
    np.testing.assert_array_equal(
        other.cell_errors, reference.cell_errors, err_msg=f"{path}: cell_errors"
    )
    np.testing.assert_array_equal(
        other.row_flags, reference.row_flags, err_msg=f"{path}: row_flags"
    )
    np.testing.assert_array_equal(
        other.cell_flags, reference.cell_flags, err_msg=f"{path}: cell_flags"
    )
    assert other.sample_errors.dtype == reference.sample_errors.dtype, path
    assert other.cell_errors.dtype == reference.cell_errors.dtype, path
    assert other.threshold == reference.threshold, path
    assert other.flagged_fraction == reference.flagged_fraction, path
    assert other.is_problematic == reference.is_problematic, path
    assert other.feature_names == reference.feature_names, path


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_compiled_plan_bit_identical_to_legacy_transform(index, fitted):
    """The compiled TransformPlan must reproduce the legacy per-value
    transform bit for bit on every corruption scenario — the invariant
    that keeps reports, goldens, and calibrated thresholds untouched."""
    table = make_scenario(index)
    preprocessor = fitted.preprocessor
    legacy = preprocessor.transform(table)
    plan = preprocessor.compile()

    compiled = plan.transform(table)
    assert compiled.dtype == legacy.dtype
    np.testing.assert_array_equal(compiled, legacy, err_msg="plan.transform")

    # Chunked execution into one reused buffer covers transform_into.
    streamed = np.empty_like(legacy)
    for start in range(0, table.n_rows, CHUNK_SIZE):
        stop = min(start + CHUNK_SIZE, table.n_rows)
        chunk = plan.transform_into(table, streamed[start:stop], start, stop)
        assert chunk.shape == (stop - start, len(table.schema.names))
    np.testing.assert_array_equal(streamed, legacy, err_msg="plan.transform_into")

    # The public chunk iterator (zero-copy slices, fresh outputs).
    chunked = np.concatenate(
        list(preprocessor.transform_chunks(table, CHUNK_SIZE)), axis=0
    )
    np.testing.assert_array_equal(chunked, legacy, err_msg="transform_chunks")


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_all_paths_bit_identical(index, fitted, served):
    table = make_scenario(index)
    reference = fitted.validate(table)

    streamed = fitted.streaming_validator(
        chunk_size=CHUNK_SIZE, keep_cell_errors=True
    ).validate_table(table)
    assert_reports_identical(reference, streamed, "streaming")

    for shards in (2, 4):
        sharded = shard_fold(fitted, table, shards)
        assert_reports_identical(reference, sharded, f"sharded[{shards}]")

    remote = served.validate("demo", table, include_errors=True)
    assert_reports_identical(reference, remote, "http")

    # The wire protocol itself must be exact: a JSON round-trip of the
    # reference decodes to the same report, bit for bit.
    decoded = ValidationReport.from_dict(json.loads(json.dumps(reference.to_dict())))
    assert_reports_identical(reference, decoded, "json-round-trip")


def scatter_partials(core, table: Table) -> "list[PartialReport]":
    """A router's scatter of ``table``, in process: ``CHUNK_SIZE``-row
    frames cut into 2 contiguous ranges, each range's body read back
    frame by frame as a replica does, and every chunk validated at its
    global offset."""
    frames = [
        framing.encode_frame(table=table.slice_rows(start, start + CHUNK_SIZE))
        for start in range(0, table.n_rows, CHUNK_SIZE)
    ]
    partials: "list[PartialReport]" = []
    offset = 0
    for first, stop in _chunk_ranges(len(frames), 2):
        body = b"".join(frames[first:stop])
        for raw in framing.iter_frames([body]):
            chunk = framing.decode_frame(raw, table.schema).table
            partials.append(core.validate_chunk(chunk, offset))
            offset += chunk.n_rows
    return partials


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_frame_range_scatter_bit_identical(index, fitted):
    """2-range frame scatter == one-shot, on every corruption scenario.

    A router hands each replica a contiguous range of the client's
    frames as its sub-stream body; the ranges read back from those
    bytes must fold to the one-shot reference bit for bit.
    """
    table = make_scenario(index)
    reference = fitted.validate(table)

    core = fitted.streaming_validator(keep_cell_errors=True)
    scattered = scatter_partials(core, table)
    assert_reports_identical(reference, merge(core, scattered), "frame-range-scatter")

    if index % 5 == 0:  # streamed parity: sample the scenarios
        summary = core.fold(iter(scattered))
        local = fitted.streaming_validator(chunk_size=CHUNK_SIZE).validate_table(table)
        assert summary.to_dict() == local.to_dict(), "frame-range stream parity"


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_frame_tier_bit_identical(index, fitted, served, frame_client):
    """HTTP over binary frames must equal the JSON tier and in-process.

    One-shot: the framed request/response round-trip (typed column
    buffers both ways) reconstructs the in-process dense report bit for
    bit. Streamed: a frame-chunked upload folds to the exact same
    StreamSummary dict as the NDJSON upload of the same chunks.
    """
    table = make_scenario(index)
    reference = fitted.validate(table)

    framed = frame_client.validate("demo", table, include_errors=True)
    assert_reports_identical(reference, framed, "http-frame")

    via_json = served.validate("demo", table, include_errors=True)
    assert_reports_identical(via_json, framed, "http-frame-vs-json")

    # The frame codec round-trip alone must also be exact.
    from repro.api import framing

    codec = framing.report_from_frame(
        framing.decode_frame(framing.report_to_frame(reference, errors="dense"))
    )
    assert_reports_identical(reference, codec, "frame-round-trip")

    if index % 5 == 0:  # streamed parity is slower: sample the scenarios
        chunks = [
            table.slice_rows(start, start + CHUNK_SIZE)
            for start in range(0, table.n_rows, CHUNK_SIZE)
        ]
        over_frames = frame_client.validate_stream("demo", chunks)
        over_ndjson = served.validate_stream("demo", chunks)
        assert over_frames.to_dict() == over_ndjson.to_dict(), "stream frame-vs-json"
        local = fitted.streaming_validator(chunk_size=CHUNK_SIZE).validate_table(table)
        assert over_frames.n_flagged == local.n_flagged
        np.testing.assert_array_equal(over_frames.flagged_rows, local.flagged_rows)
        assert over_frames.flagged_fraction == local.flagged_fraction
        assert over_frames.is_problematic == local.is_problematic


#: declarative rules for the scenario schema — every predicate scope is
#: represented, including a table-scoped ``unique`` whose fold defers
#: per-chunk values (the hardest case for shard/stream parity)
RULES_DOC = {
    "name": "differential-checks",
    "rules": [
        {"id": "x-range", "severity": "error",
         "predicate": {"type": "range", "column": "x", "min": 0.0, "max": 1.0}},
        {"id": "y-range", "severity": "warn",
         "predicate": {"type": "range", "column": "y", "min": -0.5, "max": 2.5}},
        {"id": "z-present", "severity": "warn",
         "predicate": {"type": "not_null", "column": "z"}},
        {"id": "c-known", "severity": "error",
         "predicate": {"type": "in_set", "column": "c", "values": ["lo", "hi"]}},
        {"id": "y-above-x", "severity": "info",
         "predicate": {"type": "compare", "left": "y", "op": "ge", "right": "x"}},
        {"id": "hi-band", "severity": "info",
         "predicate": {"type": "conditional",
                       "when": {"type": "in_set", "column": "c", "values": ["hi"]},
                       "then": {"type": "range", "column": "x", "min": 0.25}}},
        {"id": "x-unique", "severity": "info",
         "predicate": {"type": "unique", "column": "x"}},
    ],
}


@pytest.fixture(scope="module")
def demo_rules():
    from repro.rules import RuleSet

    return RuleSet.from_payload(RULES_DOC)


@pytest.fixture(scope="module")
def served_rules(fitted, demo_rules):
    """A second gateway with rules attached, so the rules-off gateway
    fixtures above keep exercising the unchanged legacy behavior."""
    service = ValidationService(capacity=2)
    service.add("demo", fitted)
    service.set_rules("demo", demo_rules)
    with AsyncGateway(service, port=0) as gateway, Client(port=gateway.port) as client:
        yield client
    service.close()


@pytest.fixture(scope="module")
def frame_rules_client(served_rules):
    with Client(port=served_rules.port, wire="frame") as client:
        yield client


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_rules_on_all_paths_bit_identical(
    index, fitted, demo_rules, served_rules, frame_rules_client
):
    """With rules on, every path must agree bit for bit — on the GNN
    fields (which must match the rules-off output exactly: fusion is
    additive) *and* on the fused rule report."""
    table = make_scenario(index)
    plain = fitted.validate(table)
    assert plain.rule_report is None  # rules-off output is untouched
    fused = fitted.validate(table, rules=demo_rules)
    assert_reports_identical(plain, fused, "rules-on-gnn-fields")
    assert fused.rule_report is not None
    reference = fused.rule_report.to_dict()

    streamed = fitted.streaming_validator(
        chunk_size=CHUNK_SIZE, keep_cell_errors=True, rules=demo_rules
    ).validate_table(table)
    assert_reports_identical(fused, streamed, "rules-streaming")
    assert streamed.rule_report.to_dict() == reference, "rules-streaming"

    for shards in (2, 4):
        sharded = shard_fold(fitted, table, shards, rules=demo_rules)
        assert_reports_identical(fused, sharded, f"rules-sharded[{shards}]")
        assert sharded.rule_report.to_dict() == reference, f"rules-sharded[{shards}]"

    remote = served_rules.validate("demo", table, include_errors=True)
    assert_reports_identical(fused, remote, "rules-http-json")
    assert remote.rule_report.to_dict() == reference, "rules-http-json"

    framed = frame_rules_client.validate("demo", table, include_errors=True)
    assert_reports_identical(fused, framed, "rules-http-frame")
    assert framed.rule_report.to_dict() == reference, "rules-http-frame"

    # JSON round-trip of the fused report is exact, rule report included.
    decoded = ValidationReport.from_dict(json.loads(json.dumps(fused.to_dict())))
    assert_reports_identical(fused, decoded, "rules-json-round-trip")
    assert decoded.rule_report.to_dict() == reference, "rules-json-round-trip"

    if index % 5 == 0:  # streamed-upload parity is slower: sample scenarios
        chunks = [
            table.slice_rows(start, start + CHUNK_SIZE)
            for start in range(0, table.n_rows, CHUNK_SIZE)
        ]
        over_json = served_rules.validate_stream("demo", chunks)
        over_frames = frame_rules_client.validate_stream("demo", chunks)
        local = fitted.streaming_validator(
            chunk_size=CHUNK_SIZE, rules=demo_rules
        ).validate_table(table)
        assert local.rule_report is not None
        assert over_json.to_dict() == over_frames.to_dict(), "rules-stream frame-vs-json"
        assert over_json.rule_report.to_dict() == local.rule_report.to_dict()
        assert over_json.rule_report.to_dict() == reference


def test_scenarios_cover_clean_and_problematic():
    """The seeded scenario mix must exercise both verdict branches."""
    tables = [make_scenario(i) for i in range(N_SCENARIOS)]
    missing = [t for t in tables if any(t.missing_fraction(n) > 0 for n in t.schema.names)]
    assert missing, "no scenario injected missing values"
    sizes = {t.n_rows for t in tables}
    assert len(sizes) > 5, "scenario sizes are not diverse"


@pytest.fixture(scope="module")
def async_served(fitted):
    """The asyncio gateway with an aggressive coalescing window: the
    concurrent sub-requests below must fuse into shared slabs."""
    service = ValidationService(capacity=2)
    service.add("demo", fitted)
    with AsyncGateway(service, port=0, batch_window_ms=20.0) as gateway:
        with Client(port=gateway.port) as client:
            yield gateway, client
    service.close()


@pytest.mark.parametrize("index", range(N_SCENARIOS))
def test_coalesced_verdicts_bit_identical_to_per_request(index, fitted, async_served):
    """Micro-batching must be invisible: each of four concurrently
    submitted sub-requests — two over JSON, two over frames — decodes to
    the exact report the in-process pipeline returns for that sub-table
    alone, even though the scheduler may have fused them into one slab
    (and the verdict, being a per-request fraction, would smear if the
    split were sloppy)."""
    from concurrent.futures import ThreadPoolExecutor

    gateway, client = async_served
    table = make_scenario(index)
    quarter = max(1, table.n_rows // 4)
    parts = [
        table.slice_rows(start, min(start + quarter, table.n_rows))
        for start in range(0, table.n_rows, quarter)
    ]
    references = [fitted.validate(part) for part in parts]
    with Client(port=gateway.port, wire="frame") as frame_client:
        clients = [client if i % 2 == 0 else frame_client for i in range(len(parts))]
        with ThreadPoolExecutor(max_workers=len(parts)) as pool:
            remotes = list(
                pool.map(
                    lambda pair: pair[0].validate("demo", pair[1], include_errors=True),
                    zip(clients, parts),
                )
            )
    for i, (reference, remote) in enumerate(zip(references, remotes)):
        tier = "json" if i % 2 == 0 else "frame"
        assert_reports_identical(reference, remote, f"coalesced[{i}:{tier}]")


def test_coalescing_actually_occurred(async_served):
    """Meta-check: across the scenario sweep above, at least some
    concurrent sub-requests must have shared a fused slab — otherwise
    the parity claim is vacuous."""
    gateway, _ = async_served
    stats = gateway.scheduler.stats_snapshot()
    if stats.completed < 8:
        pytest.skip("scenario sweep did not run in this selection")
    assert stats.batches < stats.completed
    assert stats.mean_batch_size > 1.0


def test_streamed_summary_agrees_with_report(fitted):
    """The bounded-memory fold reaches the same verdict as the dense path."""
    for index in range(0, N_SCENARIOS, 5):
        table = make_scenario(index)
        reference = fitted.validate(table)
        summary = fitted.streaming_validator(chunk_size=CHUNK_SIZE).validate_table(table)
        assert summary.n_rows == table.n_rows
        assert summary.n_flagged == reference.n_flagged
        np.testing.assert_array_equal(summary.flagged_rows, reference.flagged_rows)
        assert summary.is_problematic == reference.is_problematic
        assert summary.flagged_fraction == reference.flagged_fraction
