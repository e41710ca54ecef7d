"""Preprocessing benchmarks — compiled TransformPlan vs the legacy path.

Quantifies what the compiled preprocessing plan (:mod:`repro.data.plan`)
buys on a categorical-heavy table (the Airbnb/Playstore-shaped workloads
of Figure 3, where per-value label encoding dominated the encode half):

* ``test_categorical_transform_speedup`` — the streaming ingest
  transform (chunked encode of a table, as the streaming validator
  runs it). Legacy: ``take(np.arange(...))`` row copies +
  per-value dict-lookup label encoding. Plan: zero-copy row views +
  vectorized sorted-vocabulary encode into one reused buffer.
  Acceptance: **≥ 5×**, with bit-identical output.
* ``test_validate_end_to_end_speedup`` — end-to-end validation through
  the paper's encode-bound ablation architecture (graph2vec, Table 2),
  where preprocessing is a first-class share of the wall clock. Both
  the one-shot ``validate()`` and the bounded-memory streaming path at
  Figure-4 row counts are measured; acceptance: **≥ 1.5×** on the
  streaming path, with identical flags. (Encoder-dominant
  architectures like gat_gin see the same absolute preprocessing win,
  but the GNN forward hides it in the ratio.)

Speed bars are asserted at standard scale and above; ``REPRO_SCALE=smoke``
(CI) still asserts **parity** — plan output must be bit-identical and
verdicts must agree — so CI stays hardware-agnostic. Machine-readable
snapshots land in ``results/BENCH_preprocess_*.json``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import DQuaG, DQuaGConfig
from repro.data import ColumnKind, ColumnSpec, Table, TableSchema, TablePreprocessor
from repro.experiments.reporting import ResultTable
from repro.utils.timing import Timer

from benchmarks.conftest import emit_result

SLAB_ROWS = 10_000
N_CATEGORICAL = 12
N_NUMERIC = 2
CARDINALITY = 6
TRANSFORM_SPEEDUP_BAR = 5.0
E2E_SPEEDUP_BAR = 1.5


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


def make_table(schema: TableSchema, n_rows: int, seed: int) -> Table:
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.0, 1.0, n_rows)
    columns: dict[str, np.ndarray] = {}
    for i in range(N_CATEGORICAL):
        vocabulary = np.array(schema[f"c{i}"].categories)
        index = np.minimum(
            (base * CARDINALITY).astype(int) + rng.integers(0, 2, n_rows), CARDINALITY - 1
        )
        columns[f"c{i}"] = vocabulary[index]
    columns["n0"] = base
    for i in range(1, N_NUMERIC):
        columns[f"n{i}"] = 1.0 - base + rng.normal(0.0, 0.01, n_rows)
    return Table(schema, columns)


def legacy_transform_chunks(preprocessor: TablePreprocessor, table: Table, chunk_size: int = 8192):
    """The pre-plan chunked encode: index-array row copies + per-value
    label encoding — what ``transform_chunks`` did before compilation."""
    for start in range(0, table.n_rows, chunk_size):
        stop = min(start + chunk_size, table.n_rows)
        yield preprocessor.transform(table.take(np.arange(start, stop)))


@pytest.fixture(scope="module")
def preprocess_setup(scale):
    schema = make_schema()
    train = make_table(schema, max(scale.train_rows, 1000), seed=1)
    slab = make_table(schema, SLAB_ROWS, seed=2)
    # The encode-bound serving model: the paper's graph2vec ablation
    # encoder (Table 2) at the paper's hidden width.
    config = DQuaGConfig(
        architecture="graph2vec", hidden_dim=64, epochs=max(scale.epochs // 4, 2), seed=0
    )
    pipeline = DQuaG(config).fit(train, rng=0)
    return schema, pipeline, slab


def test_categorical_transform_speedup(preprocess_setup, scale):
    """Acceptance: plan ≥ 5× over the legacy chunked encode, bit-identical."""
    _, pipeline, slab = preprocess_setup
    preprocessor = pipeline.preprocessor
    plan = preprocessor.compile()

    legacy_matrix = preprocessor.transform(slab)
    plan_matrix = plan.transform(slab)
    parity = bool(
        np.array_equal(plan_matrix, legacy_matrix) and plan_matrix.dtype == legacy_matrix.dtype
    )
    chunked = np.concatenate([chunk.copy() for chunk in plan.transform_chunks(slab, 8192)])
    chunk_parity = bool(np.array_equal(chunked, legacy_matrix))

    legacy_chunk_seconds = _best_of(lambda: list(legacy_transform_chunks(preprocessor, slab)))
    plan_chunk_seconds = _best_of(lambda: list(plan.transform_chunks(slab, 8192)))
    legacy_seconds = _best_of(lambda: preprocessor.transform(slab))
    plan_seconds = _best_of(lambda: plan.transform(slab))
    chunk_speedup = legacy_chunk_seconds / plan_chunk_seconds
    oneshot_speedup = legacy_seconds / plan_seconds

    table = ResultTable(
        f"Preprocess — compiled plan vs legacy on a categorical-heavy slab "
        f"({SLAB_ROWS} rows, {N_CATEGORICAL} categorical + {N_NUMERIC} numeric, scale={scale.name})",
        ["path", "seconds", "rows/s"],
    )
    table.add_row("legacy chunked (take + dict lookups)", legacy_chunk_seconds, int(SLAB_ROWS / legacy_chunk_seconds))
    table.add_row("plan chunked (views + vectorized)", plan_chunk_seconds, int(SLAB_ROWS / plan_chunk_seconds))
    table.add_row("legacy one-shot transform", legacy_seconds, int(SLAB_ROWS / legacy_seconds))
    table.add_row("plan one-shot transform", plan_seconds, int(SLAB_ROWS / plan_seconds))
    table.add_note(f"chunked ingest speedup: {chunk_speedup:.2f}x (bar: {TRANSFORM_SPEEDUP_BAR}x)")
    table.add_note(f"one-shot speedup: {oneshot_speedup:.2f}x")
    table.add_note(f"bit-identical to legacy transform: {parity and chunk_parity}")
    emit_result(
        "preprocess_transform",
        table.render(),
        data={
            "scale": scale.name,
            "rows": SLAB_ROWS,
            "categorical_columns": N_CATEGORICAL,
            "numeric_columns": N_NUMERIC,
            "legacy_chunked_seconds": legacy_chunk_seconds,
            "plan_chunked_seconds": plan_chunk_seconds,
            "legacy_oneshot_seconds": legacy_seconds,
            "plan_oneshot_seconds": plan_seconds,
            "chunked_speedup": chunk_speedup,
            "oneshot_speedup": oneshot_speedup,
            "bit_identical": parity and chunk_parity,
        },
    )

    # Parity is the CI gate; speed bars apply at standard scale and up
    # (a loaded CI runner cannot exhibit deterministic throughput).
    assert parity, "plan.transform is not bit-identical to the legacy transform"
    assert chunk_parity, "plan.transform_chunks diverged from the legacy transform"
    if scale.name not in ("smoke", "fast"):
        assert chunk_speedup >= TRANSFORM_SPEEDUP_BAR, (
            f"chunked transform speedup {chunk_speedup:.2f}x below the "
            f"{TRANSFORM_SPEEDUP_BAR}x acceptance bar"
        )


def test_validate_end_to_end_speedup(preprocess_setup, scale):
    """Acceptance: ≥ 1.5× end-to-end streamed validate() on the
    encode-bound architecture, identical verdicts."""
    schema, pipeline, slab = preprocess_setup
    preprocessor = pipeline.preprocessor
    engine = pipeline.engine
    assert engine is not None

    # One-shot validate(): legacy encode + engine vs the plan path.
    legacy_oneshot = _best_of(lambda: engine.validate_matrix(preprocessor.transform(slab)), 3)
    plan_oneshot = _best_of(lambda: pipeline.validate(slab), 3)
    report_legacy = engine.validate_matrix(preprocessor.transform(slab))
    report_plan = pipeline.validate(slab)
    flags_identical = bool(
        np.array_equal(report_legacy.row_flags, report_plan.row_flags)
        and np.array_equal(report_legacy.cell_flags, report_plan.cell_flags)
        and np.array_equal(report_legacy.cell_errors, report_plan.cell_errors)
    )

    # Streamed validate at Figure-4 row counts: the legacy stream feeds
    # take()-copied, per-value-encoded chunks; the plan path encodes
    # zero-copy row views into one reused buffer.
    n_rows = 24_000 if scale.name == "smoke" else 100_000
    big = make_table(schema, n_rows, seed=7)
    streaming = pipeline.streaming_validator(chunk_size=8192)

    start = time.perf_counter()
    legacy_summary = streaming.validate_stream(legacy_transform_chunks(preprocessor, big))
    legacy_stream_seconds = time.perf_counter() - start
    start = time.perf_counter()
    plan_summary = streaming.validate_table(big)
    plan_stream_seconds = time.perf_counter() - start
    stream_speedup = legacy_stream_seconds / plan_stream_seconds
    verdicts_identical = bool(
        legacy_summary.n_flagged == plan_summary.n_flagged
        and np.array_equal(legacy_summary.flagged_rows, plan_summary.flagged_rows)
        and legacy_summary.is_problematic == plan_summary.is_problematic
    )

    table = ResultTable(
        f"Preprocess — end-to-end validate, graph2vec encoder "
        f"(categorical-heavy slab, scale={scale.name})",
        ["path", "rows", "seconds", "rows/s"],
    )
    table.add_row("one-shot legacy encode", SLAB_ROWS, legacy_oneshot, int(SLAB_ROWS / legacy_oneshot))
    table.add_row("one-shot compiled plan", SLAB_ROWS, plan_oneshot, int(SLAB_ROWS / plan_oneshot))
    table.add_row("streamed legacy encode", n_rows, legacy_stream_seconds, int(n_rows / legacy_stream_seconds))
    table.add_row("streamed compiled plan", n_rows, plan_stream_seconds, int(n_rows / plan_stream_seconds))
    table.add_note(f"streamed speedup: {stream_speedup:.2f}x (bar: {E2E_SPEEDUP_BAR}x)")
    table.add_note(f"one-shot speedup: {legacy_oneshot / plan_oneshot:.2f}x")
    table.add_note(f"flags identical: {flags_identical}; verdicts identical: {verdicts_identical}")
    emit_result(
        "preprocess_e2e",
        table.render(),
        data={
            "scale": scale.name,
            "architecture": "graph2vec",
            "oneshot_rows": SLAB_ROWS,
            "stream_rows": n_rows,
            "legacy_oneshot_seconds": legacy_oneshot,
            "plan_oneshot_seconds": plan_oneshot,
            "legacy_stream_seconds": legacy_stream_seconds,
            "plan_stream_seconds": plan_stream_seconds,
            "oneshot_speedup": legacy_oneshot / plan_oneshot,
            "stream_speedup": stream_speedup,
            "flags_identical": flags_identical,
            "verdicts_identical": verdicts_identical,
        },
    )

    assert flags_identical, "plan-encoded validate() changed flags vs the legacy encode"
    assert verdicts_identical, "streamed plan path changed the stream verdict"
    if scale.name not in ("smoke", "fast"):
        assert stream_speedup >= E2E_SPEEDUP_BAR, (
            f"streamed end-to-end speedup {stream_speedup:.2f}x below the "
            f"{E2E_SPEEDUP_BAR}x acceptance bar"
        )
