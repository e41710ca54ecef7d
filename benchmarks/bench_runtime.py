"""Runtime benchmarks — compiled engine vs autograd, streaming throughput.

Quantifies what the ``repro.runtime`` subsystem buys on the paper's
Figure 4 serving workload (NY Taxi, 18 dims, fixed 10k-row slab):

* ``test_engine_speedup`` — compiled :class:`InferenceEngine` vs the
  seed's autograd forward on identical inputs, with flag parity checked;
* ``test_streaming_throughput`` — chunked bounded-memory validation of
  a large table (10⁶ rows under ``REPRO_FULL_SCALE=1``).

Run with ``REPRO_SCALE=smoke`` for a CI-sized pass.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.core import DQuaG, DQuaGConfig
from repro.datasets import TaxiGenerator
from repro.experiments.reporting import ResultTable
from repro.utils.timing import Timer

from benchmarks.conftest import emit_result

SLAB_ROWS = 10_000
SLAB_DIMS = 18


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        with Timer() as timer:
            fn()
        best = min(best, timer.elapsed)
    return best


@pytest.fixture(scope="module")
def runtime_setup(scale):
    generator = TaxiGenerator()
    columns = TaxiGenerator.dimension_subsets()[SLAB_DIMS]
    train = generator.generate_clean(scale.train_rows, rng=1).select(columns)
    slab = generator.generate_clean(SLAB_ROWS, rng=2).select(columns)
    # The serving model is always the paper-sized one (hidden 64, §4.4):
    # REPRO_SCALE shrinks training cost, not the benchmarked workload.
    config = DQuaGConfig(hidden_dim=64, epochs=max(scale.epochs // 4, 2), seed=0)
    pipeline = DQuaG(config).fit(train, rng=0, knowledge_edges=[
        (a, b) for a, b in generator.knowledge_edges() if a in columns and b in columns
    ])
    return generator, columns, pipeline, slab


def test_engine_speedup(runtime_setup, scale):
    """Acceptance: engine ≥ 3× over the seed autograd path, same flags."""
    _, _, pipeline, slab = runtime_setup
    engine = pipeline.engine
    assert engine is not None
    matrix = pipeline.preprocessor.transform(slab)

    # The seed serving path: autograd forward (both decoders) + report.
    def autograd_validate(m):
        return engine.assemble(pipeline.model.reconstruction_errors(m))

    engine.validate_matrix(matrix)  # warm buffers
    autograd_validate(matrix)
    engine_seconds = _best_of(lambda: engine.validate_matrix(matrix))
    autograd_seconds = _best_of(lambda: autograd_validate(matrix))
    speedup = autograd_seconds / engine_seconds

    engine_report = engine.validate_matrix(matrix)
    autograd_report = autograd_validate(matrix)
    flags_identical = bool(
        np.array_equal(engine_report.row_flags, autograd_report.row_flags)
        and np.array_equal(engine_report.cell_flags, autograd_report.cell_flags)
    )
    max_error_delta = float(
        np.abs(engine_report.cell_errors - autograd_report.cell_errors).max()
    )

    table = ResultTable(
        f"Runtime — engine vs autograd on the Figure-4 slab "
        f"({SLAB_ROWS} rows, {SLAB_DIMS} dims, scale={scale.name})",
        ["path", "seconds", "rows/s"],
    )
    table.add_row("autograd (seed)", autograd_seconds, int(SLAB_ROWS / autograd_seconds))
    table.add_row("compiled engine", engine_seconds, int(SLAB_ROWS / engine_seconds))
    table.add_note(f"speedup: {speedup:.2f}x")
    table.add_note(f"flags identical: {flags_identical}; max |Δ cell error| = {max_error_delta:.2e}")
    emit_result(
        "runtime_engine",
        table.render(),
        data={
            "scale": scale.name,
            "rows": SLAB_ROWS,
            "dims": SLAB_DIMS,
            "autograd_seconds": autograd_seconds,
            "engine_seconds": engine_seconds,
            "speedup": speedup,
            "flags_identical": flags_identical,
            "max_error_delta": max_error_delta,
        },
    )

    assert flags_identical
    assert max_error_delta < 1e-10
    assert speedup >= 3.0, f"engine speedup {speedup:.2f}x below the 3x acceptance bar"


def test_streaming_throughput(runtime_setup, scale):
    """Bounded-memory validation of a large table, chunk by chunk."""
    generator, columns, pipeline, _ = runtime_setup
    n_rows = 1_000_000 if os.environ.get("REPRO_FULL_SCALE") else 100_000
    chunk_rows = 8192
    streaming = pipeline.streaming_validator(chunk_size=chunk_rows)

    def chunk_source():
        # Generate chunk-by-chunk: the full table never materializes,
        # mirroring a row-stream from repro.data.io.read_csv_chunks.
        produced = 0
        index = 0
        while produced < n_rows:
            size = min(chunk_rows, n_rows - produced)
            yield generator.generate_clean(size, rng=1000 + index).select(columns)
            produced += size
            index += 1

    start = time.perf_counter()
    summary = streaming.validate_stream(chunk_source())
    elapsed = time.perf_counter() - start

    table = ResultTable(
        f"Runtime — streaming validation throughput (scale={scale.name})",
        ["rows", "chunks", "seconds", "rows/s"],
    )
    table.add_row(summary.n_rows, summary.n_chunks, elapsed, int(summary.n_rows / elapsed))
    table.add_note(f"{summary.summary()}")
    table.add_note(
        "memory: O(chunk × features) — the dense error matrix is never materialized"
    )
    emit_result(
        "runtime_streaming",
        table.render(),
        data={
            "scale": scale.name,
            "rows": summary.n_rows,
            "chunks": summary.n_chunks,
            "seconds": elapsed,
            "rows_per_second": summary.n_rows / elapsed,
            "flagged_fraction": summary.flagged_fraction,
        },
    )

    assert summary.n_rows == n_rows
    assert summary.n_chunks == -(-n_rows // chunk_rows)
    # Clean data: the flag rate stays near the calibrated 1 - percentile.
    assert summary.flagged_fraction < 0.15
