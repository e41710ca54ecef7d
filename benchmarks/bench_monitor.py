"""Drift-monitor benchmarks: overhead on the streaming path + detection.

Acceptance bars:

* ``test_monitor_overhead`` — attaching a :class:`DriftMonitor` to the
  streaming validator costs ≤ 5% wall-clock on the Figure-4 serving
  slab (the monitor reuses the preprocessed matrix each chunk already
  paid for; its own work is one ``searchsorted`` pass per column);
* ``test_drift_detection`` — an out-of-distribution stream raises
  drift on the monitor while the in-distribution stream stays quiet,
  with the full :class:`MonitorSnapshot` JSON emitted alongside the
  machine-readable ``BENCH_*.json`` records.

Run with ``REPRO_SCALE=smoke`` for a CI-sized pass.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core import DQuaG, DQuaGConfig
from repro.datasets import TaxiGenerator
from repro.experiments.reporting import ResultTable
from repro.utils.timing import Timer

from benchmarks.conftest import emit_result

SLAB_DIMS = 18
CHUNK_ROWS = 8192


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        with Timer() as timer:
            fn()
        best = min(best, timer.elapsed)
    return best


@pytest.fixture(scope="module")
def monitor_setup(scale):
    generator = TaxiGenerator()
    columns = TaxiGenerator.dimension_subsets()[SLAB_DIMS]
    train = generator.generate_clean(scale.train_rows, rng=1).select(columns)
    config = DQuaGConfig(hidden_dim=64, epochs=max(scale.epochs // 4, 2), seed=0)
    pipeline = DQuaG(config).fit(train, rng=0, knowledge_edges=[
        (a, b) for a, b in generator.knowledge_edges() if a in columns and b in columns
    ])
    n_rows = 200_000 if os.environ.get("REPRO_FULL_SCALE") else 50_000
    # Pre-transform the stream once: both timed paths then validate the
    # exact same matrices and the delta is the monitor alone.
    chunks = []
    produced = 0
    index = 0
    while produced < n_rows:
        size = min(CHUNK_ROWS, n_rows - produced)
        table = generator.generate_clean(size, rng=1000 + index).select(columns)
        chunks.append(pipeline.preprocessor.transform(table))
        produced += size
        index += 1
    return generator, columns, pipeline, chunks, n_rows


def test_monitor_overhead(monitor_setup, scale):
    """Acceptance: the monitor costs ≤ 5% on the streaming slab."""
    _, _, pipeline, chunks, n_rows = monitor_setup

    def run_without():
        return pipeline.streaming_validator(chunk_size=CHUNK_ROWS).validate_stream(chunks)

    def run_with():
        monitor = pipeline.monitor(window_chunks=32)
        return pipeline.streaming_validator(
            chunk_size=CHUNK_ROWS, monitor=monitor
        ).validate_stream(chunks)

    run_without()  # warm buffers/caches once
    bare_seconds = _best_of(run_without)
    monitored_seconds = _best_of(run_with)
    overhead = monitored_seconds / bare_seconds - 1.0

    table = ResultTable(
        f"Monitor — streaming overhead ({n_rows} rows, {SLAB_DIMS} dims, "
        f"scale={scale.name})",
        ["path", "seconds", "rows/s"],
    )
    table.add_row("streaming (bare)", bare_seconds, int(n_rows / bare_seconds))
    table.add_row("streaming + monitor", monitored_seconds, int(n_rows / monitored_seconds))
    table.add_note(f"monitor overhead: {overhead:+.2%} (bar: <= 5%)")
    emit_result(
        "monitor_overhead",
        table.render(),
        data={
            "scale": scale.name,
            "rows": n_rows,
            "dims": SLAB_DIMS,
            "bare_seconds": bare_seconds,
            "monitored_seconds": monitored_seconds,
            "overhead": overhead,
        },
    )
    if scale.name == "smoke":
        # On a CI-sized slab the 5% margin is tens of milliseconds — a
        # noisy-neighbor blip, not a code defect, can cross it.
        pytest.skip("overhead bar asserted at standard scale and above; numbers recorded")
    assert overhead <= 0.05, f"monitor overhead {overhead:.2%} exceeds the 5% bar"


def test_drift_detection(monitor_setup, scale):
    """In-distribution stays quiet; a shifted stream raises DriftAlerts."""
    generator, columns, pipeline, _, _ = monitor_setup
    monitor = pipeline.monitor(window_chunks=16)
    streaming = pipeline.streaming_validator(chunk_size=4096, monitor=monitor)

    clean = generator.generate_clean(20_000, rng=77).select(columns)
    streaming.validate_table(clean)
    clean_snapshot = monitor.snapshot()

    # Shift every numeric column by 3 clean standard deviations — the
    # kind of covariate shift TFDV-style skew checks are built for.
    shifted = generator.generate_clean(20_000, rng=78).select(columns)
    for spec in shifted.schema:
        if not spec.is_categorical:
            values = shifted.column(spec.name)
            shifted = shifted.with_column(
                spec.name, values + 3.0 * float(np.nanstd(values))
            )
    monitor.reset()
    streaming.validate_table(shifted)
    drift_snapshot = monitor.snapshot()

    table = ResultTable(
        f"Monitor — drift detection (scale={scale.name})",
        ["stream", "drift", "drifted columns", "alerts"],
    )
    table.add_row(
        "in-distribution", clean_snapshot.has_drift,
        len(clean_snapshot.drifted_columns), clean_snapshot.total_alerts,
    )
    table.add_row(
        "shifted (+3 sigma)", drift_snapshot.has_drift,
        len(drift_snapshot.drifted_columns), drift_snapshot.total_alerts,
    )
    table.add_note(drift_snapshot.summary())
    emit_result(
        "monitor_drift",
        table.render(),
        data={
            "scale": scale.name,
            "clean_drift": clean_snapshot.has_drift,
            "clean_alerts": clean_snapshot.total_alerts,
            "shifted_drift": drift_snapshot.has_drift,
            "shifted_alerts": drift_snapshot.total_alerts,
            "drifted_columns": drift_snapshot.drifted_columns,
            "snapshot": drift_snapshot.to_dict(),
        },
    )
    assert not clean_snapshot.has_drift, "clean stream must not raise drift"
    assert drift_snapshot.has_drift and drift_snapshot.total_alerts > 0
