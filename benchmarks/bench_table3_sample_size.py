"""Table 3 — accuracy vs validation sample size (§4.5).

Regenerates the sample-size sweep (10 → 1000 rows per batch) on Airbnb,
Bicycle, and NY Taxi, and benchmarks small-batch validation — the regime
the paper identifies as DQuaG's limitation.
"""

from __future__ import annotations

import pytest

from repro.experiments import get_pipeline, get_splits, run_table3
from repro.experiments.sample_size import DEFAULT_SAMPLE_SIZES

from benchmarks.conftest import emit_result


@pytest.fixture(scope="module")
def table3_result(scale):
    result = run_table3(scale=scale, seed=0)
    emit_result("table3", result.render())
    return result


def test_table3_shape_holds(table3_result, benchmark, scale):
    r = table3_result
    for dataset in ("airbnb", "bicycle", "taxi"):
        accuracies = r.accuracies(dataset)
        sizes = sorted(accuracies)
        # Large batches classify near-perfectly (paper: 100% by 500; the
        # 6% cutoff leaves ~1% binomial noise at 500 rows, see
        # README.md#credit-conflict-and-sample-size-variance).
        for size in sizes:
            if size >= 500:
                assert accuracies[size] >= 0.9, (dataset, size)
        # The trend is upward: the largest size beats the smallest.
        assert accuracies[sizes[-1]] >= accuracies[sizes[0]], dataset
        # Small batches are noticeably weaker than large ones on at least
        # one dataset (the paper's stated limitation) — checked globally
        # below rather than per-dataset to avoid seed sensitivity.
    smallest = min(DEFAULT_SAMPLE_SIZES)
    small_accs = [r.accuracy(d, smallest) for d in ("airbnb", "bicycle", "taxi") if (d, smallest) in r.metrics]
    assert min(small_accs) < 1.0, "10-row batches should not be perfectly classified"

    # Benchmark: validation of a 10-row micro-batch.
    splits = get_splits("airbnb", scale, 0)
    pipeline = get_pipeline("airbnb", scale, 0)
    micro = splits.evaluation.sample(10, rng=11)
    benchmark(lambda: pipeline.validate_batch(micro))
