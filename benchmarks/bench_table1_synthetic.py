"""Table 1 — synthetic-error detection (Hotel Booking + Credit Card).

Regenerates the paper's Table 1: accuracy/recall of all seven method
configurations on ordinary (N/S/M) and hidden-conflict errors, and
benchmarks DQuaG's per-batch validation — the operation the table's
protocol runs 100× per scenario.
"""

from __future__ import annotations

import pytest

from repro.experiments import get_pipeline, get_splits, run_table1

from benchmarks.conftest import emit_result


@pytest.fixture(scope="module")
def table1_result(scale):
    result = run_table1(scale=scale, seed=0)
    emit_result("table1", result.render())
    return result


def test_table1_shape_holds(table1_result, benchmark, scale):
    """Assert the paper's qualitative claims, then time batch validation."""
    r = table1_result
    # DQuaG detects every ordinary error family and the hotel conflict.
    for dataset, scenario in [
        ("hotel", "N"), ("hotel", "S"), ("hotel", "M"), ("hotel", "Conflicts"),
        ("credit", "N"), ("credit", "S"), ("credit", "M"),
    ]:
        assert r.accuracy(dataset, scenario, "dquag") >= 0.88, (dataset, scenario)
        assert r.recall(dataset, scenario, "dquag") >= 0.88, (dataset, scenario)
    # The credit conflicts are the subtlest scenarios: the injectors keep
    # every forced marginal deep in-range, which also thins the model's
    # signal — still far above the rule systems' zero (see
    # README.md#credit-conflict-and-sample-size-variance).
    for scenario in ("Conflicts-1", "Conflicts-2"):
        assert r.accuracy("credit", scenario, "dquag") >= 0.75, scenario
        assert r.recall("credit", scenario, "dquag") >= 0.6, scenario
        assert r.recall("credit", scenario, "dquag") > r.recall("credit", scenario, "deequ_expert")

    # Expert-tuned rule systems ace ordinary errors...
    for dataset in ("hotel", "credit"):
        for method in ("deequ_expert", "tfdv_expert"):
            acc, rec = r.ordinary_average(dataset, method)
            assert acc >= 0.9 and rec >= 0.9, (dataset, method)
    # ...but are blind to hidden conflicts (recall 0, accuracy ~0.5).
    for dataset, scenario in [("hotel", "Conflicts"), ("credit", "Conflicts-1"), ("credit", "Conflicts-2")]:
        for method in ("deequ_expert", "tfdv_expert"):
            assert r.recall(dataset, scenario, method) <= 0.1, (dataset, scenario, method)
            assert r.accuracy(dataset, scenario, method) <= 0.6, (dataset, scenario, method)

    # Deequ auto is too strict: perfect recall, coin-flip accuracy.
    for dataset in ("hotel", "credit"):
        _, rec = r.ordinary_average(dataset, "deequ_auto")
        acc, _ = r.ordinary_average(dataset, "deequ_auto")
        assert rec == 1.0
        assert acc <= 0.65, dataset

    # TFDV auto misses float-column numeric anomalies on Credit (recall
    # near zero — a small residue can leak through the drift comparator)
    # while catching Hotel's small-int ones: the paper's asymmetry.
    assert r.recall("credit", "N", "tfdv_auto") <= 0.25
    assert r.recall("hotel", "N", "tfdv_auto") >= 0.9

    # Benchmark: one DQuaG batch validation (the protocol's inner loop).
    splits = get_splits("hotel", scale, 0)
    pipeline = get_pipeline("hotel", scale, 0)
    batch = splits.evaluation.sample(splits.batch_size, rng=123)
    benchmark(lambda: pipeline.validate_batch(batch))
