"""Design-choice ablations, beyond the paper's Table 2.

Isolates the weighted validation loss, the feature-graph source, and the
threshold percentile on the hidden-conflict scenario, and benchmarks one
training epoch of the default configuration (see
README.md#interpretability-and-ablations).
"""

from __future__ import annotations

import pytest

from repro.core import DQuaGModel, DQuaGConfig, Trainer
from repro.experiments import get_splits
from repro.experiments.ablations import run_ablations

from benchmarks.conftest import emit_result


@pytest.fixture(scope="module")
def ablation_result(scale):
    result = run_ablations(scale=scale, seed=0)
    emit_result("ablations", result.render())
    return result


def test_ablations_shape_holds(ablation_result, benchmark, scale):
    r = ablation_result

    # Every variant must separate dirty from clean on hidden conflicts.
    for row in r.rows:
        assert row.separation > 0, (row.ablation, row.variant)

    # Lower threshold percentile → more clean rows flagged (monotone).
    percentiles = r.by_variant("threshold percentile")
    assert percentiles["p90"].clean_flag_rate >= percentiles["p95"].clean_flag_rate
    assert percentiles["p95"].clean_flag_rate >= percentiles["p99"].clean_flag_rate

    # The informed graphs should not lose to the uninformative star.
    graphs = r.by_variant("feature graph")
    informed_best = max(graphs["hybrid (paper)"].separation, graphs["statistics only"].separation)
    assert informed_best >= graphs["star (no inference)"].separation * 0.8

    # Benchmark: one training epoch of the default model.
    splits = get_splits("hotel", scale, 0)
    config = DQuaGConfig(hidden_dim=scale.hidden_dim, epochs=1, seed=0)
    from repro.graph import StatisticalRelationshipInference

    graph = StatisticalRelationshipInference().infer(splits.train)
    model = DQuaGModel(graph, config, rng=0)
    trainer = Trainer(model, config)
    from repro.data import TablePreprocessor

    matrix = TablePreprocessor(splits.train.schema).fit(splits.train).transform(splits.train)
    benchmark.pedantic(lambda: trainer.train(matrix, rng=0, epochs=1), rounds=3, iterations=1)
