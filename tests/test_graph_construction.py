"""Tests for feature-graph construction: graph container, statistical
inference, and the LLM-protocol providers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.data import ColumnKind, ColumnSpec, Table, TableSchema
from repro.exceptions import GraphConstructionError
from repro.graph import (
    FeatureGraph,
    FeatureGraphBuilder,
    HybridProvider,
    KnowledgeBaseProvider,
    StatisticalProvider,
    StatisticalRelationshipInference,
    build_prompt,
    correlation_ratio,
    cramers_v,
    parse_relationships_json,
)


@pytest.fixture
def correlated_table() -> Table:
    """x and y strongly dependent; z independent noise; c determined by x."""
    rng = np.random.default_rng(0)
    n = 600
    x = rng.normal(size=n)
    y = 2.0 * x + rng.normal(scale=0.1, size=n)
    z = rng.normal(size=n)
    c = np.where(x > 0, "pos", "neg")
    schema = TableSchema(
        [
            ColumnSpec("x", ColumnKind.NUMERIC),
            ColumnSpec("y", ColumnKind.NUMERIC),
            ColumnSpec("z", ColumnKind.NUMERIC),
            ColumnSpec("c", ColumnKind.CATEGORICAL),
        ]
    )
    return Table(schema, {"x": x, "y": y, "z": z, "c": c})


class TestFeatureGraph:
    def test_basic_construction(self):
        g = FeatureGraph(["a", "b", "c"], [("a", "b")])
        assert g.n_nodes == 3 and g.n_edges == 1
        assert g.has_edge("b", "a")  # undirected

    def test_unknown_feature_edge_rejected(self):
        g = FeatureGraph(["a", "b"])
        with pytest.raises(GraphConstructionError):
            g.add_edge("a", "zzz")

    def test_self_loop_rejected(self):
        g = FeatureGraph(["a", "b"])
        with pytest.raises(GraphConstructionError):
            g.add_edge("a", "a")

    def test_duplicate_features_rejected(self):
        with pytest.raises(GraphConstructionError):
            FeatureGraph(["a", "a"])

    def test_neighbors_and_degree(self):
        g = FeatureGraph(["a", "b", "c"], [("a", "b"), ("a", "c")])
        assert g.neighbors("a") == ["b", "c"]
        assert g.degree("a") == 2 and g.degree("b") == 1

    def test_adjacency_symmetry(self):
        g = FeatureGraph(["a", "b", "c"], [("a", "c")])
        adj = g.adjacency()
        np.testing.assert_array_equal(adj, adj.T)
        assert adj[0, 2] == 1.0 and adj[0, 1] == 0.0
        assert np.trace(adj) == 0.0

    def test_adjacency_self_loops(self):
        g = FeatureGraph(["a", "b"], [("a", "b")])
        assert np.trace(g.adjacency(self_loops=True)) == 2.0

    def test_normalized_adjacency_rows(self):
        g = FeatureGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        norm = g.normalized_adjacency()
        np.testing.assert_array_equal(norm, norm.T)
        eigenvalues = np.linalg.eigvalsh(norm)
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_attention_mask_includes_self(self):
        g = FeatureGraph(["a", "b"], [])
        mask = g.attention_mask()
        assert mask[0, 0] and mask[1, 1] and not mask[0, 1]

    def test_isolated_connection_hub(self):
        g = FeatureGraph(["a", "b", "c", "d"], [("a", "b"), ("a", "c")])
        fixed = g.with_isolated_connected()
        assert fixed.degree("d") == 1
        assert fixed.has_edge("d", "a")  # hub = highest degree

    def test_no_isolates_is_noop(self):
        g = FeatureGraph(["a", "b"], [("a", "b")])
        assert g.with_isolated_connected() is g

    def test_dict_roundtrip(self):
        g = FeatureGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert FeatureGraph.from_dict(g.to_dict()) == g

    def test_networkx_roundtrip(self):
        pytest.importorskip("networkx")  # the optional ``graph`` extra
        g = FeatureGraph(["a", "b", "c"], [("a", "c")])
        g2 = FeatureGraph.from_networkx(g.to_networkx())
        assert g2.has_edge("a", "c") and g2.n_nodes == 3

    def test_density(self):
        g = FeatureGraph(["a", "b", "c"], [("a", "b")])
        assert g.density() == pytest.approx(1 / 3)


class TestAssociationMeasures:
    def test_cramers_v_perfect_dependence(self):
        a = np.array(["x", "x", "y", "y"] * 50, dtype=object)
        assert cramers_v(a, a.copy()) > 0.9

    def test_cramers_v_independence(self):
        rng = np.random.default_rng(1)
        a = np.array(rng.choice(["x", "y"], size=2000), dtype=object)
        b = np.array(rng.choice(["p", "q"], size=2000), dtype=object)
        assert cramers_v(a, b) < 0.1

    def test_cramers_v_handles_missing(self):
        a = np.array(["x", None, "y"], dtype=object)
        b = np.array(["p", "q", None], dtype=object)
        assert cramers_v(a, b) == 0.0  # one complete pair left -> degenerate

    def test_correlation_ratio_strong(self):
        cats = np.array(["a"] * 100 + ["b"] * 100, dtype=object)
        values = np.concatenate([np.zeros(100), np.ones(100)])
        assert correlation_ratio(cats, values) > 0.95

    def test_correlation_ratio_none(self):
        rng = np.random.default_rng(2)
        cats = np.array(rng.choice(["a", "b"], size=1000), dtype=object)
        values = rng.normal(size=1000)
        assert correlation_ratio(cats, values) < 0.15

    def test_correlation_ratio_constant_values(self):
        cats = np.array(["a", "b"], dtype=object)
        assert correlation_ratio(cats, np.ones(2)) == 0.0


class TestStatisticalInference:
    def test_detects_strong_pairs_only(self, correlated_table):
        graph = StatisticalRelationshipInference(threshold=0.3).infer(correlated_table)
        assert graph.has_edge("x", "y")
        assert graph.has_edge("x", "c")
        assert not graph.has_edge("x", "z") or graph.degree("z") == 1  # z only via isolate-fix

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            StatisticalRelationshipInference(threshold=1.5)

    def test_max_degree_cap(self, correlated_table):
        inference = StatisticalRelationshipInference(threshold=0.0, max_degree=1)
        graph = inference.infer(correlated_table)
        assert max(graph.degree(n) for n in graph.features) <= 2  # +1 possible via isolate fix

    def test_scores_cover_all_pairs(self, correlated_table):
        scores = StatisticalRelationshipInference().score_pairs(correlated_table)
        assert len(scores) == 6  # C(4,2)
        assert all(0.0 <= s.score <= 1.0 + 1e-9 for s in scores)

    def test_deterministic_with_sampling(self, correlated_table):
        inference = StatisticalRelationshipInference(sample_limit=100, seed=5)
        assert inference.infer(correlated_table) == inference.infer(correlated_table)


class TestLLMProtocol:
    def test_prompt_contains_all_sections(self, correlated_table):
        prompt = build_prompt(
            correlated_table.schema.names,
            correlated_table.schema.descriptions,
            [correlated_table.row(0)],
        )
        assert "Feature Names:" in prompt
        assert '"relationships"' in prompt
        assert "x" in prompt

    def test_parse_valid_payload(self):
        payload = json.dumps({"relationships": [{"feature1": "a", "feature2": "b"}, ["b", "c"]]})
        edges = parse_relationships_json(payload, ["a", "b", "c"])
        assert edges == [("a", "b"), ("b", "c")]

    def test_parse_invalid_json(self):
        with pytest.raises(GraphConstructionError):
            parse_relationships_json("not json", ["a"])

    def test_parse_missing_key(self):
        with pytest.raises(GraphConstructionError):
            parse_relationships_json(json.dumps({"edges": []}), ["a"])

    def test_parse_unknown_feature(self):
        payload = json.dumps({"relationships": [{"feature1": "a", "feature2": "zzz"}]})
        with pytest.raises(GraphConstructionError):
            parse_relationships_json(payload, ["a", "b"])

    def test_parse_self_pair(self):
        payload = json.dumps({"relationships": [{"feature1": "a", "feature2": "a"}]})
        with pytest.raises(GraphConstructionError):
            parse_relationships_json(payload, ["a"])

    def test_knowledge_provider_replays_registration(self, correlated_table):
        provider = KnowledgeBaseProvider()
        provider.register(correlated_table.schema.names, [("x", "y")])
        graph = FeatureGraphBuilder(provider).build(correlated_table)
        assert graph.has_edge("x", "y")

    def test_knowledge_provider_unknown_schema(self, correlated_table):
        provider = KnowledgeBaseProvider()
        with pytest.raises(GraphConstructionError):
            FeatureGraphBuilder(provider).build(correlated_table)

    def test_statistical_provider_end_to_end(self, correlated_table):
        graph = FeatureGraphBuilder(StatisticalProvider()).build(correlated_table)
        assert graph.has_edge("x", "y")
        assert not graph.isolated_features()

    def test_hybrid_provider_unions_edges(self, correlated_table):
        knowledge = KnowledgeBaseProvider()
        # Register a semantic edge statistics would never find (z is noise).
        knowledge.register(correlated_table.schema.names, [("z", "c")])
        graph = FeatureGraphBuilder(HybridProvider(knowledge)).build(correlated_table)
        assert graph.has_edge("z", "c")  # knowledge edge
        assert graph.has_edge("x", "y")  # statistical edge

    def test_hybrid_provider_without_knowledge_falls_back(self, correlated_table):
        graph = FeatureGraphBuilder(HybridProvider(KnowledgeBaseProvider())).build(correlated_table)
        assert graph.has_edge("x", "y")

    def test_builder_empty_table_rejected(self, correlated_table):
        empty = correlated_table.take(np.array([], dtype=int))
        with pytest.raises(GraphConstructionError):
            FeatureGraphBuilder(StatisticalProvider()).build(empty)

    def test_builder_sample_size_respected(self, correlated_table):
        captured = {}

        class SpyProvider:
            def complete(self, prompt: str, table: Table) -> str:
                captured["prompt"] = prompt
                return json.dumps({"relationships": [{"feature1": "x", "feature2": "y"}]})

        FeatureGraphBuilder(SpyProvider(), sample_size=10).build(correlated_table)
        # 10 sampled rows serialized into the prompt
        assert captured["prompt"].count('"x"') >= 1
