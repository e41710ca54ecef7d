"""The ChatGPT-4 feature-relationship protocol, offline (paper §3.1.1).

The paper sends feature names ``F``, descriptions ``D``, and 100 sampled
rows ``S`` to ChatGPT-4 in a structured prompt, and receives a JSON object
``{"relationships": [{"feature1": ..., "feature2": ...}, ...]}``.

This module reproduces the *entire protocol* — prompt construction,
provider invocation, JSON parsing, validation — with pluggable providers
standing in for the LLM (README.md#offline-substitutes):

* :class:`KnowledgeBaseProvider` — curated per-dataset relationship sets
  playing the role of the LLM's world knowledge (e.g. city ↔ country);
* :class:`StatisticalProvider` — adapts
  :class:`~repro.graph.inference.StatisticalRelationshipInference` to the
  provider interface;
* :class:`HybridProvider` — union of both, which is what a strong LLM
  that also inspects the sample rows would produce.

A real LLM client could implement :class:`RelationshipProvider` with no
changes anywhere else.
"""

from __future__ import annotations

import json
from typing import Protocol

from repro.data.table import Table
from repro.exceptions import GraphConstructionError
from repro.graph.feature_graph import FeatureGraph
from repro.graph.inference import StatisticalRelationshipInference

__all__ = [
    "PROMPT_TEMPLATE",
    "build_prompt",
    "parse_relationships_json",
    "RelationshipProvider",
    "KnowledgeBaseProvider",
    "StatisticalProvider",
    "HybridProvider",
    "FeatureGraphBuilder",
]

# The paper's prompt, §3.1.1 ("Prompt for Feature Relationship Inference").
PROMPT_TEMPLATE = """Given the following information, please infer the relationships
between features. Provide your output in JSON format, capturing
the type of relationships.

Feature Names: {feature_names}
Feature Descriptions: {feature_descriptions}
Sample Data Points: {sample_points}

Output: Please return a JSON object in the format:
{{"relationships": [{{"feature1": ..., "feature2": ...}},
{{"feature1": ..., "feature2": ...}}, ...]}}"""


def build_prompt(feature_names: list[str], descriptions: dict[str, str], samples: list[dict]) -> str:
    """Render the structured prompt from (F, D, S)."""
    return PROMPT_TEMPLATE.format(
        feature_names=json.dumps(feature_names),
        feature_descriptions=json.dumps(descriptions),
        sample_points=json.dumps(samples, default=str),
    )


def parse_relationships_json(payload: str, known_features: list[str]) -> list[tuple[str, str]]:
    """Parse and validate a provider's JSON reply.

    Tolerates the two shapes seen in the wild: objects with
    ``feature1``/``feature2`` keys and 2-element lists. Unknown feature
    names and self-pairs are rejected with :class:`GraphConstructionError`.
    """
    try:
        document = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise GraphConstructionError(f"provider returned invalid JSON: {exc}") from exc
    if not isinstance(document, dict) or "relationships" not in document:
        raise GraphConstructionError("provider reply missing 'relationships' key")
    known = set(known_features)
    edges: list[tuple[str, str]] = []
    for item in document["relationships"]:
        if isinstance(item, dict):
            try:
                a, b = item["feature1"], item["feature2"]
            except KeyError as exc:
                raise GraphConstructionError(f"relationship entry missing key: {exc}") from exc
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            a, b = item
        else:
            raise GraphConstructionError(f"unparseable relationship entry: {item!r}")
        if a not in known or b not in known:
            raise GraphConstructionError(f"relationship references unknown feature: {(a, b)}")
        if a == b:
            raise GraphConstructionError(f"self-relationship on {a!r}")
        edges.append((a, b))
    return edges


class RelationshipProvider(Protocol):
    """Anything that can answer the feature-relationship prompt."""

    def complete(self, prompt: str, table: Table) -> str:
        """Return the JSON reply for ``prompt`` (the sampled table is
        passed for providers that compute rather than recall)."""
        ...


class KnowledgeBaseProvider:
    """Replays curated semantic relationships for a known schema.

    The knowledge base maps frozensets of feature names → edge lists and
    is populated by each dataset simulator (``repro.datasets``) with the
    relationships a domain expert / LLM would state.
    """

    def __init__(self, knowledge: dict[frozenset, list[tuple[str, str]]] | None = None) -> None:
        self._knowledge: dict[frozenset, list[tuple[str, str]]] = dict(knowledge or {})

    def register(self, feature_names: list[str], edges: list[tuple[str, str]]) -> None:
        self._knowledge[frozenset(feature_names)] = list(edges)

    def complete(self, prompt: str, table: Table) -> str:
        key = frozenset(table.schema.names)
        if key not in self._knowledge:
            raise GraphConstructionError(
                f"no knowledge registered for schema {sorted(key)}; "
                "register edges or use StatisticalProvider/HybridProvider"
            )
        edges = self._knowledge[key]
        return json.dumps({"relationships": [{"feature1": a, "feature2": b} for a, b in edges]})


class StatisticalProvider:
    """Computes relationships from the sampled rows (no prior knowledge)."""

    def __init__(self, inference: StatisticalRelationshipInference | None = None) -> None:
        self.inference = inference or StatisticalRelationshipInference()

    def complete(self, prompt: str, table: Table) -> str:
        graph = self.inference.infer(table)
        return json.dumps({"relationships": [{"feature1": a, "feature2": b} for a, b in graph.edges]})


class HybridProvider:
    """Union of knowledge-base and statistical edges (the LLM-like default)."""

    def __init__(
        self,
        knowledge: KnowledgeBaseProvider,
        inference: StatisticalRelationshipInference | None = None,
    ) -> None:
        self.knowledge = knowledge
        self.statistical = StatisticalProvider(inference)

    def complete(self, prompt: str, table: Table) -> str:
        edges: set[tuple[str, str]] = set()
        try:
            known = parse_relationships_json(self.knowledge.complete(prompt, table), table.schema.names)
            edges.update((min(a, b), max(a, b)) for a, b in known)
        except GraphConstructionError:
            pass  # no curated knowledge for this schema — fall back to statistics
        stat = parse_relationships_json(self.statistical.complete(prompt, table), table.schema.names)
        edges.update((min(a, b), max(a, b)) for a, b in stat)
        return json.dumps({"relationships": [{"feature1": a, "feature2": b} for a, b in sorted(edges)]})


class FeatureGraphBuilder:
    """End-to-end §3.1.1: sample rows, build prompt, query provider, parse.

    >>> builder = FeatureGraphBuilder(StatisticalProvider())
    >>> graph = builder.build(clean_table)   # doctest: +SKIP
    """

    def __init__(
        self,
        provider: RelationshipProvider,
        sample_size: int = 100,
        seed: int = 0,
    ) -> None:
        self.provider = provider
        self.sample_size = sample_size
        self.seed = seed

    def build(self, table: Table) -> FeatureGraph:
        if table.n_rows == 0:
            raise GraphConstructionError("cannot build a feature graph from an empty table")
        sample = table.sample(min(self.sample_size, table.n_rows), rng=self.seed)
        samples_as_dicts = [sample.row(i) for i in range(sample.n_rows)]
        prompt = build_prompt(table.schema.names, table.schema.descriptions, samples_as_dicts)
        reply = self.provider.complete(prompt, table)
        edges = parse_relationships_json(reply, table.schema.names)
        graph = FeatureGraph(table.schema.names, edges)
        return graph.with_isolated_connected()
