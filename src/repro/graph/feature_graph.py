"""The knowledge-based feature graph G = (V, E) of §3.1.1.

Nodes are the columns of a table; undirected edges mark inferred
relationships between columns. The graph is consumed by the GNN encoder
as dense adjacency matrices (feature graphs are small — one node per
column — so dense message passing is exact).

``networkx`` is imported inside ``to_networkx`` only: every serving
process (gateway, router, replica) loads this module, and those
processes only run Phase 2, so they must not pay for interop code. It
is an optional dependency (the ``graph`` extra).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.exceptions import GraphConstructionError

if TYPE_CHECKING:  # pragma: no cover - annotations only
    import networkx as nx

__all__ = ["FeatureGraph"]


class FeatureGraph:
    """An undirected graph over feature (column) names."""

    def __init__(self, features: list[str], edges: Iterable[tuple[str, str]] = ()) -> None:
        if not features:
            raise GraphConstructionError("feature graph needs at least one feature")
        if len(set(features)) != len(features):
            raise GraphConstructionError("duplicate feature names")
        self.features = list(features)
        self._index = {name: i for i, name in enumerate(self.features)}
        self._edges: set[tuple[str, str]] = set()
        for a, b in edges:
            self.add_edge(a, b)

    # -- mutation -----------------------------------------------------------
    def add_edge(self, a: str, b: str) -> None:
        """Add an undirected edge; self-loops and unknown features are rejected."""
        if a not in self._index or b not in self._index:
            unknown = [n for n in (a, b) if n not in self._index]
            raise GraphConstructionError(f"edge references unknown features: {unknown}")
        if a == b:
            raise GraphConstructionError(f"self-loop on {a!r} not allowed (added separately in layers)")
        self._edges.add((min(a, b), max(a, b)))

    # -- inspection ------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self.features)

    @property
    def edges(self) -> list[tuple[str, str]]:
        return sorted(self._edges)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def has_edge(self, a: str, b: str) -> bool:
        return (min(a, b), max(a, b)) in self._edges

    def neighbors(self, name: str) -> list[str]:
        if name not in self._index:
            raise GraphConstructionError(f"unknown feature {name!r}")
        return sorted({b if a == name else a for a, b in self._edges if name in (a, b)})

    def degree(self, name: str) -> int:
        return len(self.neighbors(name))

    def isolated_features(self) -> list[str]:
        return [name for name in self.features if self.degree(name) == 0]

    def density(self) -> float:
        n = self.n_nodes
        if n < 2:
            return 0.0
        return self.n_edges / (n * (n - 1) / 2)

    def __repr__(self) -> str:
        return f"FeatureGraph(nodes={self.n_nodes}, edges={self.n_edges})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FeatureGraph)
            and self.features == other.features
            and self._edges == other._edges
        )

    # -- matrix views ---------------------------------------------------------
    def adjacency(self, self_loops: bool = False, dtype=np.float64) -> np.ndarray:
        """Dense (n, n) adjacency matrix in feature order."""
        n = self.n_nodes
        adj = np.zeros((n, n), dtype=dtype)
        for a, b in self._edges:
            i, j = self._index[a], self._index[b]
            adj[i, j] = adj[j, i] = 1.0
        if self_loops:
            adj[np.diag_indices(n)] = 1.0
        return adj

    def normalized_adjacency(self) -> np.ndarray:
        """Symmetric GCN normalization D^{-1/2}(A + I)D^{-1/2}."""
        adj = self.adjacency(self_loops=True)
        degree = adj.sum(axis=1)
        inv_sqrt = 1.0 / np.sqrt(np.maximum(degree, 1e-12))
        return adj * inv_sqrt[:, None] * inv_sqrt[None, :]

    def attention_mask(self) -> np.ndarray:
        """Boolean (n, n) mask of allowed attention pairs (edges + self)."""
        return self.adjacency(self_loops=True).astype(bool)

    # -- interop ---------------------------------------------------------------
    def to_networkx(self) -> nx.Graph:
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.features)
        graph.add_edges_from(self._edges)
        return graph

    @staticmethod
    def from_networkx(graph: nx.Graph) -> "FeatureGraph":
        return FeatureGraph(sorted(graph.nodes), graph.edges)

    def to_dict(self) -> dict:
        """JSON-serializable form (matches the paper's relationships schema)."""
        return {
            "features": self.features,
            "relationships": [{"feature1": a, "feature2": b} for a, b in self.edges],
        }

    @staticmethod
    def from_dict(payload: dict) -> "FeatureGraph":
        try:
            features = payload["features"]
            relationships = payload["relationships"]
        except KeyError as exc:
            raise GraphConstructionError(f"missing key in feature-graph payload: {exc}") from exc
        edges = [(rel["feature1"], rel["feature2"]) for rel in relationships]
        return FeatureGraph(features, edges)

    # -- repairs -----------------------------------------------------------------
    def with_isolated_connected(self, anchor_strategy: str = "hub") -> "FeatureGraph":
        """Return a copy where isolated nodes get fallback edges.

        GNN message passing over an isolated node degenerates to a self-MLP;
        connecting isolates to the highest-degree node ("hub") or in a chain
        ("chain") keeps gradients flowing. Does nothing if no isolates exist.
        """
        isolates = self.isolated_features()
        if not isolates:
            return self
        clone = FeatureGraph(self.features, self._edges)
        if anchor_strategy == "hub":
            ranked = sorted(self.features, key=lambda n: (-self.degree(n), n))
            hub = ranked[0]
            for name in isolates:
                if name != hub:
                    clone.add_edge(name, hub)
                elif len(ranked) > 1:
                    clone.add_edge(name, ranked[1])
        elif anchor_strategy == "chain":
            ordered = [n for n in self.features]
            for a, b in zip(ordered[:-1], ordered[1:]):
                if a in isolates or b in isolates:
                    clone.add_edge(a, b)
        else:
            raise GraphConstructionError(f"unknown anchor strategy {anchor_strategy!r}")
        return clone
