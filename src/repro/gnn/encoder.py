"""GNN encoder assembly (paper §3.1.2 and the §4.4 ablation).

The paper's encoder alternates GAT and GIN layers (GAT-GIN-GAT-GIN).
:func:`build_encoder` also assembles the four ablation variants of
Table 2 so the comparison runs through one code path:

=============  ============================
architecture   layer sequence (4 layers)
=============  ============================
``gat_gin``    GAT, GIN, GAT, GIN  (paper)
``gcn``        GCN, GCN, GCN, GCN
``gcn_gat``    GCN, GAT, GCN, GAT
``gcn_gin``    GCN, GIN, GCN, GIN
``graph2vec``  fixed WL encoder (1 layer)
``graphsage``  SAGE ×4            (extension)
``sage_gin``   SAGE, GIN, ...     (extension)
=============  ============================
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError, KernelExportError
from repro.gnn.context import GraphContext
from repro.gnn.gat import GATConv
from repro.gnn.gcn import GCNConv
from repro.gnn.gin import GINConv
from repro.gnn.graph2vec import Graph2VecEncoder
from repro.gnn.sage import SAGEConv
from repro.graph.feature_graph import FeatureGraph
from repro.nn.module import Module
from repro.nn.tensor import Tensor
from repro.utils.rng import derive_rng, ensure_rng

__all__ = ["GNNEncoder", "build_encoder", "ENCODER_ARCHITECTURES"]

ENCODER_ARCHITECTURES = ("gat_gin", "gcn", "gcn_gat", "gcn_gin", "graph2vec", "graphsage", "sage_gin")

#: the five architectures the paper's Table 2 compares
PAPER_ARCHITECTURES = ("gat_gin", "gcn", "gcn_gat", "gcn_gin", "graph2vec")


def _np_relu(x: np.ndarray) -> np.ndarray:
    # In-place twin of Tensor.relu: max(x, 0) == x * (x > 0).
    return np.maximum(x, 0.0, out=x)


def _np_elu(x: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    # In-place twin of Tensor.elu (alpha = 1): the branch select
    # where(x > 0, x, expm1(min(x, 0))) equals max(x, expm1(min(x, 0))).
    # ``scratch`` (same shape as x) avoids two large temporaries.
    if scratch is None:
        return np.maximum(x, np.expm1(np.minimum(x, 0.0)), out=x)
    np.minimum(x, 0.0, out=scratch)
    np.expm1(scratch, out=scratch)
    return np.maximum(x, scratch, out=x)


class GNNEncoder(Module):
    """A stack of graph layers with inter-layer activations.

    GAT layers are followed by ELU (as in the GAT paper), GCN and GIN by
    ReLU; the final layer's output is left linear (the decoders apply
    their own non-linearities).
    """

    def __init__(self, layers: list[Module], activations: list[str]) -> None:
        super().__init__()
        if len(layers) != len(activations):
            raise ConfigurationError("layers and activations must align")
        self._layers = layers
        self._activations = activations
        for i, layer in enumerate(layers):
            self.register_module(f"conv{i}", layer)

    @property
    def n_layers(self) -> int:
        return len(self._layers)

    def forward(self, x: Tensor, ctx: GraphContext) -> Tensor:
        last = len(self._layers) - 1
        for i, (layer, activation) in enumerate(zip(self._layers, self._activations)):
            x = layer(x, ctx)
            if i < last:
                x = x.elu() if activation == "elu" else x.relu()
        return x

    def can_fold_embeddings(self, embeddings: np.ndarray) -> bool:
        """Whether :meth:`export_kernel` can fold constant per-feature
        embeddings into the first layer's affine (the layer must expose
        ``export_folded_kernel`` and take ``1 + embed_dim`` inputs)."""
        first = self._layers[0]
        return (
            hasattr(first, "export_folded_kernel")
            and getattr(first, "in_features", None) == 1 + int(embeddings.shape[-1])
        )

    def export_kernel(self, ctx: GraphContext, fold_embeddings: np.ndarray | None = None) -> Callable:
        """Compile the whole stack into one pure-NumPy forward function.

        Each layer contributes its own compiled kernel (weights are
        snapshotted at export time); the inter-layer ELU/ReLU pattern of
        :meth:`forward` is reproduced exactly. Activations run in place
        on the layer kernels' scratch buffers.

        With ``fold_embeddings`` (the constant ``(N, e)`` per-feature
        identity embeddings), the first layer is compiled with the
        embeddings folded into its affine — the returned kernel then
        takes the raw ``(B, N)`` value chunk instead of the
        ``(B, N, 1+e)`` node-input slab. Callers must check
        :meth:`can_fold_embeddings` first.
        """
        kernels: list[Callable] = []
        for i, layer in enumerate(self._layers):
            if i == 0 and fold_embeddings is not None:
                if not self.can_fold_embeddings(fold_embeddings):
                    raise KernelExportError(
                        f"layer {layer!r} cannot fold embeddings of shape "
                        f"{np.asarray(fold_embeddings).shape}"
                    )
                kernels.append(layer.export_folded_kernel(ctx, fold_embeddings))
                continue
            export = getattr(layer, "export_kernel", None)
            if export is None:
                raise KernelExportError(
                    f"layer {layer!r} does not implement export_kernel(); "
                    "cannot compile this encoder into an inference kernel"
                )
            kernels.append(export(ctx))
        activations = list(self._activations)
        last = len(kernels) - 1

        scratch_key = (id(self), "activation-scratch")

        def kernel(x: np.ndarray, ws=None) -> np.ndarray:
            for i, (layer_kernel, activation) in enumerate(zip(kernels, activations)):
                x = layer_kernel(x, ws)
                if i < last:
                    if activation == "elu":
                        # Only ELU needs scratch (for its expm1 branch);
                        # no local keeps it alive into the next layer.
                        x = _np_elu(x, None if ws is None else ws.get(scratch_key, x.shape))
                    else:
                        x = _np_relu(x)
            return x

        return kernel

    def attention_maps(self) -> list[np.ndarray]:
        """Most recent attention tensors from any GAT layers (may be empty)."""
        return [
            layer.last_attention
            for layer in self._layers
            if isinstance(layer, GATConv) and layer.last_attention is not None
        ]


def build_encoder(
    architecture: str,
    in_features: int,
    hidden_features: int,
    graph: FeatureGraph,
    n_layers: int = 4,
    gat_heads: int = 1,
    rng: int | np.random.Generator | None = None,
) -> GNNEncoder:
    """Construct an encoder for one of :data:`ENCODER_ARCHITECTURES`."""
    if architecture not in ENCODER_ARCHITECTURES:
        raise ConfigurationError(
            f"unknown encoder architecture {architecture!r}; choose from {ENCODER_ARCHITECTURES}"
        )
    if n_layers < 1:
        raise ConfigurationError(f"n_layers must be >= 1, got {n_layers}")
    generator = ensure_rng(rng)

    if architecture == "graph2vec":
        layer = Graph2VecEncoder(in_features, hidden_features, graph, rng=derive_rng(generator, "g2v"))
        return GNNEncoder([layer], ["relu"])

    pattern = {
        "gat_gin": ["gat", "gin"],
        "gcn": ["gcn"],
        "gcn_gat": ["gcn", "gat"],
        "gcn_gin": ["gcn", "gin"],
        "graphsage": ["sage"],
        "sage_gin": ["sage", "gin"],
    }[architecture]

    layers: list[Module] = []
    activations: list[str] = []
    dim_in = in_features
    for i in range(n_layers):
        kind = pattern[i % len(pattern)]
        layer_rng = derive_rng(generator, "layer", i, kind)
        if kind == "gat":
            layers.append(GATConv(dim_in, hidden_features, heads=gat_heads, rng=layer_rng))
            activations.append("elu")
        elif kind == "gin":
            layers.append(GINConv(dim_in, hidden_features, rng=layer_rng))
            activations.append("relu")
        elif kind == "sage":
            layers.append(SAGEConv(dim_in, hidden_features, rng=layer_rng))
            activations.append("relu")
        else:
            layers.append(GCNConv(dim_in, hidden_features, rng=layer_rng))
            activations.append("relu")
        dim_in = hidden_features
    return GNNEncoder(layers, activations)
