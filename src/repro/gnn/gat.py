"""Graph Attention Network layer (Veličković et al., 2018).

Dense batched multi-head attention restricted to feature-graph edges
(plus self-loops). For node counts of tabular feature graphs (≲ 25) the
(B, N, N) attention matrices are tiny, so the dense form is both exact
and fast.

Per head: ``e_ij = LeakyReLU(a_src · Wh_i + a_dst · Wh_j)``, masked
softmax over ``j``, then ``h'_i = Σ_j α_ij Wh_j``. Heads are concatenated.
"""

from __future__ import annotations

import numpy as np

from repro.gnn.context import GraphContext
from repro.nn import functional as F
from repro.nn import init
from repro.nn.kernels import buffer
from repro.nn.module import Module
from repro.nn.tensor import Parameter, Tensor
from repro.utils.rng import ensure_rng

__all__ = ["GATConv"]


class GATConv(Module):
    """Multi-head graph attention over batched node features (B, N, d)."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        heads: int = 1,
        negative_slope: float = 0.2,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if out_features % heads != 0:
            raise ValueError(f"out_features {out_features} not divisible by heads {heads}")
        generator = ensure_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.heads = heads
        self.head_dim = out_features // heads
        self.negative_slope = negative_slope
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), generator), name="weight")
        self.attn_src = Parameter(init.xavier_uniform((heads, self.head_dim), generator), name="attn_src")
        self.attn_dst = Parameter(init.xavier_uniform((heads, self.head_dim), generator), name="attn_dst")
        self.bias = Parameter(init.zeros((out_features,)), name="bias")
        self._last_attention: np.ndarray | None = None

    def forward(self, x: Tensor, ctx: GraphContext) -> Tensor:
        if x.shape[-2] != ctx.n_nodes:
            raise ValueError(f"node axis {x.shape[-2]} != graph nodes {ctx.n_nodes}")
        transformed = x @ self.weight  # (B, N, heads*head_dim)
        head_outputs: list[Tensor] = []
        attention_snapshots: list[np.ndarray] = []
        for h in range(self.heads):
            lo, hi = h * self.head_dim, (h + 1) * self.head_dim
            h_feat = transformed[..., lo:hi]  # (B, N, head_dim)
            src_score = h_feat @ self.attn_src[h]  # (B, N)
            dst_score = h_feat @ self.attn_dst[h]  # (B, N)
            # scores[b, i, j] = src_i + dst_j ; i attends over its neighbors j.
            scores = src_score.expand_dims(-1) + dst_score.expand_dims(-2)
            scores = scores.leaky_relu(self.negative_slope)
            attention = F.masked_softmax(scores, ctx.attention_mask, axis=-1)
            attention_snapshots.append(attention.numpy())
            head_outputs.append(attention @ h_feat)  # (B, N, head_dim)
        out = head_outputs[0] if self.heads == 1 else Tensor.concatenate(head_outputs, axis=-1)
        self._last_attention = np.stack(attention_snapshots, axis=0)
        return out + self.bias

    def export_kernel(self, ctx: GraphContext):
        """Compile into a pure-NumPy forward numerically identical to
        :meth:`forward` (masked softmax included) minus the attention
        snapshots and graph bookkeeping. The score/softmax chain runs in
        place on workspace scratch; the leaky-ReLU branch select is
        computed as ``max(x, slope·x)`` (equal for slope < 1)."""
        weight = self.weight.data.copy()
        attend = self._export_attention(ctx)
        key = (id(self), "transform")
        out_features = self.out_features

        def kernel(x: np.ndarray, ws=None) -> np.ndarray:
            out_shape = x.shape[:-1] + (out_features,)
            transformed = np.matmul(x, weight, out=buffer(ws, key, out_shape))
            return attend(transformed, ws)

        return kernel

    def export_folded_kernel(self, ctx: GraphContext, embeddings: np.ndarray):
        """Compile with the constant identity embeddings folded away.

        The layer input is ``[x_f ⊕ E_f]`` with ``E`` batch-independent,
        so ``X W`` splits into a per-value rank-1 term plus a constant:
        ``values·W[0] + (E W[1:])``. The kernel takes the raw ``(B, N)``
        value chunk — the ``(B, N, 1+e)`` node-input slab is never
        materialized at all.
        """
        weight = self.weight.data.copy()
        embeddings = np.asarray(embeddings, dtype=np.float64)
        value_weight = weight[0].copy()  # (out,)
        constant = embeddings @ weight[1:]  # (N, out), batch-independent
        attend = self._export_attention(ctx)
        key = (id(self), "transform")
        out_features = self.out_features

        def kernel(values: np.ndarray, ws=None) -> np.ndarray:
            out_shape = values.shape + (out_features,)
            transformed = buffer(ws, key, out_shape)
            np.multiply(values[..., None], value_weight, out=transformed)
            transformed += constant
            return attend(transformed, ws)

        return kernel

    def _export_attention(self, ctx: GraphContext):
        """The per-head attention chain over already-transformed features,
        shared by the plain and embedding-folded kernels."""
        attn_src = self.attn_src.data.copy()
        attn_dst = self.attn_dst.data.copy()
        bias = self.bias.data.copy()
        mask_bias = np.where(np.asarray(ctx.attention_mask, dtype=bool), 0.0, -1e9)
        heads, head_dim, slope = self.heads, self.head_dim, self.negative_slope
        n_nodes = ctx.n_nodes

        def attend(transformed: np.ndarray, ws=None) -> np.ndarray:
            batch = transformed.shape[0]
            out = buffer(ws, (id(self), "out"), (batch, n_nodes, heads * head_dim))
            scores = buffer(ws, (id(self), "scores"), (batch, n_nodes, n_nodes))
            scaled = buffer(ws, (id(self), "scaled"), (batch, n_nodes, n_nodes))
            for h in range(heads):
                h_feat = transformed[..., h * head_dim : (h + 1) * head_dim]
                src_score = h_feat @ attn_src[h]  # (B, N)
                dst_score = h_feat @ attn_dst[h]  # (B, N)
                np.add(src_score[..., :, None], dst_score[..., None, :], out=scores)
                np.multiply(scores, slope, out=scaled)
                np.maximum(scores, scaled, out=scores)  # = LeakyReLU
                scores += mask_bias
                scores -= scores.max(axis=-1, keepdims=True)
                np.exp(scores, out=scores)
                scores /= scores.sum(axis=-1, keepdims=True)
                np.matmul(scores, h_feat, out=out[..., h * head_dim : (h + 1) * head_dim])
            out += bias
            return out

        return attend

    @property
    def last_attention(self) -> np.ndarray | None:
        """(heads, B, N, N) attention weights from the latest forward pass.

        Exposed for the interpretability extension
        (README.md#interpretability-and-ablations).
        """
        return self._last_attention

    def __repr__(self) -> str:
        return f"GATConv({self.in_features}, {self.out_features}, heads={self.heads})"
