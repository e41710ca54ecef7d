"""Validate and repair composed from each layer's public functions.

The traced run cannot look inside ``src/``, so it rebuilds the serving
path from the pieces the layers export: every GNN layer's
``export_kernel``/``export_folded_kernel`` closure, the decoders'
``Linear.export_kernel`` with the identity embeddings folded into the
first affine (as the engine does), ``TransformPlan.transform``,
``assemble_report``, ``apply_rules``, ``DriftMonitor.observe_matrix`` and
``RepairEngine.repair``. A span is recorded around each call.

The composition is also the output check of ``batch-validate-repair``:
its reports and repaired tables must be bit-identical to what
``ValidationService`` returns, so a layer whose public function stops
matching the engine fails the run.
"""

from __future__ import annotations

import numpy as np

from repro.core.repair import RepairEngine
from repro.core.validator import assemble_report
from repro.gnn.gat import GATConv
from repro.gnn.gin import GINConv
from repro.nn.kernels import Workspace, buffer
from repro.nn.layers import NUMPY_ACTIVATIONS
from repro.nn.serialization import load_state
from repro.rules import apply_rules

from perfbench.common import Tracer, median

#: span names, shared with the per-layer metric names (``<span>_ms``)
TRANSFORM = "data.plan.transform"
RECONSTRUCTION = "runtime.engine.reconstruction_errors"
REPAIR_VALUES = "runtime.engine.repair_values"
GAT = "gnn.gat.kernel"
GIN = "gnn.gin.kernel"
ENCODER = "gnn.encoder"
VALIDATION_DECODER = "nn.layers.validation_decoder"
REPAIR_DECODER = "nn.layers.repair_decoder"
ASSEMBLE = "core.validator.assemble_report"
RULES = "rules.apply_rules"
MONITOR = "monitor.observe"
REPAIR = "core.repair.repair"

#: spans that never nest in one another within a validate + repair
TOP_LEVEL = (TRANSFORM, RECONSTRUCTION, ASSEMBLE, RULES, MONITOR, REPAIR)


def _fold_decoder(mlp, embeddings: np.ndarray):
    """``[Z ⊕ E] @ W + b == Z @ W[:h] + (E @ W[h:] + b)`` for the
    decoder's first layer; the rest run through ``Linear.export_kernel``.
    The decoders are built with ReLU between layers (``DQuaGModel``)."""
    linears = [getattr(mlp, f"linear{i}") for i in range(len(mlp.sizes) - 1)]
    first = linears[0]
    hidden = first.weight.data.shape[0] - embeddings.shape[1]
    weight_top = first.weight.data[:hidden].copy()
    constant = embeddings @ first.weight.data[hidden:]
    if first.bias is not None:
        constant = constant + first.bias.data
    rest = [linear.export_kernel() for linear in linears[1:]]
    relu = NUMPY_ACTIVATIONS["relu"]
    key = (id(mlp), "perfbench-decoder")

    def kernel(z: np.ndarray, ws: Workspace) -> np.ndarray:
        x = np.matmul(z, weight_top, out=buffer(ws, key, z.shape[:-1] + (weight_top.shape[1],)))
        x += constant
        for linear in rest:
            x = relu(x)
            x = linear(x, ws)
        return x

    return kernel


class ComposedPipeline:
    """The serving path of one fitted pipeline, span by span."""

    def __init__(self, pipeline, rule_plan, clean_column_centers, tracer: Tracer | None = None) -> None:
        self.tracer = tracer or Tracer(enabled=False)
        model = pipeline.model
        self.context = pipeline.engine  # calibration, rule, scales, thresholds, chunk size
        self.names = list(pipeline.preprocessor.schema.names)
        self.plan = pipeline.preprocessor.compile()
        self.rule_plan = rule_plan
        self.monitor = pipeline.monitor(window_chunks=32)
        self.workspace = Workspace()

        encoder = model.encoder
        embeddings = model.feature_embeddings.data.copy()
        if not encoder.can_fold_embeddings(embeddings):
            raise ValueError("the composed path expects an embedding-folding first layer")
        self.layers = []
        for i in range(encoder.n_layers):
            layer = getattr(encoder, f"conv{i}")
            if isinstance(layer, GATConv):
                name, activation = GAT, NUMPY_ACTIVATIONS["elu"]
            elif isinstance(layer, GINConv):
                name, activation = GIN, NUMPY_ACTIVATIONS["relu"]
            else:
                raise ValueError(f"the composed path covers GAT/GIN encoders, got {layer!r}")
            kernel = (
                layer.export_folded_kernel(model.ctx, embeddings)
                if i == 0
                else layer.export_kernel(model.ctx)
            )
            self.layers.append((name, kernel, activation))
        self.validation_decoder = _fold_decoder(model.validation_decoder, embeddings)
        self.repair_decoder = _fold_decoder(model.repair_decoder, embeddings)
        self.repair_engine = RepairEngine(
            model, pipeline.preprocessor, clean_column_centers=clean_column_centers, engine=self
        )

    # -- engine ----------------------------------------------------------
    def _encode(self, chunk: np.ndarray) -> np.ndarray:
        span, ws = self.tracer.span, self.workspace
        last = len(self.layers) - 1
        with span(ENCODER):
            x = chunk
            for i, (name, kernel, activation) in enumerate(self.layers):
                with span(name):
                    x = kernel(x, ws)
                if i < last:
                    x = activation(x)
        return x

    def reconstruction_errors(self, matrix: np.ndarray) -> np.ndarray:
        span, ws, size = self.tracer.span, self.workspace, self.context.chunk_size
        with span(RECONSTRUCTION):
            out = np.empty_like(matrix)
            for start in range(0, matrix.shape[0], size):
                chunk = matrix[start : start + size]
                embeddings = self._encode(chunk)
                with span(VALIDATION_DECODER):
                    recon = np.squeeze(self.validation_decoder(embeddings, ws), axis=-1)
                slab = out[start : start + chunk.shape[0]]
                np.subtract(recon, chunk, out=slab)
                np.multiply(slab, slab, out=slab)
        return out

    def repair_values(self, matrix: np.ndarray) -> np.ndarray:
        span, ws, size = self.tracer.span, self.workspace, self.context.chunk_size
        with span(REPAIR_VALUES):
            out = np.empty_like(matrix)
            for start in range(0, matrix.shape[0], size):
                chunk = matrix[start : start + size]
                embeddings = self._encode(chunk)
                with span(REPAIR_DECODER):
                    out[start : start + chunk.shape[0], :] = np.squeeze(
                        self.repair_decoder(embeddings, ws), axis=-1
                    )
        return out

    # -- report ----------------------------------------------------------
    def validate_matrix(self, matrix: np.ndarray):
        span, ctx = self.tracer.span, self.context
        errors = self.reconstruction_errors(matrix)
        with span(ASSEMBLE):
            report = assemble_report(
                errors,
                calibration=ctx.calibration,
                rule=ctx.rule,
                feature_sigma=ctx.config.feature_sigma,
                feature_scales=ctx.feature_scales,
                feature_thresholds=ctx.feature_thresholds,
                feature_names=self.names,
            )
        if self.rule_plan is not None:
            with span(RULES):
                report = apply_rules(report, matrix, self.rule_plan)
        with span(MONITOR):
            self.monitor.observe_matrix(matrix, n_flagged=report.n_flagged)
        return report

    def validate(self, table):
        """``ValidationService.validate`` (rules attached, monitor on)."""
        with self.tracer.span(TRANSFORM):
            matrix = self.plan.transform(table)
        return self.validate_matrix(matrix)

    def repair(self, table, report):
        """``ValidationService.repair`` with one iteration."""
        with self.tracer.span(REPAIR):
            return self.repair_engine.repair(table, report)

    @classmethod
    def from_service(cls, service, name: str, archive, tracer: Tracer | None = None):
        """Compose the pipeline ``service`` serves as ``name`` from
        ``archive``, with the rule plan the service attached."""
        centers = load_state(archive)[1]["clean_column_centers"]
        return cls(service.get(name), service.rule_plan_for(name), centers, tracer=tracer)


def stage_ms(tracer: Tracer) -> dict:
    """Per-layer times, in ms, of what ``tracer`` recorded since its reset.

    ``gnn.encoder.activation_ms`` is the encoder's time minus its layer
    kernels; ``core.repair.repair_ms`` excludes the repair decoder pass.
    """
    total = tracer.total
    return {
        "data.plan.transform_ms": total(TRANSFORM) * 1e3,
        "runtime.engine.reconstruction_errors_ms": total(RECONSTRUCTION) * 1e3,
        "runtime.engine.repair_values_ms": total(REPAIR_VALUES) * 1e3,
        "gnn.gat.kernel_ms": total(GAT) * 1e3,
        "gnn.gin.kernel_ms": total(GIN) * 1e3,
        "gnn.encoder.activation_ms": (total(ENCODER) - total(GAT) - total(GIN)) * 1e3,
        "nn.layers.validation_decoder_ms": total(VALIDATION_DECODER) * 1e3,
        "nn.layers.repair_decoder_ms": total(REPAIR_DECODER) * 1e3,
        "core.validator.assemble_report_ms": total(ASSEMBLE) * 1e3,
        "rules.apply_rules_ms": total(RULES) * 1e3,
        "monitor.observe_ms": total(MONITOR) * 1e3,
        "core.repair.repair_ms": tracer.self_total(REPAIR) * 1e3,
    }


def top_level_ms(tracer: Tracer) -> float:
    """Time inside spans that do not nest in one another, in ms."""
    return sum(tracer.total(name) for name in TOP_LEVEL) * 1e3


def medians(rows: list) -> dict:
    """Key-wise median of a list of equally keyed dicts."""
    return {key: median([row[key] for row in rows]) for key in rows[0]}


def engine_rate_metrics(work: dict, rows: int, reconstruction_ms: float) -> dict:
    """Computed-from-shapes kernel work and the rate it implies."""
    return {
        "runtime.engine.flops_per_row": work["validate_flops_per_row"],
        "runtime.engine.bytes_per_row": work["validate_bytes_per_row"],
        "runtime.engine.gflops_per_s": (
            work["validate_flops_per_row"] * rows / (reconstruction_ms / 1e3) / 1e9
        ),
    }


# -- computed kernel work ----------------------------------------------------
class KernelWork:
    """Floating-point operations and bytes moved per table row, computed
    from weight and activation shapes (not from hardware counters).

    A matmul ``(m, k) @ (k, n)`` costs ``2·m·k·n`` operations and moves
    its input and output activations plus its weights, the weights
    amortized over the rows of one engine chunk. An element-wise pass
    costs one operation per element and reads and writes its tensor.
    """

    def __init__(self, chunk_rows: int) -> None:
        self.chunk_rows = chunk_rows
        self.flops = 0.0
        self.bytes = 0.0

    def matmul(self, m: int, k: int, n: int, weights: bool = True) -> None:
        self.flops += 2.0 * m * k * n
        self.bytes += 8.0 * (m * k + m * n)
        if weights:
            self.bytes += 8.0 * k * n / self.chunk_rows

    def elementwise(self, elements: int, ops: int = 1) -> None:
        self.flops += float(elements * ops)
        self.bytes += 16.0 * elements * ops


def _gat_work(work: KernelWork, layer: GATConv, n: int, folded: bool) -> None:
    h = layer.out_features
    if folded:
        work.elementwise(n * h, ops=2)  # values · W[0] + constant
    else:
        work.matmul(n, layer.in_features, h)
    d = layer.head_dim
    for _ in range(layer.heads):
        work.matmul(n, d, 2)  # source and destination scores
        work.elementwise(n * n, ops=9)  # add, leaky (2), mask, max, sub, exp, sum, div
        work.matmul(n, n, d, weights=False)  # attention-weighted aggregation
    work.elementwise(n * h)  # bias


def _gin_work(work: KernelWork, layer: GINConv, n: int) -> None:
    sizes = layer.mlp.sizes
    work.matmul(n, n, sizes[0], weights=False)  # (1+eps)I + A propagation
    for i, (k, m) in enumerate(zip(sizes[:-1], sizes[1:])):
        work.matmul(n, k, m)
        work.elementwise(n * m)  # bias
        if i < len(sizes) - 2:
            work.elementwise(n * m)  # relu


def _decoder_work(work: KernelWork, mlp, n: int, embed: int) -> None:
    sizes = mlp.sizes
    work.matmul(n, sizes[0] - embed, sizes[1])
    work.elementwise(n * sizes[1])  # folded constant
    for k, m in zip(sizes[1:-1], sizes[2:]):
        work.elementwise(n * k)  # relu
        work.matmul(n, k, m)
        work.elementwise(n * m)  # bias


def kernel_work(pipeline) -> dict:
    """Per-row work of the validate pass (encoder + validation decoder +
    squared error) and the repair pass (encoder + repair decoder)."""
    model = pipeline.model
    encoder = model.encoder
    n = model.n_features
    embed = model.feature_embeddings.data.shape[1]
    chunk = pipeline.engine.chunk_size

    def encoder_work(work: KernelWork) -> None:
        last = encoder.n_layers - 1
        for i in range(encoder.n_layers):
            layer = getattr(encoder, f"conv{i}")
            if isinstance(layer, GATConv):
                _gat_work(work, layer, n, folded=i == 0)
                if i < last:
                    work.elementwise(n * layer.out_features, ops=3)  # elu
            else:
                _gin_work(work, layer, n)
                if i < last:
                    work.elementwise(n * layer.out_features)  # relu

    validate = KernelWork(chunk)
    encoder_work(validate)
    _decoder_work(validate, model.validation_decoder, n, embed)
    validate.elementwise(n, ops=2)  # (x̂ - x)²
    repair = KernelWork(chunk)
    encoder_work(repair)
    _decoder_work(repair, model.repair_decoder, n, embed)
    return {
        "validate_flops_per_row": validate.flops,
        "validate_bytes_per_row": validate.bytes,
        "repair_flops_per_row": repair.flops,
        "repair_bytes_per_row": repair.bytes,
    }
