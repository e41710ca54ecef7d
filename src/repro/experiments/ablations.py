"""Ablations beyond the paper's Table 2.

Three design choices of DQuaG are isolated
(README.md#interpretability-and-ablations), each measured by the same
separation metric as Table 2 (flagged-fraction difference between dirty
and clean batches, in percentage points, on the Hotel hidden-conflict
scenario — the regime the design choices exist for):

* **weighted validation loss** (§3.1.2) — the exponential down-weighting
  of high-error samples vs. plain MSE;
* **feature-graph source** — knowledge+statistics hybrid (default) vs.
  statistics-only vs. an uninformative star graph (no inferred edges);
* **threshold percentile** (§3.1.4) — 90 / 95 (paper) / 99.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import DQuaG, DQuaGConfig, ThresholdCalibration
from repro.data.batching import sample_validation_batches
from repro.errors import HotelGroupConflictInjector
from repro.experiments.cache import get_splits
from repro.experiments.harness import ExperimentScale, resolve_scale
from repro.experiments.reporting import ResultTable
from repro.graph import FeatureGraph

__all__ = ["AblationRow", "AblationResult", "run_ablations"]


@dataclass(frozen=True)
class AblationRow:
    ablation: str
    variant: str
    clean_flag_rate: float
    dirty_flag_rate: float

    @property
    def separation(self) -> float:
        """Percentage-point gap between dirty and clean flag rates."""
        return 100.0 * (self.dirty_flag_rate - self.clean_flag_rate)


@dataclass
class AblationResult:
    scale_name: str
    rows: list[AblationRow] = field(default_factory=list)

    def by_variant(self, ablation: str) -> dict[str, AblationRow]:
        return {row.variant: row for row in self.rows if row.ablation == ablation}

    def to_result_table(self) -> ResultTable:
        """The result as a wire-encodable :class:`ResultTable`."""
        table = ResultTable(
            f"Ablations — hidden-conflict separation on Hotel (scale={self.scale_name})",
            ["ablation", "variant", "clean flag %", "dirty flag %", "separation pp"],
        )
        for row in self.rows:
            table.add_row(
                row.ablation,
                row.variant,
                100.0 * row.clean_flag_rate,
                100.0 * row.dirty_flag_rate,
                row.separation,
            )
        table.add_note("defaults: weighted loss ON, hybrid graph, percentile 95")
        return table

    def render(self) -> str:
        return self.to_result_table().render()


def _measure(pipeline: DQuaG, clean_batches, dirty_batches) -> tuple[float, float]:
    clean = float(np.mean([pipeline.validate_batch(b).score for b in clean_batches]))
    dirty = float(np.mean([pipeline.validate_batch(b).score for b in dirty_batches]))
    return clean, dirty


def run_ablations(
    scale: "str | ExperimentScale | None" = None,
    seed: int = 0,
    n_batches: int | None = None,
) -> AblationResult:
    """Run all three ablations on the Hotel hidden-conflict scenario."""
    scale = resolve_scale(scale)
    result = AblationResult(scale_name=scale.name)
    splits = get_splits("hotel", scale, seed)
    dirty, _ = HotelGroupConflictInjector(fraction=0.2).inject(splits.evaluation, rng=seed + 3)
    batches = n_batches or max(scale.n_batches // 2, 5)
    clean_batches = sample_validation_batches(splits.evaluation, batches, size=splits.batch_size, rng=seed + 5)
    dirty_batches = sample_validation_batches(dirty, batches, size=splits.batch_size, rng=seed + 7)

    def fit(config: DQuaGConfig, feature_graph: FeatureGraph | None = None) -> DQuaG:
        return DQuaG(config).fit(
            splits.train,
            rng=seed,
            knowledge_edges=splits.knowledge_edges,
            calibration_table=splits.calibration,
            feature_graph=feature_graph,
        )

    base_kwargs = dict(hidden_dim=scale.hidden_dim, epochs=scale.epochs, seed=seed)

    # 1. Weighted validation loss on/off.
    for variant, temperature in [("weighted (paper)", None), ("unweighted", 1e9)]:
        pipeline = fit(DQuaGConfig(weighting_temperature=temperature, **base_kwargs))
        clean_rate, dirty_rate = _measure(pipeline, clean_batches, dirty_batches)
        result.rows.append(AblationRow("loss weighting", variant, clean_rate, dirty_rate))

    # 2. Feature-graph source.
    names = splits.train.schema.names
    star = FeatureGraph(names, []).with_isolated_connected()
    graph_variants: list[tuple[str, FeatureGraph | None, list | None]] = [
        ("hybrid (paper)", None, splits.knowledge_edges),
        ("statistics only", None, []),
        ("star (no inference)", star, None),
    ]
    for variant, graph, edges in graph_variants:
        pipeline = DQuaG(DQuaGConfig(**base_kwargs)).fit(
            splits.train,
            rng=seed,
            knowledge_edges=edges or None,
            calibration_table=splits.calibration,
            feature_graph=graph,
        )
        clean_rate, dirty_rate = _measure(pipeline, clean_batches, dirty_batches)
        result.rows.append(AblationRow("feature graph", variant, clean_rate, dirty_rate))

    # 3. Threshold percentile (reuses the hybrid model; recalibrates only).
    # Errors are scaled exactly as the engine scales them so the new
    # thresholds live in the same space — and come from the same compiled
    # engine that serves _measure(), so calibration and serving numerics
    # agree to the last bit (matching DQuaG.fit). The engine holds the
    # calibration, so swapping it there re-points every validate path.
    reference = fit(DQuaGConfig(**base_kwargs))
    engine = reference.engine
    calib_matrix = reference.preprocessor.compile().transform(splits.calibration)
    calib_cell_errors = engine.reconstruction_errors(calib_matrix)
    if engine.feature_scales is not None:
        calib_cell_errors = calib_cell_errors / engine.feature_scales[None, :]
    calib_errors = calib_cell_errors.mean(axis=1)
    for percentile in (90.0, 95.0, 99.0):
        engine.calibration = ThresholdCalibration.from_clean_errors(calib_errors, percentile=percentile)
        clean_rate, dirty_rate = _measure(reference, clean_batches, dirty_batches)
        result.rows.append(
            AblationRow("threshold percentile", f"p{percentile:.0f}", clean_rate, dirty_rate)
        )
    # Restore the paper's percentile on the shared object.
    engine.calibration = ThresholdCalibration.from_clean_errors(calib_errors, percentile=95.0)
    return result
