"""The end-to-end DQuaG pipeline (Figure 2 of the paper).

:class:`DQuaG` ties everything together behind the same
:class:`~repro.baselines.base.BaselineValidator` interface the baselines
use, so experiments treat all methods uniformly:

* **fit** (Phase 1) — preprocess the clean table, build the feature
  graph (knowledge + statistics providers), train the dual-decoder GNN,
  and calibrate the 95th-percentile threshold;
* **validate / validate_batch** (Phase 2) — reconstruction-error
  validation with row, cell, and dataset decisions;
* **repair** — repair-decoder suggestions applied to flagged cells.

Phase 2 is the serving hot path: after ``fit`` (or ``load_weights``)
the model is compiled into the pure-NumPy
:class:`~repro.runtime.engine.InferenceEngine`, which holds the
calibration context, and ``validate`` / ``validate_batch`` / ``repair``
all route through it — no autograd graph is built at inference time.
``validate`` is the one-chunk case of the validation core,
:class:`~repro.runtime.streaming.StreamingValidator`, which
:meth:`streaming_validator` exposes for bounded-memory chunked runs;
:class:`~repro.runtime.service.ValidationService` serves many saved
pipelines concurrently.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.baselines.base import BaselineValidator, BatchVerdict
from repro.core.config import DQuaGConfig
from repro.core.model import DQuaGModel
from repro.core.repair import RepairEngine, RepairSummary
from repro.core.thresholds import ThresholdCalibration
from repro.core.trainer import Trainer, TrainingHistory
from repro.core.validator import ValidationReport
from repro.data.preprocess import TablePreprocessor
from repro.data.table import Table
from repro.exceptions import NotFittedError, SchemaError, SerializationError
from repro.graph.feature_graph import FeatureGraph
from repro.graph.inference import StatisticalRelationshipInference
from repro.graph.llm import FeatureGraphBuilder, HybridProvider, KnowledgeBaseProvider
from repro.nn.serialization import load_state, save_state
from repro.utils.logging import get_logger
from repro.utils.rng import derive_rng, ensure_rng

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.engine import InferenceEngine

__all__ = ["DQuaG"]

logger = get_logger("core.pipeline")


class DQuaG(BaselineValidator):
    """Data Quality Graph: GNN-based validation and repair.

    >>> pipeline = DQuaG()                          # doctest: +SKIP
    >>> pipeline.fit(clean_table,                   # doctest: +SKIP
    ...              knowledge_edges=[("city", "country")])
    >>> report = pipeline.validate(new_table)       # doctest: +SKIP
    >>> fixed, _ = pipeline.repair(new_table)       # doctest: +SKIP
    """

    name = "dquag"
    supports_row_flags = True

    def __init__(self, config: DQuaGConfig | None = None) -> None:
        self.config = config or DQuaGConfig()
        self.preprocessor: TablePreprocessor | None = None
        self.graph: FeatureGraph | None = None
        self.model: DQuaGModel | None = None
        self.history: TrainingHistory | None = None
        #: the compiled engine, once it carries the calibration context
        self._validator: InferenceEngine | None = None
        self._repair_engine: RepairEngine | None = None
        self._future_categories: dict[str, list[str]] | None = None
        #: training-time distribution baseline for drift monitoring
        #: (built at fit(), persisted in save() archives)
        self._monitor_baseline = None
        #: one cached sharded executor, widened on demand (see validate())
        self._parallel_validator = None
        self._parallel_lock = threading.Lock()

    # -- phase 1 -----------------------------------------------------------
    def fit(
        self,
        clean: Table,
        rng: int | np.random.Generator | None = None,
        knowledge_edges: list[tuple[str, str]] | None = None,
        future_categories: dict[str, list[str]] | None = None,
        feature_graph: FeatureGraph | None = None,
        epochs: int | None = None,
        calibration_table: Table | None = None,
    ) -> "DQuaG":
        """Train on a clean dataset (Phase 1 of Figure 2).

        Parameters
        ----------
        knowledge_edges:
            Semantic relationships to seed the graph provider with (the
            role ChatGPT-4 plays in §3.1.1).
        feature_graph:
            Skip graph construction entirely and use this graph.
        calibration_table:
            Optional *held-out* clean table for threshold calibration.
            The paper collects error statistics on the training data
            itself (§3.1.4, the default here); a held-out table removes
            the train/test generalization gap from the threshold and
            keeps the expected clean flag-rate at 1 − percentile.
        """
        generator = ensure_rng(rng if rng is not None else self.config.seed)

        # Refitting invalidates any sharded worker pools serving the old
        # weights; their workers would keep validating with stale state.
        self.close_parallel()
        self._future_categories = future_categories
        self.preprocessor = TablePreprocessor(
            clean.schema, missing_sentinel=self.config.missing_sentinel
        ).fit(clean, future_categories=future_categories)

        if feature_graph is not None:
            self.graph = feature_graph
        else:
            knowledge = KnowledgeBaseProvider()
            if knowledge_edges:
                knowledge.register(clean.schema.names, knowledge_edges)
            inference = StatisticalRelationshipInference(
                threshold=self.config.graph_threshold,
                max_degree=self.config.graph_max_degree,
                seed=int(derive_rng(generator, "graph").integers(2**31)),
            )
            builder = FeatureGraphBuilder(
                HybridProvider(knowledge, inference),
                seed=int(derive_rng(generator, "graph-sample").integers(2**31)),
            )
            self.graph = builder.build(clean)
        logger.info("feature graph: %d nodes, %d edges", self.graph.n_nodes, self.graph.n_edges)

        self.model = DQuaGModel(self.graph, self.config, rng=derive_rng(generator, "model"))
        trainer = Trainer(self.model, self.config)
        matrix = self.preprocessor.compile().transform(clean)
        self.history = trainer.train(matrix, rng=derive_rng(generator, "train"), epochs=epochs)

        # Compile the inference kernels now and calibrate *through* them:
        # thresholds are order statistics of the exact error values the
        # serving path will produce, so engine and calibration can never
        # disagree at the last bit.
        from repro.runtime.engine import InferenceEngine

        engine = InferenceEngine(self.model)
        if calibration_table is not None:
            calib_matrix = self.preprocessor.compile().transform(calibration_table)
            calib_cell_errors = engine.reconstruction_errors(calib_matrix)
        else:
            calib_cell_errors = engine.reconstruction_errors(matrix)
        # Per-feature scales: features the model reconstructs precisely
        # (tiny clean error) must not be drowned out by intrinsically
        # noisy ones, so all error statistics live in scaled space.
        feature_scales = np.maximum(calib_cell_errors.mean(axis=0), 1e-10)
        scaled_cell_errors = calib_cell_errors / feature_scales[None, :]
        calib_errors = DQuaGModel.sample_errors(scaled_cell_errors)
        calibration = ThresholdCalibration.from_clean_errors(
            calib_errors,
            percentile=self.config.threshold_percentile,
            confidence=self.config.threshold_confidence,
        )
        feature_thresholds = np.percentile(
            scaled_cell_errors, self.config.feature_threshold_percentile, axis=0
        )
        self._build_phase2(
            engine,
            calibration,
            feature_thresholds=feature_thresholds,
            feature_scales=feature_scales,
            clean_column_centers=np.median(matrix, axis=0),
        )
        # Freeze the clean distribution for drift monitoring: per-column
        # histograms of the exact matrix the model trained on, plus the
        # expected clean flag rate as the control-chart center.
        from repro.monitor import MonitorBaseline

        self._monitor_baseline = MonitorBaseline.from_matrix(
            self.preprocessor, matrix,
            flag_rate=1.0 - self.config.threshold_percentile / 100.0,
        )
        logger.info("calibrated threshold=%.6f (p%.0f)", calibration.threshold, self.config.threshold_percentile)
        return self

    # -- phase 2 --------------------------------------------------------------
    def validate(
        self, table: Table, workers: int | None = None, rules=None, use_shm: bool | None = None
    ) -> ValidationReport:
        """Full validation report for an unseen table.

        In process this is the one-chunk case of the validation core,
        :meth:`StreamingValidator.validate
        <repro.runtime.streaming.StreamingValidator.validate>`. With
        ``workers > 1`` the table is split into chunk-aligned row shards
        validated on a process pool (see :mod:`repro.runtime.sharding`);
        the merged report is bit-identical to the single-process path. The pool is cached per worker count —
        release with :meth:`close_parallel` when done. ``use_shm``
        controls the shared-memory data plane of that pool (None =
        auto-detect, False = pickled fan-out, True = prefer shm with
        automatic fallback); single-process runs ignore it.

        ``rules`` attaches a declarative rule set (any form accepted by
        :func:`repro.rules.resolve_rules`): the encoded matrix is also
        evaluated against the compiled :class:`~repro.rules.RulePlan` and
        the outcome fused into ``report.rule_report`` — the GNN-derived
        fields are never altered, so a rules-off run stays bit-identical.
        """
        validator = self.streaming_validator(rules=rules)
        # Empty tables fall through: their one-shot report is
        # well-defined while a zero-shard plan is not.
        if workers is not None and workers > 1 and table.n_rows > 0:
            from repro.exceptions import TransientServiceError

            if table.schema != self.preprocessor.schema:
                raise SchemaError("table schema does not match the trained pipeline")
            ruleset = None if validator.rule_plan is None else validator.rule_plan.ruleset
            try:
                return self.parallel_validator(workers, use_shm=use_shm).validate_table(
                    table, shards=workers, keep_cell_errors=True, rules=ruleset
                )
            except TransientServiceError:
                # A concurrent wider validate() closed our pool between
                # lookup and submission; the cache now holds the wider
                # pool, so one retry lands on it.
                return self.parallel_validator(workers, use_shm=use_shm).validate_table(
                    table, shards=workers, keep_cell_errors=True, rules=ruleset
                )
        return validator.validate(table)

    def validate_batch(self, batch: Table) -> BatchVerdict:
        """Batch verdict on the shared baseline interface.

        ``details["summary"]`` is the structured
        :func:`~repro.api.protocol.summary_dict` payload (JSON-ready);
        call :meth:`BatchVerdict.summary` to render it for humans.
        """
        from repro.api.protocol import summary_dict

        report = self.validate(batch)
        return BatchVerdict(
            is_problematic=report.is_problematic,
            flagged_rows=report.flagged_rows,
            score=report.flagged_fraction,
            details={"threshold": report.threshold, "summary": summary_dict(report)},
        )

    def repair(
        self, table: Table, report: ValidationReport | None = None, iterations: int = 1
    ) -> tuple[Table, RepairSummary]:
        """Repair flagged cells of ``table`` (validates first if needed).

        With ``iterations > 1`` the repair is reapplied: after each pass
        the repaired table is re-validated and any still-flagged cells
        are repaired again. Multi-cell corruptions benefit — the first
        pass fixes the dominant outlier cell, pulling the row back toward
        the clean manifold so remaining errors become visible. Stops
        early once the table is classified clean.
        """
        if self._repair_engine is None:
            raise NotFittedError("DQuaG used before fit()")
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if report is None:
            report = self.validate(table)
        current = table
        total_cells = 0
        touched_rows = 0
        by_column: dict[str, int] = {}
        for i in range(iterations):
            current, summary = self._repair_engine.repair(current, report)
            total_cells += summary.n_cells_repaired
            touched_rows = max(touched_rows, summary.n_rows_touched)
            for column, count in summary.repairs_by_column.items():
                by_column[column] = by_column.get(column, 0) + count
            if i + 1 < iterations:
                report = self.validate(current)
                if not report.is_problematic and report.n_flagged == 0:
                    break
        return current, RepairSummary(
            n_rows_touched=touched_rows,
            n_cells_repaired=total_cells,
            repairs_by_column=by_column,
        )

    # -- runtime ---------------------------------------------------------------
    @property
    def engine(self) -> InferenceEngine:
        """The compiled :class:`~repro.runtime.engine.InferenceEngine`
        serving this pipeline, with its calibration context."""
        return self._require_validator()

    @property
    def calibration(self) -> ThresholdCalibration | None:
        """The row-threshold calibration (held by :attr:`engine`)."""
        return None if self._validator is None else self._validator.calibration

    def streaming_validator(
        self,
        chunk_size: int = 8192,
        keep_cell_errors: bool = False,
        monitor=None,
        clock=None,
        rules=None,
    ):
        """Bounded-memory chunked validator over this fitted pipeline.

        ``monitor`` attaches a :class:`~repro.monitor.monitor.DriftMonitor`
        (see :meth:`monitor`) that observes every validated chunk;
        ``rules`` attaches a declarative rule set evaluated per chunk
        (see :class:`~repro.runtime.streaming.StreamingValidator`).
        """
        from repro.runtime.streaming import StreamingValidator

        return StreamingValidator(
            self._require_validator(),
            chunk_size=chunk_size,
            keep_cell_errors=keep_cell_errors,
            monitor=monitor,
            clock=clock,
            rules=rules,
        )

    # -- drift monitoring --------------------------------------------------
    @property
    def monitor_baseline(self):
        """The training-time distribution baseline (``None`` when the
        pipeline was loaded from an archive that predates monitoring)."""
        return self._monitor_baseline

    def monitor(self, window_chunks: int = 32, **options):
        """A fresh :class:`~repro.monitor.monitor.DriftMonitor` over this
        pipeline's training-time baseline.

        The monitor compares everything it observes (tables, preprocessed
        chunks, partial reports) to the clean distribution frozen at
        ``fit()`` time; the baseline travels in ``save()`` archives, so
        reloaded pipelines monitor against the distribution they were
        actually trained on. ``options`` forward to
        :class:`~repro.monitor.monitor.DriftMonitor` (thresholds, EWMA
        parameters, ``clock`` for tests).
        """
        from repro.exceptions import ReproError
        from repro.monitor import DriftMonitor

        validator = self._require_validator()
        if self._monitor_baseline is None:
            raise ReproError(
                "this pipeline has no drift-monitoring baseline (archive saved "
                "before drift monitoring); call fit_monitor_baseline(clean_table) "
                "or refit and re-save"
            )
        return DriftMonitor(
            self._monitor_baseline,
            preprocessor=validator.preprocessor,
            window_chunks=window_chunks,
            **options,
        )

    def fit_monitor_baseline(self, clean: Table) -> "DQuaG":
        """(Re)build the monitoring baseline from a clean table.

        For pipelines restored from pre-monitoring archives, or to
        re-anchor monitoring on fresher clean data without retraining.
        """
        from repro.monitor import MonitorBaseline

        validator = self._require_validator()
        self._monitor_baseline = MonitorBaseline.from_matrix(
            validator.preprocessor,
            validator.preprocessor.compile().transform(clean),
            flag_rate=1.0 - self.config.threshold_percentile / 100.0,
        )
        return self

    def parallel_validator(
        self,
        workers: int | None = None,
        chunk_size: int = 8192,
        use_shm: bool | None = None,
    ):
        """The cached sharded executor over this fitted pipeline.

        One pool is kept, rebuilt wider when a larger worker count (or a
        different chunk size, or an explicitly different ``use_shm``
        setting) is requested; any shard count runs on it with
        bit-identical results. The pipeline is persisted to a temp
        archive on first use (workers rebuild from it — no live state is
        pickled); subsequent calls reuse the warm pool.
        """
        from repro.runtime.sharding import ParallelValidator

        self._require_validator()
        workers = (os.cpu_count() or 1) if workers is None else max(1, int(workers))
        # Serialized: concurrent first calls must not each save a temp
        # archive and spawn a pool, orphaning all but the last.
        with self._parallel_lock:
            parallel = self._parallel_validator
            if parallel is not None and (
                parallel.workers < workers
                or parallel.chunk_size != chunk_size
                or (use_shm is not None and parallel.use_shm != use_shm)
            ):
                self._parallel_validator = None
                parallel.close()
                parallel = None
            if parallel is None:
                parallel = ParallelValidator.from_pipeline(
                    self, workers=workers, chunk_size=chunk_size, use_shm=use_shm
                )
                self._parallel_validator = parallel
            return parallel

    def close_parallel(self) -> None:
        """Shut down the cached sharded worker pool and its temp archive."""
        with self._parallel_lock:
            parallel, self._parallel_validator = self._parallel_validator, None
        if parallel is not None:
            parallel.close()

    def _build_phase2(
        self,
        engine: InferenceEngine,
        calibration: ThresholdCalibration,
        feature_thresholds: np.ndarray | None,
        feature_scales: np.ndarray | None,
        clean_column_centers: np.ndarray,
    ) -> None:
        """Attach the calibration context to the compiled engine — the one
        place it is set — and build the repair engine around it."""
        # Warm the compiled preprocessing plan alongside the model
        # kernels: both fit() and load_weights() land here, so the first
        # request (local or via ValidationService) runs fully hot.
        self.preprocessor.compile()
        engine.preprocessor = self.preprocessor
        engine.calibration = calibration
        # Both are optional (archives may predate them). Within a flagged
        # row, a cell above its column's clean-error quantile is flagged
        # even when the row-relative μ+kσ rule misses it.
        engine.feature_scales = (
            None if feature_scales is None else np.asarray(feature_scales, dtype=np.float64)
        )
        engine.feature_thresholds = (
            None if feature_thresholds is None else np.asarray(feature_thresholds, dtype=np.float64)
        )
        self._validator = engine
        self._repair_engine = RepairEngine(
            self.model, self.preprocessor,
            clean_column_centers=clean_column_centers,
            engine=engine,
        )

    # -- persistence -------------------------------------------------------------
    def save(self, path: str | Path) -> None:
        """Persist weights, config, graph, calibration, and the fitted
        preprocessor state (encoder vocabularies and scaling ranges)."""
        if self.model is None or self._validator is None:
            raise NotFittedError("cannot save an unfitted DQuaG pipeline")
        validator = self._require_validator()
        metadata = {
            "config": self.config.to_dict(),
            "graph": self.graph.to_dict(),
            "calibration": {
                "threshold": self.calibration.threshold,
                "percentile": self.calibration.percentile,
                "clean_mean": self.calibration.clean_mean,
                "clean_p50": self.calibration.clean_p50,
                "clean_max": self.calibration.clean_max,
                "n_samples": self.calibration.n_samples,
            },
            "feature_scales": (
                None if validator.feature_scales is None else validator.feature_scales.tolist()
            ),
            "feature_thresholds": (
                None if validator.feature_thresholds is None else validator.feature_thresholds.tolist()
            ),
            # The fitted encoder state travels with the weights: a
            # reloaded pipeline must encode categories identically to
            # the one the threshold was calibrated on (refitting on a
            # different clean sample would silently shift codes).
            "preprocessor": self.preprocessor.to_metadata(),
            "future_categories": self._future_categories,
            "clean_column_centers": (
                None
                if self._repair_engine is None
                else self._repair_engine.clean_column_centers.tolist()
            ),
            # Additive since the monitoring era: archives without it
            # still load, they just cannot build a DriftMonitor until
            # fit_monitor_baseline() re-anchors them.
            "monitor_baseline": (
                None if self._monitor_baseline is None else self._monitor_baseline.to_metadata()
            ),
        }
        save_state(self.model.state_dict(), path, metadata=metadata)

    def load_weights(self, path: str | Path, clean: Table | None = None) -> "DQuaG":
        """Restore a saved pipeline from its archive alone.

        The archive carries the fitted preprocessor state (label
        vocabularies — including any ``future_categories`` supplied at
        fit time — and numeric scaling ranges), so no clean table is
        needed. ``clean`` is accepted for schema cross-checking only.
        """
        from repro.runtime.engine import InferenceEngine

        self.close_parallel()
        state, metadata = load_state(path)
        if "preprocessor" not in metadata:
            raise SerializationError(
                f"{path} does not carry preprocessor state (pre-runtime archive); "
                "retrain and re-save the pipeline"
            )
        self.config = DQuaGConfig.from_dict(metadata["config"])
        self.graph = FeatureGraph.from_dict(metadata["graph"])
        self.preprocessor = TablePreprocessor.from_metadata(metadata["preprocessor"])
        self._future_categories = metadata.get("future_categories")
        if clean is not None and clean.schema != self.preprocessor.schema:
            raise SchemaError("provided table schema does not match the saved pipeline")
        self.model = DQuaGModel(self.graph, self.config)
        self.model.load_state_dict(state)
        stored = metadata["calibration"]
        calibration = ThresholdCalibration(
            threshold=stored["threshold"],
            percentile=stored["percentile"],
            clean_mean=stored["clean_mean"],
            clean_p50=stored["clean_p50"],
            clean_max=stored["clean_max"],
            n_samples=stored["n_samples"],
        )
        scales = metadata.get("feature_scales")
        thresholds = metadata.get("feature_thresholds")
        centers = metadata.get("clean_column_centers")
        baseline = metadata.get("monitor_baseline")
        if baseline is None:
            self._monitor_baseline = None
        else:
            from repro.monitor import MonitorBaseline

            self._monitor_baseline = MonitorBaseline.from_metadata(baseline)
        self._build_phase2(
            InferenceEngine(self.model),
            calibration,
            feature_thresholds=thresholds,
            feature_scales=scales,
            clean_column_centers=(
                np.full(len(self.preprocessor.schema), 0.5)
                if centers is None
                else np.asarray(centers, dtype=np.float64)
            ),
        )
        return self

    # -- internals ------------------------------------------------------------------
    def _require_validator(self) -> InferenceEngine:
        if self._validator is None:
            raise NotFittedError("DQuaG used before fit()")
        return self._validator
