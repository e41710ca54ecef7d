"""The validation core: every validate path, chunk by chunk.

The §3.2.1 decision rules are row-local except for the final
batch-level verdict (flagged fraction vs the 5%·n cutoff), so a table
can be validated chunk by chunk and the chunk outcomes merged exactly,
and a one-shot validate is simply the one-chunk case:

* :class:`StreamingValidator` — the one place encoded rows become
  reports, rule verdicts and drift-monitor observations. Callers are
  chunking or placement policies over it: one-shot validates, the
  scheduler's coalesced slabs (:meth:`StreamingValidator.validate_many`),
  streams from a table, a matrix, or any iterator of row chunks (e.g.
  ``repro.data.io.read_csv_chunks``), and router replicas;
* :class:`PartialReport` — the outcome of one chunk, mergeable;
* :class:`StreamSummary` — the fold result when dense per-cell errors
  are *not* retained: flagged-row indices, per-column flagged-cell
  counts, and running error statistics in O(flagged + features) memory —
  a 10⁶-row table never materializes its (rows × features) error matrix;
* :func:`observe` — the only caller of ``DriftMonitor.observe_*``.

The engine's kernels are row-local, so with ``keep_cell_errors=True``
the merge reproduces the one-shot
:class:`~repro.core.validator.ValidationReport` bit for bit at any
chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Union

import numpy as np

from repro.core.validator import ValidationReport
from repro.data.table import Table
from repro.exceptions import SchemaError, ValidationError

__all__ = ["PartialReport", "StreamSummary", "StreamingValidator", "fold_partials", "observe"]

Chunk = Union[Table, np.ndarray]

#: The one error message for streams/tables with no rows: every entry
#: point (dense merge, incremental fold, router scatter) raises it so
#: callers can match on a single string.
EMPTY_STREAM_MESSAGE = "cannot validate an empty stream"


def _logger():
    from repro.utils.logging import get_logger

    return get_logger("runtime.streaming")


def observe(
    monitor,
    matrix: np.ndarray,
    n_flagged: int,
    timestamp: float | None = None,
) -> None:
    """Fold one encoded chunk into a :class:`~repro.monitor.monitor.DriftMonitor`.

    ``matrix`` (the preprocessed rows) feeds the column histograms and
    ``n_flagged`` the flag-rate chart. A ``None`` monitor observes
    nothing. Monitoring is advisory: a failure is logged, never raised,
    so it cannot fail a validation.
    """
    if monitor is None:
        return
    try:
        monitor.observe_matrix(matrix, n_flagged=n_flagged, timestamp=timestamp)
    except Exception:
        _logger().warning("drift monitor observation failed", exc_info=True)


@dataclass
class PartialReport:
    """Validation outcome of one row chunk at a global row offset."""

    offset: int
    n_rows: int
    sample_errors: np.ndarray
    row_flags: np.ndarray
    #: sparse flagged-cell coordinates, local to this chunk
    cell_rows: np.ndarray
    cell_cols: np.ndarray
    #: dense per-cell errors/flags — only retained on request
    cell_errors: np.ndarray | None = None
    cell_flags: np.ndarray | None = None
    #: when the chunk was observed (caller-supplied wall clock; ``None``
    #: keeps the report fully deterministic). Travels additively on the
    #: wire so drift monitors can window by time, and folds into
    #: :attr:`StreamSummary.first_timestamp`/``last_timestamp``.
    timestamp: float | None = None
    #: chunk-local :class:`~repro.rules.RulePartial` when the stream runs
    #: with a declarative rule plan attached; ``None`` (and omitted on
    #: the wire) otherwise. Folds into the summary/report ``rule_report``.
    rule_partial: "object | None" = None

    @property
    def n_flagged(self) -> int:
        return int(self.row_flags.sum())

    @property
    def flagged_rows(self) -> np.ndarray:
        """Global indices of flagged rows."""
        return np.flatnonzero(self.row_flags) + self.offset

    # -- wire protocol (repro.api) ----------------------------------------
    def to_dict(self) -> dict:
        from repro.api.protocol import partial_report_to_dict

        return partial_report_to_dict(self)

    @staticmethod
    def from_dict(payload: dict) -> "PartialReport":
        from repro.api.protocol import partial_report_from_dict

        return partial_report_from_dict(payload)

    @staticmethod
    def from_report(
        report: ValidationReport,
        offset: int,
        keep_cell_errors: bool,
        timestamp: float | None = None,
    ) -> "PartialReport":
        rows, cols = np.nonzero(report.cell_flags)
        return PartialReport(
            offset=offset,
            n_rows=len(report.sample_errors),
            sample_errors=report.sample_errors,
            row_flags=report.row_flags,
            cell_rows=rows,
            cell_cols=cols,
            cell_errors=report.cell_errors if keep_cell_errors else None,
            cell_flags=report.cell_flags if keep_cell_errors else None,
            timestamp=timestamp,
        )

    @staticmethod
    def merge(
        partials: "list[PartialReport]",
        threshold: float,
        rule,
        feature_names: list[str] | None = None,
        rules=None,
    ) -> ValidationReport:
        """Fold dense partials into one :class:`ValidationReport`.

        Requires every partial to have retained its dense cell errors;
        use :class:`StreamSummary` folding for bounded-memory streams.
        ``rules`` (a :class:`~repro.rules.RuleSet`) additionally folds
        the partials' rule outputs into ``report.rule_report``.
        """
        if not partials:
            raise ValidationError(EMPTY_STREAM_MESSAGE)
        ordered = sorted(partials, key=lambda p: p.offset)
        if any(p.cell_errors is None for p in ordered):
            raise ValidationError(
                "cannot merge partials without dense cell errors; "
                "run the stream with keep_cell_errors=True"
            )
        row_flags = np.concatenate([p.row_flags for p in ordered])
        flagged_fraction = float(row_flags.mean()) if row_flags.size else 0.0
        rule_report = None
        if rules is not None:
            from repro.rules import fold_rule_partials

            rule_report = fold_rule_partials(
                [(p.offset, p.n_rows, p.rule_partial) for p in ordered],
                rules,
                list(feature_names or []),
            )
        return ValidationReport(
            sample_errors=np.concatenate([p.sample_errors for p in ordered]),
            cell_errors=np.concatenate([p.cell_errors for p in ordered], axis=0),
            row_flags=row_flags,
            cell_flags=np.concatenate([p.cell_flags for p in ordered], axis=0),
            threshold=threshold,
            flagged_fraction=flagged_fraction,
            is_problematic=rule.is_problematic(flagged_fraction),
            feature_names=list(feature_names or []),
            rule_report=rule_report,
        )


@dataclass
class StreamSummary:
    """Bounded-memory outcome of a streamed validation.

    Holds everything Phase 2 decides — flagged rows, the batch verdict,
    per-column damage counts — without the per-cell error matrix.
    """

    n_rows: int
    n_chunks: int
    n_flagged: int
    flagged_rows: np.ndarray
    threshold: float
    flagged_fraction: float
    is_problematic: bool
    flagged_cells_by_column: dict[str, int] = field(default_factory=dict)
    mean_sample_error: float = 0.0
    max_sample_error: float = 0.0
    #: observation span of the stream, from the earliest/latest stamped
    #: :class:`PartialReport` (``None`` when no chunk carried a timestamp)
    first_timestamp: float | None = None
    last_timestamp: float | None = None
    #: fused :class:`~repro.rules.RuleReport` when the stream ran with a
    #: declarative rule set attached (additive; ``None`` otherwise)
    rule_report: "object | None" = None

    def summary(self) -> str:
        verdict = "PROBLEMATIC" if self.is_problematic else "OK"
        text = (
            f"{verdict}: {self.n_flagged}/{self.n_rows} rows flagged "
            f"({self.flagged_fraction:.2%}) across {self.n_chunks} chunks, "
            f"threshold={self.threshold:.5f}"
        )
        if self.rule_report is not None:
            text += f"; {self.rule_report.summary()}"
        return text

    # -- wire protocol (repro.api) ----------------------------------------
    def to_dict(self) -> dict:
        from repro.api.protocol import stream_summary_to_dict

        return stream_summary_to_dict(self)

    @staticmethod
    def from_dict(payload: dict) -> "StreamSummary":
        from repro.api.protocol import stream_summary_from_dict

        return stream_summary_from_dict(payload)


class StreamingValidator:
    """The validation core: Phase 2 over a fitted engine, chunk by chunk.

    ``validator`` is the pipeline's
    :class:`~repro.runtime.engine.InferenceEngine`, which carries the
    calibration context. One engine pass over an encoded matrix yields
    one :class:`PartialReport` per row span; every entry point is a
    chunking policy over that step:

    * :meth:`validate_chunk` — one chunk at a global row offset (streams,
      router replicas);
    * :meth:`validate` — a one-shot table, the one-chunk case;
    * :meth:`validate_many` — several tables fused into one engine pass,
      with a verdict and rule report per table (the scheduler's slab);
    * :meth:`validate_stream` / :meth:`validate_table` /
      :meth:`validate_frame_file` — ``chunk_size``-row chunks merged or
      folded exactly, in O(chunk_size × features) memory.

    ``monitor`` attaches a :class:`~repro.monitor.monitor.DriftMonitor`:
    every engine pass is observed once, on the already-encoded matrix,
    so the monitor costs a histogram pass, not a second preprocessing
    (see :func:`observe`; failures are logged, never raised).

    ``clock`` stamps each :class:`PartialReport` with an observation
    timestamp (injectable for tests); the default ``None`` leaves
    partials unstamped so streamed results stay fully deterministic.

    ``rules`` attaches a declarative rule set (any form accepted by
    :func:`repro.rules.resolve_rules`): each span is additionally
    evaluated against the compiled :class:`~repro.rules.RulePlan` and the
    per-span rule outputs fold into ``rule_report`` on the final
    report/summary — bit-identical to one-shot rule evaluation.
    """

    def __init__(
        self,
        validator,
        chunk_size: int = 8192,
        keep_cell_errors: bool = False,
        monitor=None,
        clock=None,
        rules=None,
    ) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.validator = validator
        self.chunk_size = chunk_size
        self.keep_cell_errors = keep_cell_errors
        self.monitor = monitor
        self.clock = clock
        if rules is None:
            self.rule_plan = None
        else:
            from repro.rules import resolve_rules

            self.rule_plan = resolve_rules(rules, validator.preprocessor)

    @classmethod
    def from_pipeline(
        cls,
        pipeline,
        chunk_size: int = 8192,
        keep_cell_errors: bool = False,
        monitor=None,
        clock=None,
        rules=None,
    ):
        """Build from a fitted :class:`~repro.core.pipeline.DQuaG`."""
        return cls(
            pipeline._require_validator(),
            chunk_size=chunk_size,
            keep_cell_errors=keep_cell_errors,
            monitor=monitor,
            clock=clock,
            rules=rules,
        )

    # -- the core step -------------------------------------------------------
    def _encode(self, chunk: Chunk) -> np.ndarray:
        """A Table chunk through the compiled plan, or a checked matrix."""
        preprocessor = self.validator.preprocessor
        if isinstance(chunk, Table):
            return preprocessor.compile().transform(chunk)
        matrix = np.asarray(chunk, dtype=np.float64)
        n_features = len(preprocessor.schema)
        if matrix.ndim != 2 or matrix.shape[1] != n_features:
            raise SchemaError(
                f"chunk matrix has shape {matrix.shape}; the trained schema "
                f"expects (rows, {n_features})"
            )
        return matrix

    def _validate_spans(
        self,
        matrix: np.ndarray,
        sizes: "list[int]",
        keep_cell_errors: bool,
        offset: int = 0,
        timestamp: float | None = None,
    ) -> "list[PartialReport]":
        """Run the engine once over ``matrix``; one partial per span.

        ``sizes`` cuts the rows into consecutive spans, each reported at
        ``offset`` as if validated alone: every decision but the verdict
        is row-local, so a span's report is bit-identical to its rows'
        one-shot report, and its rule partial sees only its own rows. The
        monitor observes the whole matrix once.
        """
        errors = self.validator.reconstruction_errors(matrix)
        partials = []
        start = 0
        for size in sizes:
            rows = slice(start, start + size)
            partial = PartialReport.from_report(
                self.validator.assemble(errors[rows]), offset, keep_cell_errors, timestamp
            )
            if self.rule_plan is not None:
                # The rule partial copies what it keeps, so evaluating on a
                # reused transform buffer (validate_table) is safe.
                partial.rule_partial = self.rule_plan.evaluate(matrix[rows])
            partials.append(partial)
            start += size
        observe(
            self.monitor,
            matrix,
            n_flagged=sum(partial.n_flagged for partial in partials),
            timestamp=timestamp,
        )
        return partials

    def _fold_context(self) -> dict:
        """What merging and folding partials needs besides the partials."""
        return {
            "threshold": self.validator.calibration.threshold,
            "rule": self.validator.rule,
            "feature_names": list(self.validator.preprocessor.schema.names),
            "rules": None if self.rule_plan is None else self.rule_plan.ruleset,
        }

    def _timestamp(self) -> float | None:
        return None if self.clock is None else float(self.clock())

    # -- one-shot API --------------------------------------------------------
    def validate(self, table: Table) -> ValidationReport:
        """The one-shot report for ``table``: the one-chunk case."""
        return self.validate_many([table])[0]

    def validate_many(self, tables: "list[Table]") -> "list[ValidationReport]":
        """Validate several tables in one fused engine pass, one report each.

        The tables are encoded and run as one matrix, but each report —
        its verdict and its rule report — covers only its own rows, so
        it is bit-identical to validating that table alone (a ``unique``
        rule sees only its own table).
        """
        fused = tables[0] if len(tables) == 1 else Table.concat(tables)
        partials = self._validate_spans(
            self._encode(fused),
            [table.n_rows for table in tables],
            keep_cell_errors=True,
            timestamp=self._timestamp(),
        )
        context = self._fold_context()
        return [PartialReport.merge([partial], **context) for partial in partials]

    # -- chunk-level API ---------------------------------------------------
    def validate_chunk(
        self, chunk: Chunk, offset: int = 0, timestamp: float | None = None
    ) -> PartialReport:
        """Validate one row chunk (a Table or a preprocessed matrix)."""
        matrix = self._encode(chunk)
        return self._validate_spans(
            matrix,
            [matrix.shape[0]],
            self.keep_cell_errors,
            offset,
            self._timestamp() if timestamp is None else timestamp,
        )[0]

    def iter_partials(self, chunks: Iterable[Chunk]) -> Iterator[PartialReport]:
        """Yield one :class:`PartialReport` per incoming chunk."""
        offset = 0
        for chunk in chunks:
            partial = self.validate_chunk(chunk, offset=offset)
            offset += partial.n_rows
            yield partial

    # -- stream-level API --------------------------------------------------
    def validate_stream(self, chunks: Iterable[Chunk]) -> "ValidationReport | StreamSummary":
        """Validate an iterator of row chunks.

        With ``keep_cell_errors=True`` returns the exact merged
        :class:`ValidationReport`; otherwise folds incrementally into a
        :class:`StreamSummary` without retaining any dense chunk output.
        """
        if self.keep_cell_errors:
            return PartialReport.merge(list(self.iter_partials(chunks)), **self._fold_context())
        return self.fold(self.iter_partials(chunks))

    def validate_table(self, table: Table) -> "ValidationReport | StreamSummary":
        """Validate a full table in ``chunk_size`` row slices.

        Chunks are encoded through the compiled
        :class:`~repro.data.plan.TransformPlan` into one reused buffer —
        the whole preprocessing side of the stream is allocation-free
        (each chunk is fully consumed before the next overwrites it).
        """
        if table.schema != self.validator.preprocessor.schema:
            raise SchemaError("table schema does not match the trained pipeline")
        plan = self.validator.preprocessor.compile()
        return self.validate_stream(plan.transform_chunks(table, self.chunk_size))

    def validate_frame_file(self, path) -> "ValidationReport | StreamSummary":
        """Validate a binary frame file out-of-core.

        The file (written by :class:`~repro.api.framing.FrameFileWriter`
        or :meth:`Table.to_frame_file`) is memory-mapped, never loaded:
        :func:`~repro.api.framing.open_frame_file` wraps its columns in
        lazy mmap-backed views, and :meth:`validate_table` slices them
        ``chunk_size`` rows at a time — so a file much larger than RAM
        validates in O(chunk_size × features) memory, the OS paging each
        window in and out as it is touched.
        """
        schema = self.validator.preprocessor.schema
        return self.validate_table(Table.from_frame_file(path, schema=schema))

    # -- folding -----------------------------------------------------------
    def fold(self, partials: Iterable[PartialReport]) -> StreamSummary:
        """Fold partial reports into a :class:`StreamSummary` incrementally.

        Public so transports (e.g. the HTTP gateway's ``/validate_stream``)
        can interleave their own per-chunk acknowledgements with the fold.
        """
        return fold_partials(partials, **self._fold_context())


def fold_partials(
    partials: Iterable[PartialReport],
    threshold: float,
    rule,
    feature_names: list[str],
    rules=None,
) -> StreamSummary:
    """Fold partial reports into a :class:`StreamSummary` incrementally.

    Standalone so mergers that have no live validator — e.g. the router
    folding replica outputs against archive metadata — apply the exact
    same accumulation as :meth:`StreamingValidator.fold`.
    ``rules`` (a :class:`~repro.rules.RuleSet`) additionally folds the
    partials' chunk-local rule outputs into ``summary.rule_report``.
    """
    names = list(feature_names)
    n_rows = 0
    n_chunks = 0
    n_flagged = 0
    flagged: list[np.ndarray] = []
    by_column: dict[str, int] = {}
    error_sum = 0.0
    error_max = 0.0
    first_ts: float | None = None
    last_ts: float | None = None
    rule_parts: "list[tuple[int, int, object]] | None" = None if rules is None else []
    for partial in partials:
        n_rows += partial.n_rows
        n_chunks += 1
        n_flagged += partial.n_flagged
        if partial.n_flagged:
            flagged.append(partial.flagged_rows)
        for col, count in zip(*np.unique(partial.cell_cols, return_counts=True)):
            name = names[int(col)]
            by_column[name] = by_column.get(name, 0) + int(count)
        if partial.sample_errors.size:
            error_sum += float(partial.sample_errors.sum())
            error_max = max(error_max, float(partial.sample_errors.max()))
        if partial.timestamp is not None:
            ts = float(partial.timestamp)
            first_ts = ts if first_ts is None else min(first_ts, ts)
            last_ts = ts if last_ts is None else max(last_ts, ts)
        if rule_parts is not None:
            rule_parts.append((partial.offset, partial.n_rows, partial.rule_partial))
    if n_rows == 0:
        raise ValidationError(EMPTY_STREAM_MESSAGE)
    rule_report = None
    if rules is not None:
        from repro.rules import fold_rule_partials

        rule_report = fold_rule_partials(rule_parts, rules, names)
    flagged_fraction = n_flagged / n_rows
    return StreamSummary(
        n_rows=n_rows,
        n_chunks=n_chunks,
        n_flagged=n_flagged,
        flagged_rows=np.concatenate(flagged) if flagged else np.empty(0, dtype=np.int64),
        threshold=threshold,
        flagged_fraction=flagged_fraction,
        is_problematic=rule.is_problematic(flagged_fraction),
        flagged_cells_by_column=by_column,
        mean_sample_error=error_sum / n_rows,
        max_sample_error=error_max,
        first_timestamp=first_ts,
        last_timestamp=last_ts,
        rule_report=rule_report,
    )
