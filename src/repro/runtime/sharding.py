"""Sharded parallel Phase-2 validation: partition, validate, merge exactly.

The §3.2.1 decision rules are row-local (only the final 5%·n batch
verdict is global), so a table or stream can be partitioned into row
shards, validated on independent worker *processes*, and the shard
outcomes merged into the exact one-shot result — the same property the
streaming fold exploits for bounded memory, applied here for parallel
speed (the Figure-4 scalability axis):

* :class:`ShardPlanner` — splits row ranges into engine-chunk-aligned
  contiguous shards, and regroups arbitrary chunk streams (e.g.
  ``read_csv_chunks``) into shard-sized super-chunks;
* :class:`ParallelValidator` — executes shards on a
  :class:`~concurrent.futures.ProcessPoolExecutor`. Workers rebuild the
  engine from a ``DQuaG.save`` weight archive (nothing live is pickled)
  and run the validation core over it; shard outcomes travel back as wire-encoded
  :class:`~repro.runtime.streaming.PartialReport` payloads via the
  :mod:`repro.api` protocol and are folded into the exact
  :class:`~repro.core.validator.ValidationReport` (dense mode) or
  :class:`~repro.runtime.streaming.StreamSummary` (bounded-memory mode).

When the platform supports it, shard data moves over the zero-copy
shared-memory plane (:mod:`repro.runtime.shm`) instead of the pickled
transport: the parent encodes rows straight into shared slabs and the
workers validate matrix windows in place — same bits, no serialization,
no per-worker re-transform — with automatic pickled fallback whenever
shm is unavailable, over budget, or a worker dies mid-shard.

Because shard boundaries are multiples of the validation chunk size and
the engine's numerics are chunk-size invariant, the merged result is
bit-identical to the single-process path regardless of the worker count.
One caveat on *streams*: incoming chunks are regrouped into shard-sized
super-chunks, so the summary's ``n_chunks`` reflects the shard
partition, not the caller's chunking (every row-local outcome — flags,
counts, verdict — is still identical); table-path summaries share the
single-process chunk partition exactly, ``n_chunks`` included.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
import weakref
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.core.thresholds import DatasetDecisionRule
from repro.core.validator import ValidationReport
from repro.data.table import Table
from repro.exceptions import (
    ReproError,
    SerializationError,
    TransientServiceError,
    ValidationError,
)
from repro.runtime.streaming import (
    EMPTY_STREAM_MESSAGE,
    Chunk,
    PartialReport,
    StreamSummary,
    fold_partials,
)
from repro.utils.logging import get_logger

__all__ = ["Shard", "ShardPlanner", "ParallelValidator"]

logger = get_logger("runtime.sharding")


@dataclass(frozen=True)
class Shard:
    """One contiguous row range of the global table/stream."""

    index: int
    offset: int
    n_rows: int

    @property
    def stop(self) -> int:
        return self.offset + self.n_rows


class ShardPlanner:
    """Splits row ranges into chunk-aligned contiguous shards.

    Shard boundaries fall on multiples of ``chunk_size`` (the validation
    chunk), so a worker chunking its shard locally reproduces the exact
    global chunk partition of the single-process streaming path — partial
    reports, and therefore the merged result, line up one-to-one.
    """

    def __init__(self, chunk_size: int = 8192) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size

    def plan(self, n_rows: int, shards: int) -> list[Shard]:
        """At most ``shards`` balanced, chunk-aligned contiguous ranges."""
        if n_rows < 0:
            raise ValueError(f"n_rows must be >= 0, got {n_rows}")
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if n_rows == 0:
            return []
        n_chunks = -(-n_rows // self.chunk_size)
        shards = min(shards, n_chunks)
        base, extra = divmod(n_chunks, shards)
        plans: list[Shard] = []
        offset = 0
        for index in range(shards):
            chunks = base + (1 if index < extra else 0)
            n = min(chunks * self.chunk_size, n_rows - offset)
            plans.append(Shard(index=index, offset=offset, n_rows=n))
            offset += n
        return plans

    def split_table(self, table: Table, shards: int) -> list[tuple[Shard, Table]]:
        """Slice a table into planned shards (column views, no row copies)."""
        return [
            (shard, _slice_chunk(table, shard.offset, shard.stop))
            for shard in self.plan(table.n_rows, shards)
        ]

    def iter_stream_shards(
        self,
        chunks: Iterable[Chunk],
        chunks_per_shard: int = 4,
        reuse_buffer: bool = False,
    ) -> Iterator[tuple[Shard, Chunk]]:
        """Regroup an arbitrary chunk stream into shard-sized super-chunks.

        Incoming chunks (Tables or preprocessed matrices, not mixed) are
        written incrementally into one pre-allocated shard-sized buffer
        and cut at multiples of ``chunk_size × chunks_per_shard`` rows;
        only one shard of rows is ever buffered and each row is copied at
        most once (a chunk that already spans a full shard is sliced
        through zero-copy). With ``reuse_buffer=True`` every yielded
        super-chunk is a view over the *same* buffer — allocation-free,
        but the caller must fully consume each shard before advancing
        (mirrors ``TransformPlan.transform_chunks(reuse_buffer=True)``).
        """
        if chunks_per_shard < 1:
            raise ValueError(f"chunks_per_shard must be positive, got {chunks_per_shard}")
        shard_rows = self.chunk_size * chunks_per_shard
        buffer: _ShardBuffer | None = None
        offset = 0
        index = 0
        kind: str | None = None
        for chunk in chunks:
            if isinstance(chunk, Table):
                this = "table"
                n = chunk.n_rows
            else:
                chunk = np.asarray(chunk, dtype=np.float64)
                this = "matrix"
                n = chunk.shape[0]
            if kind is None:
                kind = this
            elif kind != this:
                raise ValidationError("cannot mix Table and matrix chunks in one stream")
            pos = 0
            while pos < n:
                if (buffer is None or not buffer.filled) and n - pos >= shard_rows:
                    # A full shard sits contiguously in the incoming
                    # chunk: slice it through without touching the buffer.
                    yield (
                        Shard(index=index, offset=offset, n_rows=shard_rows),
                        _slice_chunk(chunk, pos, pos + shard_rows),
                    )
                    index += 1
                    offset += shard_rows
                    pos += shard_rows
                    continue
                if buffer is None:
                    buffer = _ShardBuffer(shard_rows, chunk)
                take = min(n - pos, shard_rows - buffer.filled)
                buffer.append(chunk, pos, pos + take)
                pos += take
                if buffer.filled == shard_rows:
                    yield (
                        Shard(index=index, offset=offset, n_rows=shard_rows),
                        buffer.cut(reuse=reuse_buffer),
                    )
                    index += 1
                    offset += shard_rows
        if buffer is not None and buffer.filled:
            yield (
                Shard(index=index, offset=offset, n_rows=buffer.filled),
                buffer.cut(reuse=reuse_buffer),
            )


class _ShardBuffer:
    """Pre-allocated shard-sized accumulator for stream regrouping.

    Replaces the old regroup strategy of re-concatenating every buffered
    chunk on each super-chunk cut (which copied the carried remainder
    again for every incoming chunk): rows are written once into a
    shard-capacity buffer and the filled prefix is handed out per cut.
    """

    def __init__(self, capacity: int, template: Chunk) -> None:
        self.capacity = capacity
        self.filled = 0
        if isinstance(template, Table):
            self.schema = template.schema
            self._columns: dict[str, np.ndarray] | None = {
                name: np.empty(capacity, dtype=template.column(name).dtype)
                for name in template.schema.names
            }
            self._matrix = None
        else:
            self._columns = None
            self._matrix = np.empty((capacity, template.shape[1]), dtype=np.float64)

    def append(self, chunk: Chunk, start: int, stop: int) -> None:
        end = self.filled + (stop - start)
        if self._columns is not None:
            if chunk.schema != self.schema:
                from repro.exceptions import SchemaError

                raise SchemaError("cannot concat tables with different schemas")
            for name, buf in self._columns.items():
                col = chunk.column(name)
                promoted = np.promote_types(buf.dtype, col.dtype)
                if promoted != buf.dtype:
                    # e.g. a later chunk with wider strings: regrow once,
                    # exactly as np.concatenate would have promoted.
                    grown = np.empty(self.capacity, dtype=promoted)
                    grown[: self.filled] = buf[: self.filled]
                    self._columns[name] = buf = grown
                buf[self.filled : end] = col[start:stop]
        else:
            self._matrix[self.filled : end] = chunk[start:stop]
        self.filled = end

    def cut(self, reuse: bool) -> Chunk:
        """The filled prefix as a super-chunk; resets for the next shard."""
        n = self.filled
        if self._columns is not None:
            view: Chunk = Table._wrap(
                self.schema, {name: buf[:n] for name, buf in self._columns.items()}, n
            )
            if not reuse:
                # Ownership of the arrays moves to the yielded chunk;
                # back the next shard with fresh ones.
                self._columns = {
                    name: np.empty(self.capacity, dtype=buf.dtype)
                    for name, buf in self._columns.items()
                }
        else:
            view = self._matrix[:n]
            if not reuse:
                self._matrix = np.empty_like(self._matrix)
        self.filled = 0
        return view


def _slice_chunk(chunk: Chunk, start: int, stop: int) -> Chunk:
    if isinstance(chunk, Table):
        # Zero-copy row view: skips the constructor's per-value column
        # normalization, which would copy every object column per slice.
        return chunk.slice_rows(start, stop)
    return chunk[start:stop]


# ---------------------------------------------------------------------------
# merge context — what the parent needs to fold shard outputs
# ---------------------------------------------------------------------------
@dataclass
class _MergeContext:
    """The (small) parent-side state folding needs: no model, no engine.

    ``preprocessor`` rides along for the shared-memory data plane — the
    parent encodes tables into slabs itself (the transform is bit-exact
    and must run somewhere anyway), so workers validate raw matrix
    windows with no re-transform.
    """

    threshold: float
    rule: DatasetDecisionRule
    schema: object  # TableSchema of the trained pipeline
    feature_names: list[str]
    preprocessor: object | None = None  # TablePreprocessor (fitted)


def _context_from_archive(archive: Path) -> _MergeContext:
    from repro.core.config import DQuaGConfig
    from repro.data.preprocess import TablePreprocessor
    from repro.nn.serialization import load_state

    _, metadata = load_state(archive)
    if "preprocessor" not in metadata or "calibration" not in metadata:
        raise SerializationError(
            f"{archive} does not carry preprocessor/calibration state "
            "(pre-runtime archive); retrain and re-save the pipeline"
        )
    config = DQuaGConfig.from_dict(metadata["config"])
    preprocessor = TablePreprocessor.from_metadata(metadata["preprocessor"])
    schema = preprocessor.schema
    return _MergeContext(
        threshold=float(metadata["calibration"]["threshold"]),
        rule=DatasetDecisionRule(
            percentile=config.threshold_percentile,
            n_multiplier=config.dataset_rule_n,
        ),
        schema=schema,
        feature_names=list(schema.names),
        preprocessor=preprocessor,
    )


# ---------------------------------------------------------------------------
# worker side — one pipeline per process, rebuilt from the archive
# ---------------------------------------------------------------------------
_WORKER: dict[str, object] = {}


def _worker_init(archive: str, chunk_size: int) -> None:
    """Process-pool initializer: rebuild the engine from the archive."""
    from repro.core.pipeline import DQuaG

    engine = DQuaG().load_weights(archive)._require_validator()
    # The pool's processes already cover the CPUs; a worker fanning its
    # engine out as well would only oversubscribe them.
    engine.width = 1
    _WORKER["validator"] = engine
    _WORKER["chunk_size"] = int(chunk_size)


def _worker_rule_plan(rules_payload: dict | None):
    """Compile a wire-shipped rule set against the worker's pipeline.

    Compiled plans are cached per rule-set fingerprint, so repeated
    shards of the same request (and repeated requests under the same
    registered rules) pay compilation once per process.
    """
    if rules_payload is None:
        return None
    from repro.rules import RuleSet

    ruleset = RuleSet.from_payload(rules_payload)
    cache: dict = _WORKER.setdefault("rule_plans", {})  # type: ignore[assignment]
    plan = cache.get(ruleset.fingerprint)
    if plan is None:
        plan = ruleset.compile(_WORKER["validator"].preprocessor)
        cache[ruleset.fingerprint] = plan
    return plan


def _validate_shard(
    offset: int,
    payload: tuple[str, object],
    keep_cell_errors: bool,
    rules_payload: dict | None = None,
) -> list[dict]:
    """Validate one shard; return wire-encoded partial reports.

    The shard is processed in ``chunk_size`` sub-chunks (one
    :class:`PartialReport` each, offsets globalized), so worker memory
    stays bounded and the global chunk partition matches the
    single-process streaming path exactly. ``rules_payload`` (a
    :class:`~repro.rules.RuleSet` wire dict) attaches per-chunk rule
    evaluation; the chunk-local rule outputs ride each partial back.
    """
    from repro.runtime.streaming import StreamingValidator

    validator = _WORKER["validator"]
    chunk_size: int = _WORKER["chunk_size"]  # type: ignore[assignment]
    streaming = StreamingValidator(
        validator,
        chunk_size=chunk_size,
        keep_cell_errors=keep_cell_errors,
        rules=_worker_rule_plan(rules_payload),
    )
    kind, data = payload
    holder = None
    if kind == "table":
        table = Table(validator.preprocessor.schema, data)
        # Compiled-plan encoding into one worker-local reused buffer:
        # each chunk is validated before the next overwrites it.
        chunks: Iterable[np.ndarray] = validator.preprocessor.compile().transform_chunks(
            table, chunk_size
        )
    elif kind == "shm":
        # Zero-copy plane: the parent already encoded the rows into a
        # shared slab; attach and window it — no pickled rows, no
        # re-transform. Pool slabs (cache=True) keep their mapping in a
        # bounded process-local cache across the stream's shards.
        from repro.runtime.shm import attach_window

        window, holder = attach_window(data, cache=bool(data.get("cache")))
        chunks = (
            window[start : start + chunk_size]
            for start in range(0, window.shape[0], chunk_size)
        )
    else:
        matrix = np.asarray(data, dtype=np.float64)
        chunks = (
            matrix[start : start + chunk_size]
            for start in range(0, matrix.shape[0], chunk_size)
        )
    try:
        encoded: list[dict] = []
        for partial in streaming.iter_partials(chunks):
            partial.offset += offset
            encoded.append(partial.to_dict())
    finally:
        if holder is not None:
            # One-shot table slab: release the mapping promptly so an
            # already-unlinked segment's memory is freed with the request.
            holder.close()
    return encoded


def _warm_task(delay: float) -> int:
    """Occupy one worker briefly; identifies which process ran it."""
    time.sleep(delay)
    return os.getpid()


def _remove_file(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


# ---------------------------------------------------------------------------
# the parallel executor
# ---------------------------------------------------------------------------
class ParallelValidator:
    """Multi-process Phase-2 validation with exact single-process results.

    >>> parallel = ParallelValidator("models/hotel.npz", workers=4)  # doctest: +SKIP
    >>> report = parallel.validate_table(big_table, keep_cell_errors=True)  # doctest: +SKIP
    >>> summary = parallel.validate_stream(read_csv_chunks(path, schema))   # doctest: +SKIP

    Workers are separate processes (``spawn`` by default: safe to create
    from threaded servers) that each load the pipeline from ``archive``
    once; requests then only ship row data out and wire-encoded partial
    reports back. The pool is lazy — created on first use — and must be
    released with :meth:`close` (or a ``with`` block).
    """

    def __init__(
        self,
        archive: str | Path,
        workers: int | None = None,
        chunk_size: int = 8192,
        keep_cell_errors: bool = False,
        chunks_per_shard: int = 4,
        mp_context: str = "spawn",
        use_shm: bool | None = None,
        slab_budget: int | None = None,
        _context: _MergeContext | None = None,
        _owns_archive: bool = False,
    ) -> None:
        from repro.runtime.shm import slab_budget_bytes

        self.archive = Path(archive)
        if not self.archive.exists():
            raise ReproError(f"no such pipeline archive: {self.archive}")
        self.workers = (os.cpu_count() or 1) if workers is None else max(1, int(workers))
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size
        self.keep_cell_errors = keep_cell_errors
        self.chunks_per_shard = chunks_per_shard
        self.planner = ShardPlanner(chunk_size)
        self._mp_context = mp_context
        self._merge = _context if _context is not None else _context_from_archive(self.archive)
        # Shared-memory data plane: None = auto (on when the platform
        # supports it), False = pickled fan-out only, True = prefer shm
        # (still falls back rather than fail). ``slab_budget`` caps the
        # shared bytes one request may hold (default REPRO_SHM_BUDGET_MB
        # or 1 GiB); over-budget requests take the pickled path.
        self.use_shm = use_shm
        self.slab_budget_bytes = slab_budget_bytes(slab_budget)
        self.shm_stats: dict[str, int] = {
            "shm_tables": 0,
            "shm_stream_shards": 0,
            "fallbacks": 0,
            "recoveries": 0,
        }
        self._plan = None  # lazily compiled TransformPlan for slab encoding
        self._pool: ProcessPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False
        # Temp archives written by from_pipeline are reclaimed even if
        # close() is never called.
        self._archive_finalizer = (
            weakref.finalize(self, _remove_file, str(self.archive)) if _owns_archive else None
        )

    @classmethod
    def from_pipeline(
        cls, pipeline, archive: str | Path | None = None, **options
    ) -> "ParallelValidator":
        """Build from a fitted :class:`~repro.core.pipeline.DQuaG`.

        Workers cannot receive the live pipeline (nothing live is
        pickled), so it is saved to ``archive`` — a temp file, reclaimed
        on :meth:`close`, when no path is given. The merge context is
        taken from the live validator, skipping an archive re-read.
        """
        validator = pipeline._require_validator()
        context = _MergeContext(
            threshold=validator.calibration.threshold,
            rule=validator.rule,
            schema=validator.preprocessor.schema,
            feature_names=list(validator.preprocessor.schema.names),
            preprocessor=validator.preprocessor,
        )
        owns = archive is None
        if owns:
            handle, archive = tempfile.mkstemp(prefix="dquag-shard-", suffix=".npz")
            os.close(handle)
        archive = Path(archive)
        if owns or not archive.exists():
            pipeline.save(archive)
        return cls(archive, _context=context, _owns_archive=owns, **options)

    # -- execution ---------------------------------------------------------
    def validate_table(
        self,
        table: Table,
        shards: int | None = None,
        keep_cell_errors: bool | None = None,
        rules=None,
    ) -> "ValidationReport | StreamSummary":
        """Validate a full table across the worker pool.

        ``shards`` defaults to the worker count; any value yields the
        same result bit-for-bit — boundaries stay chunk-aligned.
        ``rules`` attaches a declarative rule set (any form accepted by
        :func:`repro.rules.resolve_ruleset`): each worker compiles it
        against its own pipeline copy (cached per fingerprint) and the
        folded ``rule_report`` is bit-identical to one-shot evaluation.

        When the shared-memory data plane is on (see ``use_shm``), the
        parent encodes the table straight into a shared slab and workers
        validate zero-copy windows — bit-identical output, no pickled
        rows; unavailable/over-budget requests fall back transparently.
        """
        if table.n_rows == 0:
            raise ValidationError(EMPTY_STREAM_MESSAGE)
        self._check_schema(table)
        ruleset = self._resolve_rules(rules)
        keep = self.keep_cell_errors if keep_cell_errors is None else keep_cell_errors
        partials: list[PartialReport] | None = None
        if self._shm_ready():
            partials = self._validate_table_shm(table, shards or self.workers, keep, ruleset)
            if partials is None:
                self.shm_stats["fallbacks"] += 1
        if partials is None:
            pool = self._ensure_pool()
            futures = [
                self._submit(pool, shard.offset, shard_table, keep, ruleset)
                for shard, shard_table in self.planner.split_table(table, shards or self.workers)
            ]
            partials = [
                PartialReport.from_dict(payload)
                for future in futures
                for payload in future.result()
            ]
        return self._finish(partials, keep, ruleset)

    def validate_stream(
        self,
        chunks: Iterable[Chunk],
        keep_cell_errors: bool | None = None,
        max_parallel: int | None = None,
        rules=None,
    ) -> "ValidationReport | StreamSummary":
        """Validate a chunk stream, dispatching shard-sized groups as they fill.

        At most ``max_parallel`` (default ``2 × workers``) shards are in
        flight, so parent memory stays bounded by the shard size
        regardless of stream length; a smaller cap also bounds how many
        workers the stream can occupy at once (used by the service's
        budgeted grants). ``rules`` behaves as in :meth:`validate_table`.

        With the shared-memory data plane on, super-chunks are written
        round-robin into a bounded ring of reused slabs (see ``use_shm``);
        the shm-or-pickled decision is made before the first chunk is
        consumed, so the fallback never loses stream data.
        """
        ruleset = self._resolve_rules(rules)
        keep = self.keep_cell_errors if keep_cell_errors is None else keep_cell_errors
        in_flight = max(1, max_parallel) if max_parallel else 2 * self.workers
        partials: list[PartialReport] | None = None
        if self._shm_ready():
            partials = self._validate_stream_shm(chunks, keep, ruleset, in_flight)
            if partials is None:
                self.shm_stats["fallbacks"] += 1
        if partials is None:
            pool = self._ensure_pool()
            pending: "deque" = deque()
            folded: list[PartialReport] = []
            partials = folded

            def drain(future) -> None:
                folded.extend(
                    PartialReport.from_dict(payload) for payload in future.result()
                )

            for shard, payload in self.planner.iter_stream_shards(chunks, self.chunks_per_shard):
                while len(pending) >= in_flight:
                    drain(pending.popleft())
                pending.append(self._submit(pool, shard.offset, payload, keep, ruleset))
            while pending:
                drain(pending.popleft())
        return self._finish(partials, keep, ruleset)

    @staticmethod
    def _resolve_rules(rules):
        if rules is None:
            return None
        from repro.rules import resolve_ruleset

        return resolve_ruleset(rules)

    def _check_schema(self, table: Table) -> None:
        # Workers rebuild shard Tables under the *trained* schema, which
        # would silently coerce a mismatched input; reject it up front
        # with the same error the one-shot path raises.
        if table.schema != self._merge.schema:
            from repro.exceptions import SchemaError

            raise SchemaError("table schema does not match the trained pipeline")

    def _submit(self, pool, offset: int, chunk: Chunk, keep: bool, ruleset=None):
        if isinstance(chunk, Table):
            self._check_schema(chunk)
            payload = ("table", {name: chunk.column(name) for name in chunk.schema.names})
        else:
            payload = ("matrix", np.ascontiguousarray(chunk, dtype=np.float64))
        return self._submit_payload(pool, offset, payload, keep, ruleset)

    def _submit_payload(self, pool, offset: int, payload, keep: bool, ruleset=None):
        rules_payload = None if ruleset is None else ruleset.to_dict()
        try:
            return pool.submit(_validate_shard, offset, payload, keep, rules_payload)
        except RuntimeError as exc:
            from concurrent.futures.process import BrokenProcessPool

            if isinstance(exc, BrokenProcessPool):
                raise  # genuinely broken workers — not retryable
            # submit-after-shutdown: a concurrent close() (re-register,
            # eviction, widen) got here first. Typed so callers holding a
            # registry can retry against a fresh pool.
            raise TransientServiceError(
                "ParallelValidator pool was closed during submission"
            ) from exc

    # -- shared-memory data plane ------------------------------------------
    def _shm_ready(self) -> bool:
        if self.use_shm is False or self._merge.preprocessor is None:
            return False
        from repro.runtime.shm import shm_available

        return shm_available()

    def _transform_plan(self):
        if self._plan is None and self._merge.preprocessor is not None:
            self._plan = self._merge.preprocessor.compile()
        return self._plan

    def _validate_table_shm(self, table: Table, shards: int, keep: bool, ruleset):
        """Encode into one shared slab and fan out zero-copy windows.

        Returns the shard partials, or ``None`` when the slab cannot be
        afforded or created — the caller falls back to the pickled path
        (this decision never consumes caller state, so fallback is free).
        """
        from repro.runtime.shm import SharedSlab

        plan = self._transform_plan()
        if plan is None or table.n_rows * plan.n_features * 8 > self.slab_budget_bytes:
            return None
        try:
            slab = SharedSlab.create(table.n_rows, plan.n_features)
        except (OSError, ValueError):
            return None
        try:
            plan.transform_into(table, slab.matrix)
            submitted = []
            for shard in self.planner.plan(table.n_rows, shards):
                spec = slab.spec(table.n_rows, shard.offset, shard.stop)
                spec["cache"] = False
                submitted.append(
                    (shard, self._submit_shm(shard.offset, spec, keep, ruleset))
                )
            self.shm_stats["shm_tables"] += 1
            partials: list[PartialReport] = []
            for shard, future in submitted:
                partials.extend(
                    self._drain_shm(
                        future, shard.offset, slab.matrix[shard.offset : shard.stop], keep, ruleset
                    )
                )
        finally:
            slab.close()
        return partials

    def _validate_stream_shm(self, chunks: Iterable[Chunk], keep: bool, ruleset, in_flight: int):
        """Stream rows through a bounded ring of reused shared slabs.

        Returns ``None`` — fall back to the pickled path — only *before*
        consuming a single chunk (no preprocessor, shm unavailable, or a
        2-slab ring does not fit the budget). A slab is rewritten only
        after the shard it carried has been drained, so worker-death
        recovery can always replay the rows still sitting in the slab.
        """
        from repro.runtime.shm import SlabPool

        plan = self._transform_plan()
        if plan is None:
            return None
        shard_rows = self.chunk_size * self.chunks_per_shard
        ring = SlabPool.open(
            max(2, min(in_flight, 2 * self.workers)),
            shard_rows,
            plan.n_features,
            self.slab_budget_bytes,
        )
        if ring is None:
            return None
        in_flight = min(in_flight, len(ring))
        self._ensure_pool()
        partials: list[PartialReport] = []
        pending: "deque" = deque()  # (future, offset, slab, n_rows)

        def drain_one() -> None:
            future, at, slab, n_rows = pending.popleft()
            partials.extend(self._drain_shm(future, at, slab.matrix[:n_rows], keep, ruleset))

        def flush(slab, n_rows: int, at: int) -> None:
            spec = slab.spec(shard_rows, 0, n_rows)
            spec["cache"] = True  # ring slabs recur: workers keep the mapping
            pending.append(
                (self._submit_shm(at, spec, keep, ruleset), at, slab, n_rows)
            )
            self.shm_stats["shm_stream_shards"] += 1

        index = 0
        offset = 0
        filled = 0
        kind: str | None = None
        try:
            for chunk in chunks:
                if isinstance(chunk, Table):
                    this = "table"
                    n = chunk.n_rows
                else:
                    chunk = np.asarray(chunk, dtype=np.float64)
                    this = "matrix"
                    n = chunk.shape[0]
                if kind is None:
                    kind = this
                elif kind != this:
                    raise ValidationError("cannot mix Table and matrix chunks in one stream")
                if this == "table":
                    self._check_schema(chunk)
                elif chunk.ndim != 2 or chunk.shape[1] != plan.n_features:
                    from repro.exceptions import SchemaError

                    raise SchemaError(
                        f"chunk matrix has shape {chunk.shape}; the trained schema "
                        f"expects (rows, {plan.n_features})"
                    )
                pos = 0
                while pos < n:
                    if filled == 0:
                        # Backpressure: the slot about to be written must
                        # have drained its previous shard (ring-length and
                        # max_parallel both bound what is in flight).
                        while len(pending) >= in_flight:
                            drain_one()
                    slab = ring.slab(index)
                    take = min(n - pos, shard_rows - filled)
                    if this == "table":
                        plan.transform_into(chunk, slab.matrix[filled:], start=pos, stop=pos + take)
                    else:
                        np.copyto(slab.matrix[filled : filled + take], chunk[pos : pos + take])
                    filled += take
                    pos += take
                    if filled == shard_rows:
                        flush(slab, shard_rows, offset)
                        index += 1
                        offset += shard_rows
                        filled = 0
            if filled:
                flush(ring.slab(index), filled, offset)
            while pending:
                drain_one()
        finally:
            ring.close()
        return partials

    def _submit_shm(self, offset: int, spec: dict, keep: bool, ruleset):
        """Submit one shm shard, surviving a pool already flagged broken.

        A submit-time ``BrokenProcessPool`` means the workers died
        *between* requests — nothing of this shard ever reached them and
        the slab is untouched — so rebuild the pool once and resubmit.
        (Death *after* submission is :meth:`_drain_shm`'s case.)
        """
        from concurrent.futures.process import BrokenProcessPool

        try:
            return self._submit_payload(self._ensure_pool(), offset, ("shm", spec), keep, ruleset)
        except BrokenProcessPool:
            logger.warning(
                "shard pool was broken at submit (offset %d); rebuilding and resubmitting",
                offset,
            )
            self.shm_stats["recoveries"] += 1
            self._rebuild_pool()
            return self._submit_payload(self._ensure_pool(), offset, ("shm", spec), keep, ruleset)

    def _drain_shm(self, future, offset: int, window: np.ndarray, keep: bool, ruleset):
        """Resolve one shm shard future, surviving worker death.

        If the pool broke mid-shard, the rows are still sitting in the
        slab (never rewritten before its future drains): rebuild the pool
        and replay that window through the pickled matrix path — the
        request degrades, it does not fail.
        """
        from concurrent.futures.process import BrokenProcessPool

        try:
            payloads = future.result()
        except BrokenProcessPool:
            logger.warning(
                "shard worker died mid-shard (offset %d); replaying via the pickled path",
                offset,
            )
            self.shm_stats["recoveries"] += 1
            self._rebuild_pool()
            replay = self._submit(
                self._ensure_pool(), offset, np.array(window, dtype=np.float64), keep, ruleset
            )
            payloads = replay.result()
        return [PartialReport.from_dict(payload) for payload in payloads]

    def _rebuild_pool(self) -> None:
        with self._pool_lock:
            if self._closed:
                raise TransientServiceError("ParallelValidator is closed")
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def _finish(
        self, partials: list[PartialReport], keep: bool, ruleset=None
    ) -> "ValidationReport | StreamSummary":
        if not partials:
            raise ValidationError(EMPTY_STREAM_MESSAGE)
        partials.sort(key=lambda partial: partial.offset)
        if keep:
            return PartialReport.merge(
                partials,
                threshold=self._merge.threshold,
                rule=self._merge.rule,
                feature_names=self._merge.feature_names,
                rules=ruleset,
            )
        return fold_partials(
            partials,
            threshold=self._merge.threshold,
            rule=self._merge.rule,
            feature_names=self._merge.feature_names,
            rules=ruleset,
        )

    # -- lifecycle ---------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        # Double-checked under a lock: concurrent first calls (the
        # gateway serves each request on its own thread) must not each
        # spawn a pool and orphan all but the last.
        if self._pool is not None:
            return self._pool
        with self._pool_lock:
            if self._pool is not None:
                return self._pool
            if self._closed:
                raise TransientServiceError("ParallelValidator is closed")
            if not self.archive.exists():
                # Workers would die loading a missing archive, surfacing
                # as an opaque BrokenProcessPool; refuse up front.
                raise ReproError(f"pipeline archive {self.archive} no longer exists")
            logger.info(
                "starting %d shard worker(s) from %s (%s)",
                self.workers,
                self.archive,
                self._mp_context,
            )
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=get_context(self._mp_context),
                initializer=_worker_init,
                initargs=(str(self.archive), self.chunk_size),
            )
        return self._pool

    def warm(self, timeout: float = 120.0) -> "ParallelValidator":
        """Start the pool and block until every worker has loaded the archive.

        Worker identity is verified by PID: rounds of brief blocking
        tasks are submitted until all ``workers`` distinct processes have
        answered (a fast worker draining several tasks cannot fake a
        cold sibling warm).
        """
        pool = self._ensure_pool()
        seen: set[int] = set()
        deadline = time.monotonic() + timeout
        while len(seen) < self.workers and time.monotonic() < deadline:
            futures = [pool.submit(_warm_task, 0.05) for _ in range(self.workers)]
            seen.update(future.result() for future in futures)
        if len(seen) < self.workers:
            raise ReproError(
                f"only {len(seen)}/{self.workers} shard workers answered within "
                f"{timeout:.0f}s; the pool is not fully warm"
            )
        return self

    def close(self) -> None:
        """Shut down the pool; the validator cannot be used afterwards."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        if self._archive_finalizer is not None:
            self._archive_finalizer()

    def __enter__(self) -> "ParallelValidator":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
