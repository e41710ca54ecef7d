"""Multi-pipeline serving layer: load, cache, and dispatch validation.

A :class:`ValidationService` fronts many fitted DQuaG pipelines — one
per dataset/tenant — the way a model server fronts model versions:

* pipelines are **registered** by name against a weight archive
  (``DQuaG.save``) and loaded lazily on first request — a load compiles
  both the model kernels and the preprocessor's
  :class:`~repro.data.plan.TransformPlan`, so the first request after a
  (re)load already runs the vectorized scan-rate encode path;
* loaded pipelines live in an **LRU cache** of bounded capacity, so a
  service can front hundreds of registered pipelines with a handful
  resident (reloads come straight from the archive — no clean table
  needed, the preprocessor state is persisted in the archive metadata).
  Directly-``add()``-ed pipelines are *pinned*: they have no archive to
  reload from, so they are never evicted and do not count against the
  LRU capacity;
* requests dispatch across a **thread pool**. The compiled inference
  engine is plain NumPy, whose matmuls release the GIL, so concurrent
  batches genuinely overlap on multicore hosts.

This is the dispatch surface the HTTP gateway (:mod:`repro.serve`)
fronts: ``validate``/``repair``/``submit_many`` plus per-pipeline
:meth:`pipeline_stats` and a wire-encodable :class:`ServiceStats`
snapshot. Every pipeline additionally gets a lazy per-generation
:class:`~repro.monitor.monitor.DriftMonitor` (see :meth:`monitor_for`)
and an optional declarative rule plan (see :meth:`rule_plan_for`).
:meth:`validator_for` wraps both around the pipeline's engine in the
validation core, :class:`~repro.runtime.streaming.StreamingValidator`:
:meth:`validate` is its one-shot case plus counting, and the scheduler,
the in-process stream and the gateway's stream handler run on it too.
The sharded paths, whose workers run the core in their own processes,
observe on the coordinator through :func:`~repro.runtime.streaming.observe`.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from repro.core.pipeline import DQuaG
from repro.core.repair import RepairSummary
from repro.core.validator import ValidationReport
from repro.data.table import Table
from repro.exceptions import ReproError
from repro.runtime.streaming import StreamingValidator, observe
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.monitor.monitor import DriftMonitor, MonitorSnapshot
    from repro.runtime.sharding import ParallelValidator
    from repro.runtime.streaming import Chunk, StreamSummary

__all__ = ["PipelineEntry", "ServiceStats", "ValidationService"]

logger = get_logger("runtime.service")


@dataclass
class PipelineEntry:
    """A resident pipeline plus its bookkeeping."""

    name: str
    pipeline: DQuaG
    source: Path | None = None
    hits: int = 0
    #: directly-added pipelines have no archive to reload from, so the
    #: LRU never evicts them and they do not count against capacity
    pinned: bool = field(default=False)


@dataclass
class ServiceStats:
    """Wire-encodable snapshot of a service's aggregate + per-pipeline state."""

    registered: int
    resident: int
    loads: int
    evictions: int
    hits: int
    validations: int
    repairs: int
    rows_validated: int
    #: shard pools reclaimed by the idle-timeout reaper (see
    #: ``shard_idle_timeout``); additive in codec revision 5
    pool_reaps: int = 0
    #: per-pipeline detail: resident/pinned/hits/source plus lifetime
    #: loads/validations/repairs/rows_validated counters
    pipelines: dict[str, dict] = field(default_factory=dict)

    # -- wire protocol (repro.api) ----------------------------------------
    def to_dict(self) -> dict:
        from repro.api.protocol import service_stats_to_dict

        return service_stats_to_dict(self)

    @staticmethod
    def from_dict(payload: dict) -> "ServiceStats":
        from repro.api.protocol import service_stats_from_dict

        return service_stats_from_dict(payload)


def _fresh_counters() -> dict[str, int]:
    return {"loads": 0, "validations": 0, "repairs": 0, "rows_validated": 0}


class ValidationService:
    """Registry + LRU cache + concurrent dispatcher for fitted pipelines.

    >>> service = ValidationService(capacity=2)            # doctest: +SKIP
    >>> service.register("hotel", "models/hotel.npz")      # doctest: +SKIP
    >>> report = service.validate("hotel", batch)          # doctest: +SKIP
    >>> reports = service.validate_many([("hotel", b1), ("taxi", b2)])  # doctest: +SKIP
    """

    def __init__(
        self,
        capacity: int = 4,
        max_workers: int | None = None,
        shard_workers: int | None = None,
        monitor_window: int = 32,
        use_shm: bool | None = None,
        shard_idle_timeout: float | None = 300.0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._sources: dict[str, Path] = {}
        self._entries: "OrderedDict[str, PipelineEntry]" = OrderedDict()
        self._lock = threading.RLock()
        self._load_locks: dict[str, threading.Lock] = {}
        #: the latest load a re-registration invalidated, per name, with
        #: the generation it was loaded at: get() callers that asked
        #: before it began are served it instead of repeating it
        self._invalidated_loads: dict[str, tuple[int, DQuaG]] = {}
        #: lifetime per-pipeline counters; survive eviction
        self._counters: dict[str, dict[str, int]] = {}
        self._pool = ThreadPoolExecutor(max_workers=max_workers, thread_name_prefix="dquag-validate")
        self.n_loads = 0
        self.n_evictions = 0
        #: total shard-worker budget across all pipelines: concurrent
        #: sharded requests draw from it and fall back to the in-process
        #: path when it is exhausted (see validate_sharded). 0 disables
        #: sharded execution entirely (every request runs in-process).
        self.shard_workers = (
            (os.cpu_count() or 1) if shard_workers is None else max(0, int(shard_workers))
        )
        self._shard_available = self.shard_workers
        #: one pool per pipeline name, built at shard_workers width; the
        #: per-request grant caps how many shards run on it concurrently
        self._parallel: dict[str, "ParallelValidator"] = {}
        #: shared-memory data plane toggle handed to every shard pool
        #: (None = auto-detect, False = pickled only, True = prefer shm)
        self.use_shm = use_shm
        #: idle seconds after which a quiet pipeline's shard pool is
        #: reaped (its worker processes released); None/0 disables the
        #: reaper. A reaped pool rebuilds transparently on next use.
        self.shard_idle_timeout = (
            None if not shard_idle_timeout else float(shard_idle_timeout)
        )
        self.n_pool_reaps = 0
        self._parallel_last_used: dict[str, float] = {}
        self._parallel_busy: dict[str, int] = {}
        self._reaper: threading.Thread | None = None
        self._reaper_stop = threading.Event()
        #: bumped on every register()/add(); lets a shard-pool build that
        #: raced a re-registration detect that it is stale
        self._generations: dict[str, int] = {}
        #: rolling-window size of per-pipeline drift monitors (chunks);
        #: 0 disables monitoring entirely
        self.monitor_window = max(0, int(monitor_window))
        #: per-pipeline drift monitors, tagged with the generation whose
        #: baseline they were built from — a re-register()/re-add() bumps
        #: the generation, so a monitor watching the old weights' baseline
        #: can never be resurrected (it survives plain LRU eviction,
        #: which does not change the weights)
        self._monitors: dict[str, tuple[int, "DriftMonitor"]] = {}
        #: per-pipeline declarative rule sets (see set_rules). Rule sets
        #: are *configuration*, not derived from the weights, so they
        #: persist across re-register()/re-add(); only their compiled
        #: plans are generation-tagged (the encoder state they were
        #: compiled against changes with the weights).
        self._rules: dict[str, "object"] = {}
        self._rule_plans: dict[str, tuple[int, "object"]] = {}
        #: optional micro-batching scheduler (see attach_scheduler):
        #: when set, submit()/submit_many() coalesce through it instead
        #: of dispatching one engine call per request on the thread pool
        self._scheduler = None
        self._closed = False

    # -- registration ------------------------------------------------------
    def register(self, name: str, archive: str | Path) -> None:
        """Register a weight archive under ``name`` (loaded on demand)."""
        archive = Path(archive)
        if not archive.exists():
            raise ReproError(f"no such pipeline archive: {archive}")
        with self._lock:
            self._sources[name] = archive
            # A stale resident copy must not outlive its re-registration,
            # and neither must shard pools serving the old archive, nor
            # drift monitors watching the old weights' baseline.
            self._entries.pop(name, None)
            self._generations[name] = self._generations.get(name, 0) + 1
            self._monitors.pop(name, None)
        self._close_parallel_for(name)

    def add(self, name: str, pipeline: DQuaG) -> None:
        """Insert an already-fitted pipeline (pinned: never evicted)."""
        pipeline._require_validator()
        with self._lock:
            self._entries[name] = PipelineEntry(name=name, pipeline=pipeline, pinned=True)
            self._entries.move_to_end(name)
            self._generations[name] = self._generations.get(name, 0) + 1
            self._monitors.pop(name, None)
        # Shard pools built from a previously-added pipeline of the same
        # name would keep serving the old weights.
        self._close_parallel_for(name)

    @property
    def registered(self) -> list[str]:
        with self._lock:
            return sorted(set(self._sources) | set(self._entries))

    @property
    def resident(self) -> list[str]:
        """Names currently loaded, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    # -- cache -------------------------------------------------------------
    def get(self, name: str) -> DQuaG:
        """Fetch a pipeline, loading and caching it if needed.

        Archive loading (disk read + kernel compile) happens *outside*
        the registry lock, behind a per-name loading lock — a cache miss
        on one pipeline must not stall requests to resident ones.

        A load that a re-registration invalidates while it runs is never
        cached — that would resurrect the old weights — but it still
        serves this call, uncached: it began after the call did, so it
        read a registration that was current during the call. Callers
        queued behind it that asked before it began share it the same
        way. Nothing is retried, so a call finishes after at most one
        load however fast the name is re-registered.
        """
        with self._lock:
            entry = self._entries.get(name)
            if entry is not None:
                entry.hits += 1
                self._entries.move_to_end(name)
                return entry.pipeline
            if name not in self._sources:
                raise ReproError(
                    f"unknown pipeline {name!r}; registered: {self.registered}"
                )
            asked = self._generations.get(name, 0)
            load_lock = self._load_locks.setdefault(name, threading.Lock())

        with load_lock:
            with self._lock:
                # Another thread may have finished the same load meanwhile.
                entry = self._entries.get(name)
                if entry is not None:
                    entry.hits += 1
                    self._entries.move_to_end(name)
                    return entry.pipeline
                shared = self._invalidated_loads.get(name)
                if shared is not None and shared[0] >= asked:
                    return shared[1]
                source = self._sources[name]
                generation = self._generations.get(name, 0)
            pipeline = DQuaG().load_weights(source)
            with self._lock:
                # A re-registration while we were loading (generations
                # catch even a same-path re-register of an archive
                # overwritten in place) makes this load stale: caching
                # it would resurrect the old weights.
                if self._generations.get(name, 0) != generation:
                    self._invalidated_loads[name] = (generation, pipeline)
                    return pipeline
                self.n_loads += 1
                self._counter(name)["loads"] += 1
                self._entries[name] = PipelineEntry(
                    name=name, pipeline=pipeline, source=source, hits=1
                )
                self._entries.move_to_end(name)
                self._invalidated_loads.pop(name, None)
                victims = self._evict_over_capacity()
        # Shard pools of LRU-evicted pipelines hold a full pipeline copy
        # per worker process; keeping them alive would defeat the
        # capacity bound. Closed outside the registry lock (slow).
        for victim in victims:
            self._close_parallel_for(victim)
        return pipeline

    def _evict_over_capacity(self) -> list[str]:
        # Pinned entries are exempt from the capacity budget entirely:
        # a directly-add()ed pipeline must never crowd archive-backed
        # ones out of their LRU slots (nor be evicted itself).
        victims: list[str] = []
        evictable = [n for n, e in self._entries.items() if not e.pinned]
        while len(evictable) > self.capacity:
            victim = evictable.pop(0)
            del self._entries[victim]
            self.n_evictions += 1
            victims.append(victim)
            logger.info("evicted pipeline %r (capacity %d)", victim, self.capacity)
        return victims

    def evict(self, name: str) -> bool:
        """Drop a resident pipeline (no-op for pinned or absent entries)."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None or entry.pinned:
                return False
            del self._entries[name]
        self._close_parallel_for(name)
        return True

    # -- dispatch ----------------------------------------------------------
    def validate(self, name: str, table: Table) -> ValidationReport:
        """Validate one batch on the named pipeline (synchronous).

        The one-chunk case of :meth:`validator_for`: the batch is
        preprocessed exactly once, and the same matrix feeds the engine,
        the rule plan (when :meth:`set_rules` attached one), and the
        drift monitor.
        """
        report = self.validator_for(name).validate(table)
        self.count_validation(name, table.n_rows)
        return report

    # -- sharded dispatch --------------------------------------------------
    def validate_sharded(
        self, name: str, table: Table, workers: int | None = None
    ) -> ValidationReport:
        """Validate one batch across a per-pipeline shard worker pool.

        ``workers`` is a request, not a guarantee: the grant is capped by
        the service-wide ``shard_workers`` budget, and what other sharded
        requests currently hold. With fewer than 2 grantable workers, or
        when a re-registration invalidates the pool build, the batch runs
        on the ordinary in-process path — the result is bit-identical
        either way, only the wall-clock changes.
        """
        from repro.exceptions import TransientServiceError

        requested = self.shard_workers if workers is None else int(workers)
        granted = self._acquire_shard_workers(requested)
        # Empty batches take the in-process path too: the one-shot report
        # for zero rows is well-defined, while a zero-shard plan is not.
        if granted < 2 or table.n_rows == 0:
            if granted:
                self._release_shard_workers(granted)
            return self.validate(name, table)
        # Resolved before dispatch so a rule set incompatible with the
        # current weights fails the request instead of a worker.
        rule_plan = self.rule_plan_for(name)
        ruleset = None if rule_plan is None else rule_plan.ruleset

        def sharded() -> ValidationReport | None:
            parallel = self._parallel_for(name)
            if parallel is None:
                return None
            return parallel.validate_table(
                table, shards=granted, keep_cell_errors=True, rules=ruleset
            )

        self._parallel_note_busy(name)
        try:
            try:
                report = sharded()
            except TransientServiceError:
                # A concurrent re-register()/add()/eviction closed the
                # pool under us. _close_parallel_for popped it from the
                # cache, so one retry builds a fresh pool against the
                # current registration. Deterministic failures (schema
                # errors, broken workers) are not retried.
                report = sharded()
        finally:
            self._parallel_note_idle(name)
            self._release_shard_workers(granted)
        if report is None:  # a re-registration invalidated the pool build
            return self.validate(name, table)
        self.count_validation(name, table.n_rows)
        # The workers preprocess their own shards, so the coordinator's
        # observation costs one transform of the table.
        observe(self.monitor_for(name), rows=table, n_flagged=report.n_flagged)
        return report

    def validate_stream_sharded(
        self, name: str, chunks: "Iterable[Chunk]", workers: int | None = None
    ) -> "StreamSummary":
        """Validate a chunk stream across a per-pipeline shard worker pool.

        Falls back to the bounded-memory in-process streaming path when
        the worker budget grants fewer than 2 workers or a
        re-registration invalidates the pool build.

        Drift monitoring: on the in-process fallback the monitor rides
        the core, :meth:`validator_for` (observing each preprocessed
        chunk with its flags); on the sharded path the coordinator
        observes each chunk's distribution as it hands it to the workers
        (Table chunks cost one extra preprocessing pass there) and feeds
        the flag-rate chart once from the merged summary.
        """
        from repro.exceptions import TransientServiceError

        monitor = self.monitor_for(name)
        rule_plan = self.rule_plan_for(name)
        requested = self.shard_workers if workers is None else int(workers)
        granted = self._acquire_shard_workers(requested)
        parallel = None
        if granted:
            # The pool is resolved before the stream is touched, so a
            # build that a re-registration invalidates leaves every chunk
            # to the in-process path.
            self._parallel_note_busy(name)
            try:
                parallel = self._parallel_for(name)
            finally:
                if parallel is None:
                    self._parallel_note_idle(name)
                    self._release_shard_workers(granted)
        if parallel is None:
            summary = self.validator_for(name).validate_stream(chunks)
        else:
            if monitor is not None:
                # Distribution only: flags are not known until the
                # workers report back.
                def observed(chunks):
                    for chunk in chunks:
                        observe(monitor, rows=chunk)
                        yield chunk

                chunks = observed(chunks)
            try:
                summary = parallel.validate_stream(
                    chunks,
                    keep_cell_errors=False,
                    max_parallel=granted,
                    rules=None if rule_plan is None else rule_plan.ruleset,
                )
            except TransientServiceError as exc:
                # Unlike the table path, the chunk iterator is partially
                # consumed by now, so a closed-pool race cannot be
                # retried transparently — fail with guidance instead.
                raise TransientServiceError(
                    f"sharded stream on {name!r} was interrupted (pipeline "
                    "re-registered or pool closed mid-stream); retry the request"
                ) from exc
            finally:
                self._parallel_note_idle(name)
                self._release_shard_workers(granted)
            observe(monitor, n_flagged=summary.n_flagged, n_rows=summary.n_rows)
        self.count_validation(name, summary.n_rows)
        return summary

    def _acquire_shard_workers(self, requested: int) -> int:
        with self._lock:
            granted = min(max(0, requested), self._shard_available)
            if granted < 2:
                return 0
            self._shard_available -= granted
            return granted

    def _release_shard_workers(self, granted: int) -> None:
        with self._lock:
            self._shard_available += granted

    def _parallel_for(self, name: str) -> "ParallelValidator | None":
        """The cached sharded executor for ``name``.

        One pool per pipeline, built at ``shard_workers`` width (the
        per-request grant then caps how many shards run concurrently).
        Archive-backed pipelines shard straight from their registered
        archive; pinned (directly-added) ones are persisted to a temp
        archive on first use.

        A build that a re-``register()``/re-``add()`` invalidates (the
        per-name generation moved while it ran) is closed, never cached,
        and ``None`` is returned: the caller then serves the request
        in process. A retry could instead spin for as long as the name
        keeps being re-registered.
        """
        from repro.runtime.sharding import ParallelValidator

        with self._lock:
            parallel = self._parallel.get(name)
            if parallel is not None:
                return parallel
            source = self._sources.get(name)
            generation = self._generations.get(name, 0)
        pipeline = self.get(name)
        built = ParallelValidator.from_pipeline(
            pipeline, archive=source, workers=self.shard_workers, use_shm=self.use_shm
        )
        with self._lock:
            closed = self._closed
            stale = self._generations.get(name, 0) != generation
            if not (closed or stale):
                existing = self._parallel.setdefault(name, built)
                self._parallel_last_used.setdefault(name, time.monotonic())
        if closed:
            # A racing service.close() already drained _parallel;
            # inserting now would leak this pool's worker processes.
            built.close()
            raise ReproError("ValidationService is closed")
        if stale:
            built.close()
            return None
        if existing is not built:
            built.close()
        self._ensure_reaper()
        return existing

    def _close_parallel_for(self, name: str) -> None:
        with self._lock:
            parallel = self._parallel.pop(name, None)
            self._parallel_last_used.pop(name, None)
        if parallel is not None:
            parallel.close()

    # -- idle-pool reaping -------------------------------------------------
    def _parallel_note_busy(self, name: str) -> None:
        # Taken *before* the pool lookup, so the reaper (which checks
        # busy counts under the same lock) can never close a pool
        # between a request resolving it and submitting to it.
        with self._lock:
            self._parallel_busy[name] = self._parallel_busy.get(name, 0) + 1

    def _parallel_note_idle(self, name: str) -> None:
        with self._lock:
            count = self._parallel_busy.get(name, 0) - 1
            if count > 0:
                self._parallel_busy[name] = count
            else:
                self._parallel_busy.pop(name, None)
            self._parallel_last_used[name] = time.monotonic()

    def reap_idle_pools(self) -> int:
        """Close shard pools idle longer than ``shard_idle_timeout``.

        Quiet pipelines would otherwise pin their worker processes
        forever; a reaped pool rebuilds transparently on the next sharded
        request. Returns how many pools were reclaimed (also summed into
        ``pool_reaps`` in :meth:`stats_snapshot`). Runs periodically on a
        background thread, and may be called directly.
        """
        timeout = self.shard_idle_timeout
        if not timeout:
            return 0
        with self._lock:
            now = time.monotonic()
            victims = [
                name
                for name in self._parallel
                if not self._parallel_busy.get(name)
                and now - self._parallel_last_used.get(name, now) >= timeout
            ]
            pools = [self._parallel.pop(name) for name in victims]
            for name in victims:
                self._parallel_last_used.pop(name, None)
            self.n_pool_reaps += len(victims)
        for pool in pools:
            pool.close()
        if victims:
            logger.info("reaped %d idle shard pool(s): %s", len(victims), ", ".join(victims))
        return len(victims)

    def _ensure_reaper(self) -> None:
        if not self.shard_idle_timeout:
            return
        with self._lock:
            if self._reaper is not None or self._closed:
                return
            self._reaper = threading.Thread(
                target=self._reaper_loop, name="dquag-pool-reaper", daemon=True
            )
            self._reaper.start()

    def _reaper_loop(self) -> None:
        interval = max(0.05, min(self.shard_idle_timeout / 4, 30.0))
        while not self._reaper_stop.wait(interval):
            try:
                self.reap_idle_pools()
            except Exception:  # pragma: no cover - keep the reaper alive
                logger.warning("idle-pool reap failed", exc_info=True)

    def count_validation(self, name: str, n_rows: int, validations: int = 1) -> None:
        """Record validation work done outside :meth:`validate`.

        Transports that drive a pipeline directly (e.g. the gateway's
        streaming endpoint) call this so per-pipeline stats still see
        their traffic.
        """
        with self._lock:
            counters = self._counter(name)
            counters["validations"] += validations
            counters["rows_validated"] += n_rows

    # -- declarative rules -------------------------------------------------
    def set_rules(self, name: str, rules) -> None:
        """Attach a declarative rule set to pipeline ``name``.

        ``rules`` is anything :func:`repro.rules.resolve_ruleset`
        accepts (a :class:`~repro.rules.RuleSet`, a wire payload dict, a
        JSON file path). The set is compiled eagerly against the
        pipeline's fitted preprocessor, so incompatible rules (unknown
        column, unfitted category, …) raise
        :class:`~repro.exceptions.RuleConfigError` *here* — at
        registration time — never on a later validate. Every subsequent
        validate/stream/sharded request on ``name`` then fuses rule
        verdicts into its report until :meth:`clear_rules`.

        Rule sets survive pipeline re-registration (they are
        configuration, not weights); the compiled plan is rebuilt
        against the new encoder state on the next request.
        """
        from repro.rules import resolve_ruleset

        ruleset = resolve_ruleset(rules)
        if ruleset is None:
            raise ReproError("set_rules requires a rule set; use clear_rules to remove one")
        pipeline = self.get(name)
        with self._lock:
            generation = self._generations.get(name, 0)
        plan = ruleset.compile(pipeline._require_validator().preprocessor)
        with self._lock:
            self._rules[name] = ruleset
            if self._generations.get(name, 0) == generation:
                self._rule_plans[name] = (generation, plan)
            else:
                self._rule_plans.pop(name, None)

    def get_rules(self, name: str):
        """The rule set attached to ``name`` (``None`` when rules are off)."""
        with self._lock:
            return self._rules.get(name)

    def clear_rules(self, name: str) -> bool:
        """Detach the rule set of ``name``; True when one was attached."""
        with self._lock:
            self._rule_plans.pop(name, None)
            return self._rules.pop(name, None) is not None

    def rule_plan_for(self, name: str):
        """The compiled rule plan for ``name`` (``None`` when rules are off).

        Cached against the pipeline generation, mirroring
        :meth:`monitor_for`: a re-``register()``/re-``add()`` discards
        the plan compiled against the old encoder state and recompiles
        the (persisted) rule set against the current one. Recompilation
        against new weights can fail — e.g. a category the new encoder
        was not fitted with — and that :class:`RuleConfigError`
        deliberately surfaces on the request rather than silently
        validating without rules. Like :meth:`get`, a compile that a
        re-registration or ``set_rules()``/``clear_rules()`` races serves
        this call uncached, and the next call compiles against the
        current state.
        """
        with self._lock:
            ruleset = self._rules.get(name)
            if ruleset is None:
                return None
            generation = self._generations.get(name, 0)
            cached = self._rule_plans.get(name)
            if cached is not None and cached[0] == generation:
                return cached[1]
        # Load + compile happen outside the registry lock.
        pipeline = self.get(name)
        plan = ruleset.compile(pipeline._require_validator().preprocessor)
        with self._lock:
            if (
                self._generations.get(name, 0) != generation
                or self._rules.get(name) is not ruleset
            ):
                return plan
            cached = self._rule_plans.get(name)
            if cached is not None and cached[0] == generation:
                return cached[1]
            self._rule_plans[name] = (generation, plan)
            return plan

    # -- the validation core ----------------------------------------------
    def validator_for(self, name: str) -> StreamingValidator:
        """The validation core for ``name``: its engine with the attached
        rule plan (:meth:`rule_plan_for`) and drift monitor
        (:meth:`monitor_for`). Callers count their own traffic."""
        return StreamingValidator(
            self.get(name)._require_validator(),
            monitor=self.monitor_for(name),
            rules=self.rule_plan_for(name),
        )

    # -- drift monitoring --------------------------------------------------
    def monitor_for(self, name: str) -> "DriftMonitor | None":
        """The drift monitor watching pipeline ``name``.

        Built lazily from the pipeline's training-time baseline and
        cached against the pipeline's generation: a re-``register()``/
        re-``add()`` (new weights, new baseline) discards the old
        monitor, while plain LRU eviction keeps it (the weights did not
        change, so neither did the baseline). Returns ``None`` when
        monitoring is disabled (``monitor_window=0``) or the pipeline's
        archive predates monitoring baselines.

        Like :meth:`get`, a build that a re-registration races serves
        this call uncached: what the call observes is then dropped, as
        it would be by a monitor of a superseded generation.
        """
        if self.monitor_window < 1:
            return None
        with self._lock:
            generation = self._generations.get(name, 0)
            cached = self._monitors.get(name)
            if cached is not None and cached[0] == generation:
                return cached[1]
        # Load + baseline build happen outside the registry lock.
        pipeline = self.get(name)
        try:
            monitor = pipeline.monitor(window_chunks=self.monitor_window)
        except ReproError:
            return None
        with self._lock:
            if self._generations.get(name, 0) != generation:
                # The pipeline was re-registered while we were building:
                # our monitor may watch the *old* weights' baseline, so
                # caching it would resurrect it — mirroring the
                # stale-load guard in get().
                return monitor
            cached = self._monitors.get(name)
            if cached is not None and cached[0] == generation:
                # Another thread won the build race; keep its monitor
                # (and the observations it already folded in).
                return cached[1]
            self._monitors[name] = (generation, monitor)
            return monitor

    def monitor_snapshot(self, name: str) -> "MonitorSnapshot | None":
        """Wire-serializable state of the named pipeline's monitor."""
        monitor = self.monitor_for(name)
        return None if monitor is None else monitor.snapshot()

    def monitor_snapshots(self) -> "dict[str, MonitorSnapshot]":
        """Snapshots of every *live* monitor (does not force-load
        pipelines that have never been monitored)."""
        with self._lock:
            live = {name: entry[1] for name, entry in self._monitors.items()}
        return {name: monitor.snapshot() for name, monitor in sorted(live.items())}

    def repair(
        self,
        name: str,
        table: Table,
        report: ValidationReport | None = None,
        iterations: int = 1,
    ) -> tuple[Table, RepairSummary]:
        """Repair flagged cells of one batch on the named pipeline."""
        repaired, summary = self.get(name).repair(table, report=report, iterations=iterations)
        with self._lock:
            self._counter(name)["repairs"] += 1
        return repaired, summary

    def attach_scheduler(self, scheduler) -> None:
        """Route :meth:`submit`/:meth:`submit_many` through a scheduler.

        ``scheduler`` is a :class:`~repro.serve.scheduler.RequestScheduler`
        (duck-typed: anything with ``submit(name, table) -> Future``).
        Attached, same-pipeline requests coalesce into fused engine slabs
        under the scheduler's latency budget; per-request results are
        bit-identical either way. ``None`` detaches and restores the
        one-engine-call-per-request thread-pool dispatch. The scheduler's
        lifecycle stays with its creator (the gateway or the caller) —
        :meth:`close` does not close it.
        """
        self._scheduler = scheduler

    def submit(self, name: str, table: Table) -> "Future[ValidationReport]":
        """Queue one batch for validation (scheduler or thread pool).

        With a scheduler attached (:meth:`attach_scheduler`) the request
        joins its pipeline's micro-batch queue; otherwise it dispatches
        as its own engine call on the thread pool.
        """
        if self._scheduler is not None:
            return self._scheduler.submit(name, table)
        return self._pool.submit(self.validate, name, table)

    def submit_many(
        self, requests: Iterable[tuple[str, Table]]
    ) -> "list[Future[ValidationReport]]":
        """Queue many (pipeline, batch) pairs; returns one future each.

        With a scheduler attached, same-pipeline requests in (and across)
        one call coalesce into fused slabs — the futures still resolve to
        per-request reports, bit-identical to unscheduled dispatch.
        """
        return [self.submit(name, table) for name, table in requests]

    def validate_many(self, requests: Iterable[tuple[str, Table]]) -> list[ValidationReport]:
        """Validate many (pipeline, batch) pairs concurrently.

        Results are returned in request order; the NumPy kernels release
        the GIL in their matmuls, so distinct batches overlap on
        multicore hosts.
        """
        return [future.result() for future in self.submit_many(requests)]

    # -- lifecycle ---------------------------------------------------------
    def _counter(self, name: str) -> dict[str, int]:
        return self._counters.setdefault(name, _fresh_counters())

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "registered": len(set(self._sources) | set(self._entries)),
                "resident": len(self._entries),
                "loads": self.n_loads,
                "evictions": self.n_evictions,
                "hits": sum(e.hits for e in self._entries.values()),
                "validations": sum(c["validations"] for c in self._counters.values()),
                "repairs": sum(c["repairs"] for c in self._counters.values()),
                "rows_validated": sum(c["rows_validated"] for c in self._counters.values()),
                "pool_reaps": self.n_pool_reaps,
            }

    def pipeline_stats(self) -> dict[str, dict]:
        """Per-pipeline detail: residency plus lifetime counters."""
        with self._lock:
            names = set(self._sources) | set(self._entries) | set(self._counters)
            detail: dict[str, dict] = {}
            for name in sorted(names):
                entry = self._entries.get(name)
                source = entry.source if entry is not None else self._sources.get(name)
                detail[name] = {
                    "resident": entry is not None,
                    "pinned": bool(entry is not None and entry.pinned),
                    "hits": entry.hits if entry is not None else 0,
                    "source": None if source is None else str(source),
                    **self._counters.get(name, _fresh_counters()),
                }
            return detail

    def stats_snapshot(self) -> ServiceStats:
        """Aggregate + per-pipeline stats as one wire-encodable object."""
        with self._lock:
            return ServiceStats(pipelines=self.pipeline_stats(), **self.stats())

    def close_parallel(self) -> None:
        """Close every cached shard pool without closing the service.

        Used by gateway shutdown: once the socket stops taking requests
        there is no traffic to shard, so the per-pipeline worker
        processes are released. The service stays usable — a later
        sharded request simply rebuilds its pool on demand.
        """
        with self._lock:
            validators = list(self._parallel.values())
            self._parallel.clear()
        for parallel in validators:
            parallel.close()

    def close(self) -> None:
        self._pool.shutdown(wait=True)
        self._reaper_stop.set()
        with self._lock:
            self._closed = True
            reaper, self._reaper = self._reaper, None
            validators = list(self._parallel.values())
            self._parallel.clear()
            self._parallel_last_used.clear()
            self._monitors.clear()
        if reaper is not None:
            reaper.join(timeout=5.0)
        for parallel in validators:
            parallel.close()

    def __enter__(self) -> "ValidationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
