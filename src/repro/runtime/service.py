"""Multi-pipeline serving layer: load, cache, and validate.

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
* calls run on the caller's thread. The service dispatches nothing:
  the engine's row-parallel chunks are the one parallel path inside a
  host, and a gateway queues requests in its own
  :class:`~repro.serve.scheduler.RequestScheduler`.

This is the surface the HTTP gateway (:mod:`repro.serve`) fronts:
``validate``/``repair`` plus per-pipeline :meth:`pipeline_stats` and a
wire-encodable :class:`ServiceStats` snapshot. Every pipeline
additionally gets a lazy per-generation
:class:`~repro.monitor.monitor.DriftMonitor` (see :meth:`monitor_for`)
and an optional declarative rule plan (see :meth:`rule_plan_for`).
:meth:`validator_for` wraps both around the pipeline's engine in the
validation core, :class:`~repro.runtime.streaming.StreamingValidator`:
:meth:`validate` is its one-shot case plus counting, and the scheduler
and the gateway's stream handler run on it too.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.pipeline import DQuaG
from repro.core.repair import RepairSummary
from repro.core.validator import ValidationReport
from repro.data.table import Table
from repro.exceptions import ReproError
from repro.runtime.streaming import StreamingValidator
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.monitor.monitor import DriftMonitor, MonitorSnapshot

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
    """Registry + LRU cache of fitted pipelines, thread-safe for callers.

    >>> service = ValidationService(capacity=2)            # doctest: +SKIP
    >>> service.register("hotel", "models/hotel.npz")      # doctest: +SKIP
    >>> report = service.validate("hotel", batch)          # doctest: +SKIP
    """

    def __init__(self, capacity: int = 4, monitor_window: int = 32) -> None:
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
        self.n_loads = 0
        self.n_evictions = 0
        #: bumped on every register()/add(); lets a cache fill that raced
        #: a re-registration detect that it is stale
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

    # -- registration ------------------------------------------------------
    def register(self, name: str, archive: str | Path) -> None:
        """Register a weight archive under ``name`` (loaded on demand)."""
        archive = Path(archive)
        if not archive.exists():
            raise ReproError(f"no such pipeline archive: {archive}")
        with self._lock:
            self._sources[name] = archive
            # A stale resident copy must not outlive its re-registration,
            # and neither must drift monitors watching the old weights'
            # baseline.
            self._entries.pop(name, None)
            self._generations[name] = self._generations.get(name, 0) + 1
            self._monitors.pop(name, None)

    def add(self, name: str, pipeline: DQuaG) -> None:
        """Insert an already-fitted pipeline (pinned: never evicted)."""
        pipeline._require_validator()
        with self._lock:
            self._entries[name] = PipelineEntry(name=name, pipeline=pipeline, pinned=True)
            self._entries.move_to_end(name)
            self._generations[name] = self._generations.get(name, 0) + 1
            self._monitors.pop(name, None)

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
                self._evict_over_capacity()
        return pipeline

    def _evict_over_capacity(self) -> None:
        # Pinned entries are exempt from the capacity budget entirely:
        # a directly-add()ed pipeline must never crowd archive-backed
        # ones out of their LRU slots (nor be evicted itself).
        evictable = [n for n, e in self._entries.items() if not e.pinned]
        while len(evictable) > self.capacity:
            victim = evictable.pop(0)
            del self._entries[victim]
            self.n_evictions += 1
            logger.info("evicted pipeline %r (capacity %d)", victim, self.capacity)

    def evict(self, name: str) -> bool:
        """Drop a resident pipeline (no-op for pinned or absent entries)."""
        with self._lock:
            entry = self._entries.get(name)
            if entry is None or entry.pinned:
                return False
            del self._entries[name]
        return True

    # -- validation --------------------------------------------------------
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
        validate/stream request on ``name`` then fuses rule verdicts
        into its report until :meth:`clear_rules`.

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

    def close(self) -> None:
        with self._lock:
            self._monitors.clear()

    def __enter__(self) -> "ValidationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
