"""Continuous drift monitoring over the streaming validation path.

A :class:`DriftMonitor` watches the data a fitted pipeline validates:

* every observed chunk is binned against the training-time
  :class:`~repro.monitor.baseline.MonitorBaseline` and folded into a
  rolling window of the last ``window_chunks`` observations;
* per-column drift is scored as PSI and Jensen–Shannon divergence of
  the window histogram vs the baseline histogram;
* the flag rate runs through an EWMA control chart centered on the
  calibrated clean rate;
* threshold crossings are edge-triggered into wire-serializable
  :class:`DriftAlert` objects, and :meth:`snapshot` renders the whole
  state as one :class:`MonitorSnapshot` under the ``repro.api``
  protocol.

The monitor is thread-safe (the serving layer updates it from
concurrent request threads) and cheap: binning one streamed chunk is a
``searchsorted`` per column, a few percent of the GNN forward that
chunk already paid for. Observation timestamps are caller-supplied
(falling back to the injectable ``clock``), so tests are deterministic.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import ReproError
from repro.monitor.baseline import MonitorBaseline
from repro.monitor.drift import EwmaChart, jensen_shannon_divergence, population_stability_index

__all__ = ["ColumnDrift", "DriftAlert", "MonitorSnapshot", "DriftMonitor"]


@dataclass
class ColumnDrift:
    """Drift scores of one column over the current window."""

    name: str
    kind: str
    psi: float
    js: float
    drifted: bool


@dataclass
class DriftAlert:
    """One edge-triggered drift event.

    ``metric`` is ``"psi"``/``"js"`` for a column distribution shift or
    ``"flag_rate"`` for an EWMA control-chart alarm (``column`` is then
    ``None``).
    """

    metric: str
    column: str | None
    value: float
    threshold: float
    message: str
    timestamp: float | None = None

    # -- wire protocol (repro.api) ----------------------------------------
    def to_dict(self) -> dict:
        from repro.api.protocol import drift_alert_to_dict

        return drift_alert_to_dict(self)

    @staticmethod
    def from_dict(payload: dict) -> "DriftAlert":
        from repro.api.protocol import drift_alert_from_dict

        return drift_alert_from_dict(payload)


@dataclass
class MonitorSnapshot:
    """Wire-serializable state of a :class:`DriftMonitor`."""

    window_capacity: int
    window_chunks: int
    window_rows: int
    total_observations: int
    total_rows: int
    total_alerts: int
    first_timestamp: float | None
    last_timestamp: float | None
    flag_rate_ewma: float
    flag_rate_center: float
    flag_rate_limit: float
    flag_rate_alarm: bool
    psi_threshold: float
    js_threshold: float
    columns: list[ColumnDrift] = field(default_factory=list)
    alerts: list[DriftAlert] = field(default_factory=list)

    @property
    def drifted_columns(self) -> list[str]:
        return [column.name for column in self.columns if column.drifted]

    @property
    def has_drift(self) -> bool:
        return bool(self.drifted_columns) or self.flag_rate_alarm

    def summary(self) -> str:
        state = "DRIFT" if self.has_drift else "stable"
        drifted = ", ".join(self.drifted_columns) or "none"
        return (
            f"{state}: {self.window_rows} rows in window "
            f"({self.window_chunks}/{self.window_capacity} chunks), "
            f"drifted columns: {drifted}, "
            f"flag-rate EWMA {self.flag_rate_ewma:.4f} "
            f"(center {self.flag_rate_center:.4f}, limit {self.flag_rate_limit:.4f})"
        )

    # -- wire protocol (repro.api) ----------------------------------------
    def to_dict(self) -> dict:
        from repro.api.protocol import monitor_snapshot_to_dict

        return monitor_snapshot_to_dict(self)

    @staticmethod
    def from_dict(payload: dict) -> "MonitorSnapshot":
        from repro.api.protocol import monitor_snapshot_from_dict

        return monitor_snapshot_from_dict(payload)


class DriftMonitor:
    """Rolling-window drift detection against a training-time baseline.

    >>> monitor = pipeline.monitor(window_chunks=32)        # doctest: +SKIP
    >>> monitor.observe_table(batch, n_flagged=report.n_flagged)  # doctest: +SKIP
    >>> monitor.snapshot().has_drift                        # doctest: +SKIP
    """

    def __init__(
        self,
        baseline: MonitorBaseline,
        preprocessor=None,
        window_chunks: int = 32,
        psi_threshold: float = 0.25,
        js_threshold: float = 0.10,
        ewma_alpha: float = 0.2,
        ewma_sigma: float = 3.0,
        min_window_rows: int = 200,
        max_alerts: int = 64,
        clock=None,
    ) -> None:
        if window_chunks < 1:
            raise ValueError(f"window_chunks must be positive, got {window_chunks}")
        if psi_threshold <= 0 or js_threshold <= 0:
            raise ValueError("psi_threshold and js_threshold must be positive")
        self.baseline = baseline
        self.preprocessor = preprocessor
        self.window_chunks = int(window_chunks)
        self.psi_threshold = float(psi_threshold)
        self.js_threshold = float(js_threshold)
        self.min_window_rows = int(min_window_rows)
        self._clock = clock if clock is not None else time.time
        self._lock = threading.Lock()
        self._window: deque = deque(maxlen=self.window_chunks)
        self._sums = [np.zeros(column.n_segments, dtype=np.int64) for column in baseline.columns]
        self._window_rows = 0
        self._chart = EwmaChart(center=baseline.flag_rate, alpha=ewma_alpha, sigma_limit=ewma_sigma)
        self._drifting: set[str] = set()
        self._alarm = False
        self._alerts: deque = deque(maxlen=max_alerts)
        self._total_observations = 0
        self._total_rows = 0
        self._total_alerts = 0
        self._first_timestamp: float | None = None
        self._last_timestamp: float | None = None

    # -- observation -------------------------------------------------------
    def observe_table(self, table, n_flagged: int | None = None, timestamp: float | None = None) -> None:
        """Observe a raw table (preprocessed through the bound preprocessor)."""
        if self.preprocessor is None:
            raise ReproError(
                "this DriftMonitor has no preprocessor bound; observe preprocessed "
                "matrices via observe_matrix() instead"
            )
        if table.n_rows == 0:
            return
        # Encode through the compiled plan when the bound preprocessor
        # provides one (duck-typed: tests may bind minimal stand-ins).
        compiled = getattr(self.preprocessor, "compile", None)
        matrix = (
            compiled().transform(table) if compiled is not None else self.preprocessor.transform(table)
        )
        self.observe_matrix(matrix, n_flagged=n_flagged, timestamp=timestamp)

    def observe_matrix(
        self,
        matrix: np.ndarray,
        n_flagged: int | None = None,
        timestamp: float | None = None,
    ) -> None:
        """Observe one preprocessed chunk (the streaming hot path).

        ``n_flagged`` additionally feeds the flag-rate control chart;
        omit it when flags are not known at observation time.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        n_rows = int(matrix.shape[0]) if matrix.ndim == 2 else 0
        if n_rows == 0:
            return
        counts = self.baseline.bin_matrix(matrix)
        ts = float(timestamp) if timestamp is not None else float(self._clock())
        with self._lock:
            if len(self._window) == self._window.maxlen:
                old_counts, old_rows, _ = self._window[0]
                for total, old in zip(self._sums, old_counts):
                    total -= old
                self._window_rows -= old_rows
            self._window.append((counts, n_rows, ts))
            for total, new in zip(self._sums, counts):
                total += new
            self._window_rows += n_rows
            self._total_observations += 1
            self._total_rows += n_rows
            if self._first_timestamp is None or ts < self._first_timestamp:
                self._first_timestamp = ts
            if self._last_timestamp is None or ts > self._last_timestamp:
                self._last_timestamp = ts
            if n_flagged is not None:
                self._observe_flags_locked(int(n_flagged), n_rows, ts)
            self._evaluate_drift_locked(ts)

    def observe_partial(self, partial, matrix: np.ndarray | None = None) -> None:
        """Observe a :class:`~repro.runtime.streaming.PartialReport`.

        The partial carries flags and (when its producer stamped one)
        the observation timestamp; ``matrix`` supplies the chunk's
        preprocessed values when available.
        """
        if matrix is not None:
            self.observe_matrix(
                matrix, n_flagged=partial.n_flagged, timestamp=partial.timestamp
            )
        else:
            self.observe_flags(partial.n_flagged, partial.n_rows, timestamp=partial.timestamp)

    def observe_flags(
        self, n_flagged: int, n_rows: int, timestamp: float | None = None
    ) -> None:
        """Feed the flag-rate chart without a distribution observation."""
        if n_rows < 1:
            return
        ts = float(timestamp) if timestamp is not None else float(self._clock())
        with self._lock:
            self._observe_flags_locked(int(n_flagged), int(n_rows), ts)

    # -- internals (call with the lock held) -------------------------------
    def _observe_flags_locked(self, n_flagged: int, n_rows: int, ts: float) -> None:
        alarm = self._chart.observe(n_flagged / n_rows, n_rows)
        if alarm and not self._alarm:
            self._emit_alert_locked(
                metric="flag_rate",
                column=None,
                value=float(self._chart.value),
                threshold=float(self._chart.limit),
                message=(
                    f"flag-rate EWMA {self._chart.value:.4f} exceeded control limit "
                    f"{self._chart.limit:.4f} (center {self._chart.center:.4f})"
                ),
                timestamp=ts,
            )
        self._alarm = alarm

    def _evaluate_drift_locked(self, ts: float) -> None:
        if self._window_rows < self.min_window_rows:
            return
        for column, observed in zip(self.baseline.columns, self._sums):
            psi = population_stability_index(column.counts, observed)
            js = jensen_shannon_divergence(column.counts, observed)
            drifted = psi > self.psi_threshold or js > self.js_threshold
            if drifted and column.name not in self._drifting:
                if psi > self.psi_threshold:
                    metric, value, threshold = "psi", psi, self.psi_threshold
                else:
                    metric, value, threshold = "js", js, self.js_threshold
                self._emit_alert_locked(
                    metric=metric,
                    column=column.name,
                    value=float(value),
                    threshold=float(threshold),
                    message=(
                        f"column {column.name!r} drifted: {metric}={value:.4f} "
                        f"exceeds {threshold:.4f} over {self._window_rows} window rows"
                    ),
                    timestamp=ts,
                )
                self._drifting.add(column.name)
            elif not drifted:
                self._drifting.discard(column.name)

    def _emit_alert_locked(self, **kwargs) -> None:
        self._alerts.append(DriftAlert(**kwargs))
        self._total_alerts += 1

    # -- reading -----------------------------------------------------------
    def snapshot(self) -> MonitorSnapshot:
        """The full monitor state as one wire-serializable object."""
        with self._lock:
            columns = []
            for column, observed in zip(self.baseline.columns, self._sums):
                psi = population_stability_index(column.counts, observed)
                js = jensen_shannon_divergence(column.counts, observed)
                columns.append(
                    ColumnDrift(
                        name=column.name,
                        kind=column.kind,
                        psi=float(psi),
                        js=float(js),
                        drifted=bool(
                            self._window_rows >= self.min_window_rows
                            and (psi > self.psi_threshold or js > self.js_threshold)
                        ),
                    )
                )
            return MonitorSnapshot(
                window_capacity=self.window_chunks,
                window_chunks=len(self._window),
                window_rows=self._window_rows,
                total_observations=self._total_observations,
                total_rows=self._total_rows,
                total_alerts=self._total_alerts,
                first_timestamp=self._first_timestamp,
                last_timestamp=self._last_timestamp,
                flag_rate_ewma=float(self._chart.value),
                flag_rate_center=float(self._chart.center),
                flag_rate_limit=float(self._chart.limit),
                flag_rate_alarm=bool(self._alarm),
                psi_threshold=self.psi_threshold,
                js_threshold=self.js_threshold,
                columns=columns,
                alerts=list(self._alerts),
            )

    def alerts(self) -> list[DriftAlert]:
        """Recent alerts, oldest first (bounded by ``max_alerts``)."""
        with self._lock:
            return list(self._alerts)

    def reset(self) -> None:
        """Clear the window, chart, and alert state (baseline stays)."""
        with self._lock:
            self._window.clear()
            for total in self._sums:
                total[:] = 0
            self._window_rows = 0
            self._chart.reset()
            self._drifting.clear()
            self._alarm = False
            self._alerts.clear()
            self._total_observations = 0
            self._total_rows = 0
            self._total_alerts = 0
            self._first_timestamp = None
            self._last_timestamp = None
