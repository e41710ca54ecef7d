"""Prometheus text exposition of service + monitor state.

Renders :class:`~repro.runtime.service.ServiceStats` and per-pipeline
:class:`~repro.monitor.monitor.MonitorSnapshot` objects in the
Prometheus text format (version 0.0.4) — what the gateway serves at
``GET /v1/metrics`` so a scraper can chart validation traffic and drift
scores without speaking the JSON protocol.
"""

from __future__ import annotations

__all__ = ["PROMETHEUS_CONTENT_TYPE", "render_prometheus"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(**labels: str) -> str:
    inner = ",".join(f'{key}="{_escape(str(value))}"' for key, value in labels.items())
    return "{" + inner + "}" if inner else ""


def _number(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


class _Writer:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self._described: set[str] = set()

    def sample(self, name: str, value, help_text: str, metric_type: str, **labels) -> None:
        if name not in self._described:
            self.lines.append(f"# HELP {name} {help_text}")
            self.lines.append(f"# TYPE {name} {metric_type}")
            self._described.add(name)
        self.lines.append(f"{name}{_labels(**labels)} {_number(value)}")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_prometheus(stats, snapshots: dict, scheduler=None) -> str:
    """Render service stats + monitor snapshots as Prometheus text.

    ``stats`` is a :class:`ServiceStats`; ``snapshots`` maps pipeline
    name → :class:`MonitorSnapshot` for every pipeline that currently
    has a live monitor (pipelines without one simply have no
    ``repro_monitor_*`` series). ``scheduler`` is an optional
    :class:`~repro.serve.scheduler.SchedulerStats` snapshot; gateways
    running a micro-batching scheduler pass it so scrapes additionally
    chart queue depth, batch fill ratio, the coalesced-batch size
    histogram, and admission rejects (``repro_scheduler_*`` series).
    """
    writer = _Writer()
    writer.sample(
        "repro_service_pipelines_registered", stats.registered,
        "Pipelines registered with the validation service.", "gauge",
    )
    writer.sample(
        "repro_service_pipelines_resident", stats.resident,
        "Pipelines currently loaded in the LRU cache.", "gauge",
    )
    writer.sample(
        "repro_service_loads_total", stats.loads,
        "Pipeline archive loads since service start.", "counter",
    )
    writer.sample(
        "repro_service_evictions_total", stats.evictions,
        "LRU evictions since service start.", "counter",
    )
    for name, entry in sorted(stats.pipelines.items()):
        writer.sample(
            "repro_pipeline_validations_total", int(entry.get("validations", 0)),
            "Validation requests served, per pipeline.", "counter", pipeline=name,
        )
        writer.sample(
            "repro_pipeline_rows_validated_total", int(entry.get("rows_validated", 0)),
            "Rows validated, per pipeline.", "counter", pipeline=name,
        )
        writer.sample(
            "repro_pipeline_repairs_total", int(entry.get("repairs", 0)),
            "Repair requests served, per pipeline.", "counter", pipeline=name,
        )
        writer.sample(
            "repro_pipeline_resident", bool(entry.get("resident", False)),
            "Whether the pipeline is currently resident (1) or not (0).",
            "gauge", pipeline=name,
        )
    for name, snapshot in sorted(snapshots.items()):
        writer.sample(
            "repro_monitor_window_rows", snapshot.window_rows,
            "Rows in the drift monitor's rolling window.", "gauge", pipeline=name,
        )
        writer.sample(
            "repro_monitor_observations_total", snapshot.total_observations,
            "Chunks observed by the drift monitor.", "counter", pipeline=name,
        )
        writer.sample(
            "repro_monitor_rows_observed_total", snapshot.total_rows,
            "Rows observed by the drift monitor.", "counter", pipeline=name,
        )
        writer.sample(
            "repro_monitor_alerts_total", snapshot.total_alerts,
            "Drift alerts raised since the monitor was created.", "counter", pipeline=name,
        )
        writer.sample(
            "repro_monitor_flag_rate_ewma", snapshot.flag_rate_ewma,
            "EWMA of the per-chunk flag rate.", "gauge", pipeline=name,
        )
        writer.sample(
            "repro_monitor_flag_rate_limit", snapshot.flag_rate_limit,
            "Upper control limit of the flag-rate EWMA chart.", "gauge", pipeline=name,
        )
        writer.sample(
            "repro_monitor_flag_rate_alarm", snapshot.flag_rate_alarm,
            "Whether the flag-rate EWMA is above its control limit.", "gauge",
            pipeline=name,
        )
        writer.sample(
            "repro_monitor_drift_detected", snapshot.has_drift,
            "Whether any column or the flag rate currently shows drift.", "gauge",
            pipeline=name,
        )
        for column in snapshot.columns:
            writer.sample(
                "repro_monitor_column_psi", column.psi,
                "Population Stability Index of the window vs the training baseline.",
                "gauge", pipeline=name, column=column.name,
            )
            writer.sample(
                "repro_monitor_column_js", column.js,
                "Jensen-Shannon divergence of the window vs the training baseline.",
                "gauge", pipeline=name, column=column.name,
            )
            writer.sample(
                "repro_monitor_column_drifted", column.drifted,
                "Whether the column's drift scores exceed their thresholds.",
                "gauge", pipeline=name, column=column.name,
            )
    if scheduler is not None:
        _render_scheduler(writer, scheduler)
    return writer.render()


def _render_scheduler(writer: _Writer, sched) -> None:
    """Append the micro-batching scheduler's series (SchedulerStats)."""
    writer.sample(
        "repro_scheduler_queue_depth", sched.queue_depth,
        "Requests queued in the micro-batching scheduler, all pipelines.", "gauge",
    )
    for name, depth in sorted(sched.queue_depths.items()):
        writer.sample(
            "repro_scheduler_pipeline_queue_depth", depth,
            "Requests queued in the micro-batching scheduler, per pipeline.",
            "gauge", pipeline=name,
        )
    writer.sample(
        "repro_scheduler_in_flight_batches", sched.in_flight,
        "Coalesced batches currently executing on the slab pool.", "gauge",
    )
    writer.sample(
        "repro_scheduler_requests_submitted_total", sched.submitted,
        "Requests admitted by the scheduler since start.", "counter",
    )
    writer.sample(
        "repro_scheduler_requests_rejected_total", sched.rejected,
        "Requests refused by admission control (HTTP 429) since start.", "counter",
    )
    writer.sample(
        "repro_scheduler_requests_completed_total", sched.completed,
        "Requests resolved successfully since start.", "counter",
    )
    writer.sample(
        "repro_scheduler_requests_failed_total", sched.failed,
        "Requests resolved with an error since start.", "counter",
    )
    writer.sample(
        "repro_scheduler_rows_dispatched_total", sched.rows,
        "Rows dispatched in coalesced slabs since start.", "counter",
    )
    writer.sample(
        "repro_scheduler_batch_fill_ratio", sched.fill_ratio,
        "Mean slab occupancy: rows dispatched / (batches x max_batch_rows).", "gauge",
    )
    # Prometheus-convention histogram: cumulative buckets + _count/_sum.
    hist_help = "Coalesced requests per dispatched batch."
    for bound, count in sorted(sched.batch_size_hist.items()):
        writer.sample(
            "repro_scheduler_batch_size_bucket", count, hist_help, "histogram",
            le=str(bound),
        )
    writer.sample(
        "repro_scheduler_batch_size_bucket", sched.batches, hist_help, "histogram",
        le="+Inf",
    )
    writer.sample(
        "repro_scheduler_batch_size_count", sched.batches, hist_help, "histogram",
    )
    writer.sample(
        "repro_scheduler_batch_size_sum", sched.completed_or_failed, hist_help, "histogram",
    )
