"""Unit tests of the benchmark's own helpers (no model is fitted).

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest

from perfbench.checks import (
    OutputMismatch,
    check_reports_identical,
    check_response_matches,
    check_summaries_equal,
    check_tables_identical,
)
from perfbench.common import (
    Tracer,
    lateness,
    metric_by_label,
    metric_sum,
    open_loop_schedule,
    parse_prometheus,
    percentile,
    round_medians,
    samples_beyond,
    scrape_diff,
    supported_tail,
)
from perfbench.composed import KernelWork
from perfbench.loadgen import Sent, generator_lateness, run_closed_loop, run_open_loop, summarize_phase
from perfbench.run import WORKLOAD_MODULES

ROOT = Path(__file__).resolve().parent.parent


# -- percentiles -------------------------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0


def test_failures_rank_above_every_latency():
    assert percentile([0.001] * 98 + [math.inf] * 2, 99) == math.inf
    assert percentile([0.001] * 99 + [math.inf], 99) == 0.001


def test_percentile_choice_needs_ten_samples_beyond():
    assert samples_beyond(1000, 99.0) == 10
    assert supported_tail(1000) == 99.0
    assert supported_tail(999) == 90.0
    assert supported_tail(10_000) == 99.9
    assert supported_tail(15) is None


def test_round_medians_groups_by_round_in_order():
    values = [5.0, 1.0, 9.0, 2.0, 3.0, 7.0]
    rounds = [0, 1, 0, 1, 0, 2]
    assert round_medians(values, rounds) == [5.0, 1.5, 7.0]
    assert min(round_medians(values, rounds)) == 1.5
    with pytest.raises(ValueError):
        round_medians([1.0, 2.0], [0])


# -- open-loop schedule and lateness ----------------------------------------
def test_open_loop_schedule_is_fixed_rate():
    due = open_loop_schedule(20.0, 1.0, start=5.0)
    assert len(due) == 20
    assert due[0] == 5.0
    assert np.allclose(np.diff(due), 0.05)
    assert len(open_loop_schedule(150.0, 4.5)) == 675


def test_lateness_is_never_negative():
    assert lateness(1.0, 1.25) == 0.25
    assert lateness(1.0, 0.5) == 0.0


def _sent(i, due, sent, done, status=200, oversleep=0.0):
    return Sent(i, 0, due, sent, done, status, oversleep)


def test_phase_summary_counts_failures_as_misses():
    ok = [_sent(i, i * 0.01, i * 0.01, i * 0.01 + 0.005) for i in range(989)]
    failed = [_sent(989 + i, 10.0, 10.0, 10.001, status=503) for i in range(11)]
    summary = summarize_phase([ok, failed], slo_s=0.05, rows_per_request=50)
    assert summary["failed"] == 11
    assert summary["slo_misses"] == 11
    assert summary["slo_verdict_supported"]
    assert summary["p99_ms"] == math.inf
    assert not summary["meets_slo"]
    assert summarize_phase([ok], slo_s=0.05, rows_per_request=50)["meets_slo"]


def test_phase_summary_reports_p99_only_with_ten_samples_beyond():
    sent = [_sent(i, i * 0.01, i * 0.01, i * 0.01 + 0.001 * (i + 1)) for i in range(100)]
    summary = summarize_phase([sent], slo_s=0.05, rows_per_request=50)
    assert summary["p99_ms"] is None
    assert summary["p99_samples_beyond"] == 1
    assert not summary["slo_verdict_supported"]
    assert summary["tail_percentile"] == 90.0
    assert summary["tail_ms"] == pytest.approx(90.0)


def test_phase_summary_detects_a_growing_backlog():
    # Every request leaves 10 ms later than the one before: the queue grows.
    sent = [_sent(i, i * 0.01, i * 0.02, i * 0.02 + 0.001) for i in range(100)]
    assert summarize_phase([sent], slo_s=0.05, rows_per_request=50)["backlog_grows"]


def test_generator_lateness_ignores_overdue_requests():
    sent = [_sent(0, 0.0, 0.001, 0.002, oversleep=0.001), _sent(1, 0.0, 0.5, 0.6, oversleep=None)]
    assert generator_lateness(sent) == [0.001]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 - stdlib naming
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.hits += 1
            status = 429 if self.server.hits % 2 == 0 else 200
        body = b"{}"
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        if status != 200:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@contextmanager
def _refusing_every_other_request():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.hits, server.lock = 0, threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_open_loop_counts_refusals_without_retrying():
    with _refusing_every_other_request() as server:
        sent = run_open_loop("127.0.0.1", server.server_address[1], "/x", [b"{}"],
                             rate=200.0, duration=0.1, connections=2, keep_every=1)
    assert len(sent) == 20
    assert server.hits == 20  # one attempt per scheduled request
    assert sum(1 for s in sent if s.status == 429) == 10
    assert all(s.response == b"{}" for s in sent if s.ok)
    assert all(s.latency == math.inf for s in sent if not s.ok)


def test_closed_loop_sends_back_to_back_without_retrying():
    with _refusing_every_other_request() as server:
        sent = run_closed_loop("127.0.0.1", server.server_address[1], "/x", [b"{}"],
                               duration=0.2, connections=2, keep_every=1)
    assert len(sent) > 2
    assert server.hits == len(sent)  # one attempt per request
    assert [s.index for s in sent] == list(range(len(sent)))
    assert sum(1 for s in sent if s.status == 429) == server.hits // 2
    assert all(s.due == s.sent and s.oversleep is None for s in sent)
    assert all(s.response == b"{}" for s in sent if s.ok)


# -- Prometheus scrapes ------------------------------------------------------
SCRAPE_BEFORE = """# HELP repro_router_requests_total Requests routed, per replica.
# TYPE repro_router_requests_total counter
repro_router_requests_total{replica="replica-0"} 3
repro_router_requests_total{replica="replica-1"} 5
repro_scheduler_requests_rejected_total 1
"""
SCRAPE_AFTER = """repro_router_requests_total{replica="replica-0"} 7
repro_router_requests_total{replica="replica-1"} 9
repro_scheduler_requests_rejected_total 1
repro_pipeline_validations_total{pipeline="hotel"} 12
"""


def test_scrape_diff_subtracts_counters_per_label_set():
    diff = scrape_diff(parse_prometheus(SCRAPE_BEFORE), parse_prometheus(SCRAPE_AFTER))
    assert metric_by_label(diff, "repro_router_requests_total", "replica") == {
        "replica-0": 4.0, "replica-1": 4.0,
    }
    assert metric_sum(diff, "repro_scheduler_requests_rejected_total") == 0.0
    assert metric_sum(diff, "repro_pipeline_validations_total", pipeline="hotel") == 12.0
    assert metric_sum(diff, "repro_pipeline_validations_total", pipeline="other") == 0.0


# -- spans and computed work ---------------------------------------------------
def test_tracer_self_time_excludes_children():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert tracer.total("outer") == 10.0
    assert tracer.total("inner") == 2.0
    assert tracer.self_total("outer") == 8.0


def test_disabled_tracer_records_nothing():
    tracer = Tracer(enabled=False)
    with tracer.span("x"):
        pass
    assert tracer.spans == []


def test_kernel_work_counts_matmul_operations_and_bytes():
    work = KernelWork(chunk_rows=4)
    work.matmul(12, 64, 32)
    assert work.flops == 2 * 12 * 64 * 32
    assert work.bytes == 8 * (12 * 64 + 12 * 32) + 8 * 64 * 32 / 4


# -- output-check comparators --------------------------------------------------
def _report(rng, rules=None):
    from repro.core.validator import ValidationReport

    cell_errors = rng.random((6, 3))
    row_flags = np.array([True, False, False, True, False, False])
    cell_flags = np.zeros((6, 3), dtype=bool)
    cell_flags[0, 1] = cell_flags[3, 2] = True
    return ValidationReport(
        sample_errors=cell_errors.mean(axis=1),
        cell_errors=cell_errors,
        row_flags=row_flags,
        cell_flags=cell_flags,
        threshold=0.5,
        flagged_fraction=1 / 3,
        is_problematic=True,
        feature_names=["a", "b", "c"],
        rule_report=rules,
    )


def test_identical_reports_pass_and_a_corrupted_reference_fails():
    reference = _report(np.random.default_rng(0))
    check_reports_identical(_report(np.random.default_rng(0)), reference)
    corrupted = _report(np.random.default_rng(0))
    corrupted.sample_errors[2] = np.nextafter(corrupted.sample_errors[2], 1.0)
    with pytest.raises(OutputMismatch, match="sample_errors"):
        check_reports_identical(corrupted, reference)


def test_wire_response_check_rejects_a_corrupted_reference():
    served = _report(np.random.default_rng(1))
    payload = json.loads(json.dumps(served.to_dict(errors="sparse")))
    check_response_matches(payload, _report(np.random.default_rng(1)))
    corrupted = _report(np.random.default_rng(1))
    corrupted.row_flags[4] = True
    with pytest.raises(OutputMismatch, match="row_flags"):
        check_response_matches(payload, corrupted)


def test_table_check_compares_values_and_missing_cells():
    from repro.data.schema import ColumnKind, ColumnSpec, TableSchema
    from repro.data.table import Table

    schema = TableSchema([ColumnSpec("x", ColumnKind.NUMERIC, ""),
                          ColumnSpec("c", ColumnKind.CATEGORICAL, "", categories=("p", "q"))])
    table = Table(schema, {"x": np.array([1.0, np.nan]), "c": np.array(["p", "q"], dtype=object)})
    check_tables_identical(table.copy(), table)
    with pytest.raises(OutputMismatch, match="'c'"):
        check_tables_identical(table.with_column("c", np.array(["p", "p"], dtype=object)), table)


def test_stream_summary_check_rejects_a_corrupted_reference():
    from repro.runtime.streaming import StreamSummary

    def summary(flagged):
        return StreamSummary(n_rows=10, n_chunks=2, n_flagged=len(flagged),
                             flagged_rows=np.array(flagged, dtype=np.int64), threshold=0.5,
                             flagged_fraction=len(flagged) / 10, is_problematic=False,
                             flagged_cells_by_column={"a": 1}, mean_sample_error=0.1,
                             max_sample_error=0.9)

    payload = json.loads(json.dumps(summary([2, 7]).to_dict()))
    check_summaries_equal(payload, summary([2, 7]))
    with pytest.raises(OutputMismatch):
        check_summaries_equal(payload, summary([2, 8]))


# -- the benchmark definition --------------------------------------------------
def test_benchmark_definition_keeps_its_limits():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(definition) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert definition["command"] == ["python3", "perfbench/run.py"]
    assert definition["paths"] == ["perfbench"]
    assert [w["name"] for w in definition["workloads"]] == list(WORKLOAD_MODULES)
    assert all(set(w) == {"name", "why"} for w in definition["workloads"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in definition["workloads"])
    metrics = definition["end_to_end"] + definition["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in definition["workloads"]]
    assert all(name.match(n) for n in names) and len(set(names)) == len(names)
    assert all(unit.match(m["unit"]) and m["better"] in ("higher", "lower") for m in metrics)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in definition["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in definition["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in definition["end_to_end"])
    setup = next(m for m in definition["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in definition["end_to_end"])
    assert 1 <= definition["run_seconds"] <= 60


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-validate-repair",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
