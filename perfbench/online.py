"""``online-small``: many small callers against one async gateway.

The gateway runs as its own process (``python -m repro.serve
--pipeline hotel=<archive>``, default scheduler settings), so the load
generator's interpreter lock is not the server's. An open loop sends
50-row JSON-record bodies over two keep-alive connections at three
fixed rates, latency timed from each request's due time; a closed loop
over the same two connections then measures the rate the gateway
sustains and the p50 latency at that rate.
"""

from __future__ import annotations

import json
import time

from repro.api.requests import ValidateRequest
from repro.data.table import Table
from repro.runtime.service import ValidationService
from repro.serve.scheduler import RequestScheduler

from perfbench import composed, inputs
from perfbench.checks import OutputMismatch, check_reports_identical, check_response_matches
from perfbench.common import Tracer, median, metric_sum, percentile, scrape_diff
from perfbench.loadgen import generator_lateness, run_closed_loop, run_open_loop, summarize_phase

ROWS_PER_REQUEST = 50
N_BODIES = 200
#: the fixed offered rates (requests/s) and each open-loop phase's share
#: of the run. On a 2-vCPU x86 VM the closed loop sustains 85-125
#: requests/s as host load varies, so ``loaded`` runs well under that and
#: ``peak`` near or beyond it.
PHASES = (("idle", 20.0, 0.3), ("loaded", 50.0, 0.15), ("peak", 100.0, 0.15))
#: share of the run for the closed loop that keeps both connections busy;
#: the largest, because both timed end-to-end figures come from it
CLOSED_SHARE = 0.4
SLO_S = 0.050
CONNECTIONS = 2
SETUP_REPEATS = 3
WARMUP_REQUESTS = 40
#: every KEEP_EVERY-th reply is checked against an in-process validate
KEEP_EVERY = 10


def _path() -> str:
    return f"/v1/pipelines/{inputs.PIPELINE}/validate"


def _bodies(seed: int) -> list:
    table = inputs.dirty_table(seed, 0, ROWS_PER_REQUEST * N_BODIES)
    return [
        json.dumps(
            ValidateRequest.from_table(
                table.slice_rows(i * ROWS_PER_REQUEST, (i + 1) * ROWS_PER_REQUEST)
            ).to_dict()
        ).encode("utf-8")
        for i in range(N_BODIES)
    ]


def run(ctx) -> dict:
    clean = inputs.clean_table(ctx.seed)
    rules_path = inputs.write_rules(ctx.work / "rules.json")
    bodies = _bodies(ctx.seed)
    rounds = 1 if ctx.trace else SETUP_REPEATS
    setups, rss = [], []
    sent = {name: [] for name, _, _ in PHASES}
    sent["closed"] = []
    counts: dict = {}
    checked = 0
    local = ValidationService(capacity=2, monitor_window=32)
    try:
        # Each set-up's server serves one round of all phases, spread
        # over the whole run; the timed figures are the best round's.
        for rep in range(rounds):
            elapsed, server, archive = inputs.setup_server(ctx, clean, rep, rules_path, [])
            setups.append(elapsed)
            try:
                if rep == 0:
                    local.register(inputs.PIPELINE, archive)
                    local.set_rules(inputs.PIPELINE, inputs.RULES)
                    schema = local.get(inputs.PIPELINE).preprocessor.schema
                    tables = [Table.from_records(schema, json.loads(b)["records"]) for b in bodies]
                checked += _round(ctx.seconds / rounds, server, bodies, tables, local, sent, counts)
                rss.append(server.peak_rss_mib())
            finally:
                server.close()
        if checked == 0:
            raise OutputMismatch("no reply was sampled for the output check")
        phases = {
            name: ([s for seg in segments for s in seg], summarize_phase(segments, SLO_S, ROWS_PER_REQUEST),
                   segments)
            for name, segments in sent.items()
        }
        if ctx.trace:
            return _traced(local, archive, bodies, tables, phases, counts)
        return _result(setups, rss, phases, checked)
    finally:
        local.close()


def _round(seconds, server, bodies, tables, local, sent, counts) -> int:
    """Warm up, then run each fixed-rate phase and the closed loop for
    its share of ``seconds``, scraping ``/v1/metrics`` around each and
    checking the sampled replies. Returns how many replies were checked."""
    host, port = "127.0.0.1", server.port
    run_open_loop(host, port, _path(), bodies, rate=1000.0, duration=WARMUP_REQUESTS / 1000.0,
                  connections=1)
    checked = 0
    for name, rate, share in PHASES + (("closed", None, CLOSED_SHARE),):
        load = dict(connections=CONNECTIONS, keep_every=KEEP_EVERY,
                    first_body=sum(len(seg) for segs in sent.values() for seg in segs))
        before = server.scrape()
        if rate is None:
            phase = run_closed_loop(host, port, _path(), bodies, duration=seconds * share, **load)
        else:
            phase = run_open_loop(host, port, _path(), bodies, rate=rate, duration=seconds * share,
                                  **load)
        diff = scrape_diff(before, server.scrape())
        sent[name].append(phase)
        for key, value in diff.items():
            counts[key] = counts.get(key, 0.0) + value
        for s in phase:
            if s.response is not None:
                reference = local.validate(inputs.PIPELINE, tables[s.body])
                check_response_matches(json.loads(s.response), reference, f"{name} request {s.index}")
                checked += 1
        # Every refusal the clients saw is one the scheduler counted:
        # nothing was retried or lost in between.
        refused = sum(1 for s in phase if s.status == 429)
        rejected = int(metric_sum(diff, "repro_scheduler_requests_rejected_total"))
        if rejected != refused:
            raise OutputMismatch(
                f"{name}: clients saw {refused} HTTP 429 but the scheduler counted {rejected}"
            )
    return checked


def _phase_summaries(phases) -> dict:
    return {name: summary for name, (_, summary, _) in phases.items()}


def _lateness_p99_ms(phases) -> float:
    late = [x for sent, _, _ in phases.values() for x in generator_lateness(sent)]
    return percentile(late, 99.0) * 1000.0 if late else 0.0


def _result(setups, rss, phases, checked) -> dict:
    summaries = _phase_summaries(phases)
    passing = [rate for name, rate, _ in PHASES if summaries[name]["meets_slo"]]
    attempted = sum(s["n"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    rounds = {
        name: [summarize_phase([seg], SLO_S, ROWS_PER_REQUEST) for seg in segments]
        for name, (_, _, segments) in phases.items()
    }
    closed = rounds["closed"]
    return {
        "attempted": attempted,
        "failed": failed,
        # Both timed figures come from the closed loop, which keeps both
        # connections busy: the rate the gateway sustains (a fixed offered
        # rate would only echo that rate), and its p50, which like idle
        # p50 includes the scheduler's batch window but, unlike idle
        # p50, does not wait on idle CPUs waking up. Each is the best
        # round's (see ``round_medians``).
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": median(rss),
            "rows_per_s": max(r["served_rows_per_s"] for r in closed),
            "p50_ms": min(r["p50_ms"] for r in closed),
        },
        "record": {
            "setup_s_each": setups,
            "phases": summaries,
            "rates_rps": {name: rate for name, rate, _ in PHASES},
            "max_rps_under_slo": passing[-1] if passing else 0.0,
            "max_rps_under_slo_supported": all(
                summaries[name]["slo_verdict_supported"] for name, _, _ in PHASES
            ),
            "failed_ratio": failed / attempted,
            "generator_lateness_p99_ms": _lateness_p99_ms(phases),
            "replies_checked": checked,
            "p50_ms_each_round": {name: [r["p50_ms"] for r in each] for name, each in rounds.items()},
            "closed_rows_per_s_each_round": [r["served_rows_per_s"] for r in closed],
        },
    }


#: in-process stages one request passes through, in order
_REQUEST_STAGES = (
    "api.requests.decode_ms",
    "data.plan.transform_ms",
    "runtime.engine.reconstruction_errors_ms",
    "core.validator.assemble_report_ms",
    "rules.apply_rules_ms",
    "monitor.observe_ms",
    "api.protocol.report_encode_ms",
)


def _traced(local, archive, bodies, tables, phases, counts) -> dict:
    tracer = Tracer()
    traced = composed.ComposedPipeline.from_service(local, inputs.PIPELINE, archive, tracer)
    schema = tables[0].schema
    rows, traced_s, untraced_s = [], [], []
    for i, body in enumerate(bodies):
        tracer.reset()
        t0 = time.perf_counter()
        with tracer.span("api.requests.decode"):
            request = ValidateRequest.from_payload(json.loads(body), pipeline=inputs.PIPELINE)
            table = request.to_table(schema)
        report = traced.validate(table)
        with tracer.span("api.protocol.report_encode"):
            json.dumps(report.to_dict(errors="sparse")).encode("utf-8")
        traced_s.append(time.perf_counter() - t0)

        t1 = time.perf_counter()
        request = ValidateRequest.from_payload(json.loads(body), pipeline=inputs.PIPELINE)
        reference = local.validate(inputs.PIPELINE, request.to_table(schema))
        json.dumps(reference.to_dict(errors="sparse")).encode("utf-8")
        untraced_s.append(time.perf_counter() - t1)
        check_reports_identical(reference, report, f"request body {i}")

        row = composed.stage_ms(tracer)
        row["api.requests.decode_ms"] = tracer.total("api.requests.decode") * 1e3
        row["api.protocol.report_encode_ms"] = tracer.total("api.protocol.report_encode") * 1e3
        row["core.validator.rows_flagged"] = report.n_flagged
        row["rules.violations"] = report.rule_report.n_cells
        rows.append(row)

    metrics = composed.medians(rows)
    direct_ms = median(
        [r["data.plan.transform_ms"] + r["runtime.engine.reconstruction_errors_ms"]
         + r["core.validator.assemble_report_ms"] + r["rules.apply_rules_ms"]
         + r["monitor.observe_ms"] for r in rows]
    )
    idle_rate = PHASES[0][1]
    submit_ms, max_batch_rows = _scheduler_submit_ms(local, tables, idle_rate)
    metrics["serve.scheduler.wait_ms"] = submit_ms - direct_ms
    attributed = sum(metrics[name] for name in _REQUEST_STAGES) + metrics["serve.scheduler.wait_ms"]
    idle_p50 = phases["idle"][1]["p50_ms"]
    metrics["serve.transport.residual_ms"] = idle_p50 - attributed

    batches = metric_sum(counts, "repro_scheduler_batch_size_count")
    completed = metric_sum(counts, "repro_scheduler_requests_completed_total")
    dispatched = metric_sum(counts, "repro_scheduler_rows_dispatched_total")
    metrics.update(
        {
            "serve.scheduler.batches": batches,
            "serve.scheduler.mean_batch_size": completed / batches if batches else 0.0,
            "serve.scheduler.fill_ratio": dispatched / (batches * max_batch_rows) if batches else 0.0,
            "serve.scheduler.rejected": metric_sum(counts, "repro_scheduler_requests_rejected_total"),
            "runtime.service.validations": metric_sum(counts, "repro_pipeline_validations_total"),
            "bench.generator_lateness_p99_ms": _lateness_p99_ms(phases),
            "trace.coverage": attributed / idle_p50,
            "trace.overhead": median(traced_s) / median(untraced_s),
        }
    )
    metrics.update(composed.engine_rate_metrics(
        composed.kernel_work(local.get(inputs.PIPELINE)), ROWS_PER_REQUEST,
        metrics["runtime.engine.reconstruction_errors_ms"]))
    summaries = _phase_summaries(phases)
    return {
        "attempted": sum(s["n"] for s in summaries.values()) + 2 * len(bodies),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": metrics,
        "record": {"phases": summaries, "requests_traced": len(bodies)},
    }


def _scheduler_submit_ms(local, tables, rate: float, requests: int = 40) -> tuple:
    """Median ``RequestScheduler.submit(...).result()`` latency in ms, in
    process, at ``rate`` arrivals per second, on a scheduler with the
    default settings ``repro-serve`` also starts with. Returns it with
    that scheduler's ``max_batch_rows``."""
    scheduler = RequestScheduler(local)
    try:
        latencies = []
        start = time.perf_counter()
        for j in range(requests):
            delay = start + j / rate - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t0 = time.perf_counter()
            scheduler.submit(inputs.PIPELINE, tables[j % len(tables)]).result(timeout=30)
            latencies.append(time.perf_counter() - t0)
    finally:
        scheduler.close(drain=True)
    return median(latencies) * 1e3, scheduler.max_batch_rows
