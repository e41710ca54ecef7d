"""``fleet-stream``: one client streams a frame file through the router.

``python -m repro.serve --replicas 2`` spawns two gateway replicas
behind a router. The client POSTs a pre-written 32,768-row frame file
(8192-row frames) to ``/validate_stream`` several times; the router
splits it at frame boundaries, hands each replica its range through a
shared-memory slab and folds the partial reports into one summary.
"""

from __future__ import annotations

import http.client
import json
import time

from repro.api import framing
from repro.core.pipeline import DQuaG
from repro.runtime.shm import SharedSlab
from repro.runtime.streaming import PartialReport, StreamingValidator

from perfbench import composed, inputs
from perfbench.checks import OutputMismatch, check_summaries_equal
from perfbench.common import Tracer, median, metric_by_label, metric_sum, round_medians, scrape_diff

FRAME_ROWS = 8192
#: four frames, two per replica (about 2 s a stream on a 2-vCPU x86 VM),
#: keep a run, with its three fleet set-ups of about 11 s each and the
#: in-process reference pass, near 50 s
STREAM_ROWS = 4 * FRAME_ROWS
REPLICAS = 2
SETUP_REPEATS = 3
MIN_STREAMS_PER_ROUND = 2
#: chunks run through the traced composition for the engine stages
TRACED_CHUNKS = 4


def _path() -> str:
    return f"/v1/pipelines/{inputs.PIPELINE}/validate_stream"


def _stream(port: int, body: bytes) -> tuple:
    """POST one framed stream; returns (seconds, summary payload)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        t0 = time.perf_counter()
        conn.request("POST", _path(), body=body,
                     headers={"Content-Type": framing.FRAME_CONTENT_TYPE})
        reply = conn.getresponse()
        data = reply.read()
        elapsed = time.perf_counter() - t0
    finally:
        conn.close()
    if reply.status != 200:
        raise OutputMismatch(f"stream answered HTTP {reply.status}: {data[:200]!r}")
    lines = [line for line in data.splitlines() if line.strip()]
    return elapsed, json.loads(lines[-1])


def run(ctx) -> dict:
    clean = inputs.clean_table(ctx.seed)
    rules_path = inputs.write_rules(ctx.work / "rules.json")
    frame_file = framing.write_frame_file(
        inputs.dirty_table(ctx.seed, 0, STREAM_ROWS), ctx.work / "stream.rprf", chunk_rows=FRAME_ROWS
    )
    frames = list(framing.iter_file_frames(frame_file))
    body = frame_file.read_bytes()
    rounds = 1 if ctx.trace else SETUP_REPEATS
    setups, stream_s, stream_round, counts, rss = [], [], [], {}, []
    chunks = None
    # Each set-up's fleet serves one round of streams, spread over the
    # whole run; the timed figures are the best round's.
    for rep in range(rounds):
        elapsed, server, archive = inputs.setup_server(
            ctx, clean, rep, rules_path, ["--replicas", str(REPLICAS)]
        )
        setups.append(elapsed)
        try:
            if chunks is None:
                chunks = _reference_pass(DQuaG().load_weights(archive), frames, ctx.trace)
            # Warm-up: two frames take the same scatter path and build
            # the router's merge context before anything is timed.
            _stream(server.port, b"".join(frames[:2]))
            before = server.scrape()
            deadline = time.perf_counter() + ctx.seconds / rounds
            done = 0
            while done < MIN_STREAMS_PER_ROUND or time.perf_counter() + stream_s[-1] <= deadline:
                elapsed, payload = _stream(server.port, body)
                check_summaries_equal(payload, chunks["summary"], f"stream {len(stream_s)}")
                stream_s.append(elapsed)
                stream_round.append(rep)
                done += 1
            for key, value in scrape_diff(before, server.scrape()).items():
                counts[key] = counts.get(key, 0.0) + value
            rss.append(server.peak_rss_mib())
        finally:
            server.close()
    if ctx.trace:
        return _traced(archive, frames, chunks, stream_s, counts)
    return {
        "attempted": len(stream_s),
        "failed": 0,
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": median(rss),
            # the best round's median (see ``round_medians``)
            "rows_per_s": STREAM_ROWS / min(round_medians(stream_s, stream_round)),
            "p50_ms": min(round_medians(stream_s, stream_round)) * 1000.0,
        },
        "record": {
            "setup_s_each": setups,
            "streams": len(stream_s),
            "stream_rows": STREAM_ROWS,
            "frames": len(frames),
            "pooled_p50_ms": median(stream_s) * 1000.0,
            "stream_s_each": stream_s,
            "round_each": stream_round,
            "in_process_rows_per_s": STREAM_ROWS / sum(chunks["validate_s"]),
        },
    }


def _reference_pass(pipeline, frames, layers: bool) -> dict:
    """The in-process ``StreamingValidator`` over the same chunks; its
    summary is the output check's reference. Each chunk's decode and
    validate are timed, and with ``layers`` also the partial codec and
    the shm hand-off, plus the final fold."""
    schema = pipeline.preprocessor.schema
    validator = StreamingValidator.from_pipeline(pipeline, rules=inputs.RULES)
    out = {"decode_s": [], "validate_s": [], "codec_s": [], "shm_s": [], "tables": [], "partials": []}
    offset = 0
    for raw in frames:
        t0 = time.perf_counter()
        table = framing.decode_frame(raw, schema).table
        t1 = time.perf_counter()
        partial = validator.validate_chunk(table, offset)
        t2 = t3 = t4 = time.perf_counter()
        if layers:
            PartialReport.from_dict(json.loads(json.dumps(partial.to_dict())))
            t3 = time.perf_counter()
            with SharedSlab.create_bytes(len(raw)) as slab:
                slab.buf[: len(raw)] = raw
                with SharedSlab.attach_bytes(slab.name) as attached:
                    bytes(attached.buf[:16])
            t4 = time.perf_counter()
        offset += partial.n_rows
        for key, value in (("decode_s", t1 - t0), ("validate_s", t2 - t1),
                           ("codec_s", t3 - t2), ("shm_s", t4 - t3)):
            out[key].append(value)
        out["tables"].append(table)
        out["partials"].append(partial)
    t0 = time.perf_counter()
    out["summary"] = validator.fold(iter(out["partials"]))
    out["fold_s"] = time.perf_counter() - t0
    return out


def _traced(archive, frames, chunks, stream_s, diff) -> dict:
    from repro.runtime.service import ValidationService

    service = ValidationService(capacity=1, monitor_window=32)
    try:
        service.register(inputs.PIPELINE, archive)
        service.set_rules(inputs.PIPELINE, inputs.RULES)
        tracer = Tracer()
        traced = composed.ComposedPipeline.from_service(service, inputs.PIPELINE, archive, tracer)
        traced.validate(chunks["tables"][0])  # fault in the composition's workspace
        rows, traced_s = [], []
        for table, partial in list(zip(chunks["tables"], chunks["partials"]))[:TRACED_CHUNKS]:
            tracer.reset()
            t0 = time.perf_counter()
            report = traced.validate(table)
            traced_s.append(time.perf_counter() - t0)
            if (report.sample_errors.tobytes() != partial.sample_errors.tobytes()
                    or report.row_flags.tobytes() != partial.row_flags.tobytes()):
                raise OutputMismatch("composed chunk report differs from validate_chunk")
            row = composed.stage_ms(tracer)
            row["core.validator.rows_flagged"] = report.n_flagged
            row["rules.violations"] = report.rule_report.n_cells
            rows.append(row)
        work = composed.kernel_work(service.get(inputs.PIPELINE))
    finally:
        service.close()

    metrics = composed.medians(rows)
    metrics.update(composed.engine_rate_metrics(
        work, FRAME_ROWS, metrics["runtime.engine.reconstruction_errors_ms"]))
    in_process_rows_per_s = STREAM_ROWS / sum(chunks["validate_s"])
    stream_rows_per_s = STREAM_ROWS / median(stream_s)
    per_replica = metric_by_label(diff, "repro_router_requests_total", "replica")
    # Work on the critical path: replicas decode, validate and encode
    # their ranges in parallel; the router copies slabs and folds.
    attributed = (
        (sum(chunks["decode_s"]) + sum(chunks["validate_s"]) + sum(chunks["codec_s"])) / REPLICAS
        + sum(chunks["shm_s"]) + chunks["fold_s"]
    )
    metrics.update(
        {
            "api.framing.decode_ms": median(chunks["decode_s"]) * 1e3,
            "runtime.streaming.validate_chunk_ms": median(chunks["validate_s"]) * 1e3,
            "api.protocol.partial_codec_ms": median(chunks["codec_s"]) * 1e3,
            "runtime.streaming.fold_ms": chunks["fold_s"] * 1e3,
            "runtime.shm.attach_ms": median(chunks["shm_s"]) * 1e3,
            "serve.router.scatter_efficiency": stream_rows_per_s / (REPLICAS * in_process_rows_per_s),
            "serve.router.streams_scattered": metric_sum(diff, "repro_router_streams_scattered_total"),
            "serve.router.shm_scatters": metric_sum(diff, "repro_router_shm_scatters_total"),
            "serve.router.shm_fallbacks": metric_sum(diff, "repro_router_shm_fallbacks_total"),
            "serve.router.rescatters": metric_sum(diff, "repro_router_rescatters_total"),
            "serve.router.replica_balance": (
                min(per_replica.values()) / max(per_replica.values())
                if per_replica and max(per_replica.values()) > 0 else 0.0
            ),
            "trace.coverage": attributed / median(stream_s),
            "trace.overhead": median(traced_s) / median(chunks["validate_s"][: len(traced_s)]),
        }
    )
    return {
        "attempted": len(stream_s) + len(frames),
        "failed": 0,
        "metrics": metrics,
        "record": {
            "streams": len(stream_s),
            "stream_rows_per_s": stream_rows_per_s,
            "in_process_rows_per_s": in_process_rows_per_s,
            "router_requests_per_replica": per_replica,
        },
    }
