"""``batch-validate-repair``: the paper's batch use, in process.

A closed loop with one caller runs a sequence of dirty 10k-row hotel
tables through ``ValidationService.validate`` (rule set attached,
monitor on) and then ``ValidationService.repair``.
"""

from __future__ import annotations

import os
import time

from repro.runtime.service import ValidationService

from perfbench import composed, inputs
from perfbench.checks import OutputMismatch, check_reports_identical, check_tables_identical
from perfbench.common import Tracer, median, round_medians, vmhwm_kib

TABLE_ROWS = 10_000
N_TABLES = 3
SETUP_REPEATS = 3
MIN_TABLES = 6
MIN_TABLES_PER_ROUND = 2


def _setup(ctx, clean, rep: int):
    """Fit, save, register, load + compile, attach rules and monitor."""
    started = time.perf_counter()
    pipeline = inputs.fit_pipeline(clean, ctx.seed)
    archive = ctx.work / f"batch-{rep}.npz"
    pipeline.save(archive)
    service = ValidationService(capacity=2, monitor_window=32)
    service.register(inputs.PIPELINE, archive)
    service.set_rules(inputs.PIPELINE, inputs.RULES)
    service.monitor_for(inputs.PIPELINE)
    return time.perf_counter() - started, service, archive


def _serve(service, table):
    t0 = time.perf_counter()
    report = service.validate(inputs.PIPELINE, table)
    t1 = time.perf_counter()
    repaired, summary = service.repair(inputs.PIPELINE, table, report=report)
    t2 = time.perf_counter()
    return report, repaired, summary, t1 - t0, t2 - t1


def _check(i, served, expected) -> None:
    report, repaired, summary = served
    want_report, want_table, want_summary = expected
    check_reports_identical(report, want_report, f"table {i} report")
    check_tables_identical(repaired, want_table, f"table {i} repair")
    if summary.n_cells_repaired != want_summary.n_cells_repaired:
        raise OutputMismatch(f"table {i}: repair summary differs from the composed reference")


def run(ctx) -> dict:
    clean = inputs.clean_table(ctx.seed)
    tables = [inputs.dirty_table(ctx.seed, i, TABLE_ROWS) for i in range(N_TABLES)]
    if ctx.trace:
        _, service, archive = _setup(ctx, clean, 0)
        try:
            return _traced(ctx, service, archive, tables)
        finally:
            service.close()

    # Each set-up's service serves one round of tables, spread over the
    # whole run; the timed figures are the best round's.
    setups, validate_s, repair_s, rounds = [], [], [], []
    expected = None
    for rep in range(SETUP_REPEATS):
        elapsed, service, archive = _setup(ctx, clean, rep)
        setups.append(elapsed)
        try:
            if expected is None:
                reference = composed.ComposedPipeline.from_service(service, inputs.PIPELINE, archive)
                expected = []
                for table in tables:
                    report = reference.validate(table)
                    expected.append((report, *reference.repair(table, report)))
            # An untimed first table faults in the service's workspace
            # buffers, so every timed table runs warm whether two or
            # three fit in the round.
            _serve(service, tables[rep % N_TABLES])
            deadline = time.perf_counter() + ctx.seconds / SETUP_REPEATS
            done = 0
            while done < MIN_TABLES_PER_ROUND or time.perf_counter() < deadline:
                i = len(validate_s) % N_TABLES
                report, repaired, summary, v, r = _serve(service, tables[i])
                _check(i, (report, repaired, summary), expected[i])
                validate_s.append(v)
                repair_s.append(r)
                rounds.append(rep)
                done += 1
        finally:
            service.close()
    cycle = [v + r for v, r in zip(validate_s, repair_s)]
    # Timed figures come from the best round (see ``round_medians``).
    return {
        "attempted": len(cycle),
        "failed": 0,
        "metrics": {
            "setup_s": median(setups),
            "peak_rss_mb": vmhwm_kib(os.getpid()) / 1024.0,
            "rows_per_s": TABLE_ROWS / min(round_medians(validate_s, rounds)),
            "p50_ms": min(round_medians(cycle, rounds)) * 1000.0,
        },
        "record": {
            "tables": len(cycle),
            "table_rows": TABLE_ROWS,
            "setup_s_each": setups,
            "validate_rows_per_s": TABLE_ROWS / min(round_medians(validate_s, rounds)),
            "repair_rows_per_s": TABLE_ROWS / min(round_medians(repair_s, rounds)),
            "pooled_validate_rows_per_s": TABLE_ROWS / median(validate_s),
            "pooled_p50_ms": median(cycle) * 1000.0,
            "validate_s_each": validate_s,
            "repair_s_each": repair_s,
            "round_each": rounds,
        },
    }


def _traced(ctx, service, archive, tables) -> dict:
    tracer = Tracer()
    traced = composed.ComposedPipeline.from_service(service, inputs.PIPELINE, archive, tracer)
    work = composed.kernel_work(service.get(inputs.PIPELINE))

    # Untraced and traced passes alternate table by table, so both see
    # the same machine state; each traced result must equal the
    # service's result for the same table.
    untraced_wall, traced_wall, rows = [], [], []
    deadline = time.perf_counter() + ctx.seconds
    i = 0
    while i < MIN_TABLES or time.perf_counter() < deadline:
        table = tables[i % N_TABLES]
        report, repaired, summary, v, r = _serve(service, table)
        untraced_wall.append(v + r)
        tracer.reset()
        t0 = time.perf_counter()
        traced_report = traced.validate(table)
        traced_table, traced_summary = traced.repair(table, traced_report)
        traced_wall.append(time.perf_counter() - t0)
        _check(i % N_TABLES, (report, repaired, summary),
               (traced_report, traced_table, traced_summary))
        row = composed.stage_ms(tracer)
        row["trace.coverage"] = composed.top_level_ms(tracer) / (traced_wall[-1] * 1e3)
        row["core.validator.rows_flagged"] = report.n_flagged
        row["rules.violations"] = report.rule_report.n_cells
        row["core.repair.cells_repaired"] = summary.n_cells_repaired
        rows.append(row)
        i += 1

    metrics = composed.medians(rows)
    metrics.update(composed.engine_rate_metrics(
        work, TABLE_ROWS, metrics["runtime.engine.reconstruction_errors_ms"]))
    metrics["trace.overhead"] = median(traced_wall) / median(untraced_wall)
    return {
        "attempted": 2 * i,
        "failed": 0,
        "metrics": metrics,
        "record": {"tables": i, "kernel_work_computed_from_shapes": work},
    }
