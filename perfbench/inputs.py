"""Seeded inputs shared by every workload: the hotel table, its dirty
variants, the rule set, the fitted pipeline archive, and the timed
set-up of a server that serves it."""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core import DQuaG, DQuaGConfig
from repro.datasets.hotel import HotelBookingGenerator
from repro.errors import (
    CompositeInjector,
    HotelGroupConflictInjector,
    MissingValueInjector,
    NumericAnomalyInjector,
    StringTypoInjector,
)

from perfbench.common import ServerProcess

PIPELINE = "hotel"
CLEAN_ROWS = 4000
#: share of rows each injector corrupts
ERROR_FRACTION = 0.02
#: training epochs: enough for a calibrated pipeline, short enough that
#: set-up (which includes the fit) can be repeated within one run
EPOCHS = 2

RULES = {
    "name": "hotel-checks",
    "rules": [
        {"id": "adr-range", "severity": "error",
         "predicate": {"type": "range", "column": "adr", "min": 0.0, "max": 1000.0}},
        {"id": "lead-time-range", "severity": "warn",
         "predicate": {"type": "range", "column": "lead_time", "min": 0.0, "max": 700.0}},
        {"id": "adults-present", "severity": "warn",
         "predicate": {"type": "not_null", "column": "adults"}},
        {"id": "meal-known", "severity": "error",
         "predicate": {"type": "in_set", "column": "meal", "values": ["BB", "HB", "FB", "SC"]}},
        {"id": "babies-need-adults", "severity": "error",
         "predicate": {"type": "conditional",
                       "when": {"type": "range", "column": "babies", "min": 1.0},
                       "then": {"type": "range", "column": "adults", "min": 1.0}}},
    ],
}


def generator() -> HotelBookingGenerator:
    return HotelBookingGenerator()


def clean_table(seed: int):
    return generator().generate_clean(CLEAN_ROWS, rng=np.random.default_rng([seed, 0]))


def injector() -> CompositeInjector:
    return CompositeInjector(
        [
            NumericAnomalyInjector(["adr", "lead_time", "adults"], fraction=ERROR_FRACTION),
            StringTypoInjector(["meal", "customer_type"], fraction=ERROR_FRACTION),
            MissingValueInjector(["children", "arrival_month"], fraction=ERROR_FRACTION),
            HotelGroupConflictInjector(fraction=ERROR_FRACTION),
        ]
    )


def dirty_table(seed: int, index: int, n_rows: int):
    """The ``index``-th dirty table of ``n_rows`` rows for ``seed``."""
    clean = generator().generate_clean(n_rows, rng=np.random.default_rng([seed, 1, index]))
    dirty, _ = injector().inject(clean, rng=np.random.default_rng([seed, 2, index]))
    return dirty


def fit_pipeline(clean, seed: int) -> DQuaG:
    config = DQuaGConfig(epochs=EPOCHS, seed=seed)
    return DQuaG(config).fit(clean, rng=seed, knowledge_edges=generator().knowledge_edges())


def write_rules(path: Path) -> Path:
    path.write_text(json.dumps(RULES))
    return path


def setup_server(ctx, clean, rep: int, rules_path: Path, args: list):
    """Fit, save the archive, spawn ``python -m repro.serve`` on it with
    the rule file and ``args``, and wait until ``/v1/healthz`` answers 200.
    Returns ``(seconds taken, server, archive)``."""
    started = time.perf_counter()
    archive = ctx.work / f"pipeline-{rep}.npz"
    fit_pipeline(clean, ctx.seed).save(archive)
    server = ServerProcess(
        ["--pipeline", f"{PIPELINE}={archive}", "--rules", f"{PIPELINE}={rules_path}", *args],
        env=ctx.server_env(), cwd=ctx.root, log_path=ctx.work / f"server-{rep}.log",
    )
    try:
        server.start(timeout=90.0)
    except BaseException:
        server.close()
        raise
    return time.perf_counter() - started, server, archive
