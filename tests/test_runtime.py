"""Tests for the compiled inference runtime (engine, streaming, service)
and the persistence/config satellites that ship with it."""

from __future__ import annotations

import ast
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import DQuaG, DQuaGConfig, DQuaGModel
from repro.data import ColumnKind, ColumnSpec, Table, TableSchema, read_csv_chunks, write_csv
from repro.data.preprocess import TablePreprocessor
from repro.errors import NumericAnomalyInjector
from repro.exceptions import (
    ConfigurationError,
    NotFittedError,
    ReproError,
    SerializationError,
)
from repro.gnn import ENCODER_ARCHITECTURES
from repro.graph import FeatureGraph
from repro.nn.kernels import Workspace
from repro.nn.serialization import load_state, save_state
from repro.runtime import InferenceEngine, PartialReport, StreamingValidator, ValidationService
from repro.runtime import engine as engine_module
from repro.runtime.engine import cache_sized_chunk
from repro.runtime.streaming import StreamSummary


def make_table(n: int, seed: int) -> Table:
    """Correlated numerics plus a category derived from the driver."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 0.9, n)
    schema = TableSchema(
        [
            ColumnSpec("x", ColumnKind.NUMERIC, "driver"),
            ColumnSpec("y", ColumnKind.NUMERIC, "2x + noise"),
            ColumnSpec("z", ColumnKind.NUMERIC, "1 - x + noise"),
            ColumnSpec("c", ColumnKind.CATEGORICAL, "band of x", categories=("lo", "hi")),
        ]
    )
    return Table(
        schema,
        {
            "x": x,
            "y": 2.0 * x + rng.normal(0, 0.01, n),
            "z": 1.0 - x + rng.normal(0, 0.01, n),
            "c": np.where(x > 0.5, "hi", "lo"),
        },
    )


def fit_small(architecture: str = "gat_gin", **overrides) -> DQuaG:
    config = DQuaGConfig(
        architecture=architecture, hidden_dim=16, epochs=4, batch_size=64, **overrides
    )
    return DQuaG(config).fit(make_table(400, seed=0), rng=0)


@pytest.fixture(scope="module")
def fitted() -> tuple[DQuaG, Table]:
    train = make_table(600, seed=0)
    config = DQuaGConfig(hidden_dim=24, epochs=20, batch_size=32)
    pipeline = DQuaG(config).fit(train, rng=0, calibration_table=make_table(700, seed=1))
    return pipeline, make_table(1200, seed=2)


# ---------------------------------------------------------------------------
# engine-vs-autograd parity (every encoder architecture, 1e-10)
# ---------------------------------------------------------------------------
class TestEngineParity:
    @pytest.mark.parametrize("architecture", ENCODER_ARCHITECTURES)
    def test_errors_and_repairs_match_autograd(self, architecture):
        pipeline = fit_small(architecture)
        assert pipeline.engine is not None
        holdout = make_table(300, seed=3)
        matrix = pipeline.preprocessor.transform(holdout)
        # 64-row chunks split the holdout, so the width-2 engine fans out.
        fanned = InferenceEngine(pipeline.model, chunk_size=64, width=2)
        for engine in (pipeline.engine, fanned):
            np.testing.assert_allclose(
                engine.reconstruction_errors(matrix),
                pipeline.model.reconstruction_errors(matrix),
                rtol=0.0,
                atol=1e-10,
            )
            np.testing.assert_allclose(
                engine.repair_values(matrix),
                pipeline.model.repair_values(matrix),
                rtol=0.0,
                atol=1e-10,
            )

    def test_chunk_size_invariance_is_exact(self, fitted):
        # Neither the chunk size nor the fan-out width moves a bit.
        pipeline, holdout = fitted
        model = pipeline.model
        derived = InferenceEngine(model, width=1)
        chunk = derived.chunk_size
        assert chunk == cache_sized_chunk(model.n_features, model.config.hidden_dim)
        # Tiled past the derived chunk, so the default splits it too.
        tiled = np.tile(pipeline.preprocessor.transform(holdout), (3, 1))
        assert tiled.shape[0] > 2 * chunk + 1
        matrices = [tiled] + [tiled[:n] for n in (0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1)]
        expected = [
            (derived.reconstruction_errors(m), derived.repair_values(m), *derived.forward(m))
            for m in matrices
        ]
        for width in (2, 3):
            engine = InferenceEngine(model, width=width)
            for matrix, (errors, repairs, recon, repair) in zip(matrices, expected):
                np.testing.assert_array_equal(engine.reconstruction_errors(matrix), errors)
                np.testing.assert_array_equal(engine.repair_values(matrix), repairs)
                forward_recon, forward_repair = engine.forward(matrix)
                np.testing.assert_array_equal(forward_recon, recon)
                np.testing.assert_array_equal(forward_repair, repair)
        errors, repairs = expected[0][:2]
        for chunk_size in (1, 77, 512, 4096):
            for width in (1, 2, 3):
                engine = InferenceEngine(model, chunk_size=chunk_size, width=width)
                np.testing.assert_array_equal(engine.reconstruction_errors(tiled), errors)
                np.testing.assert_array_equal(engine.repair_values(tiled), repairs)

    def test_derived_chunk_shrinks_with_model_width(self):
        widths = [(4, 16), (4, 24), (12, 64), (18, 64), (64, 256), (128, 512), (256, 512)]
        sizes = [cache_sized_chunk(n_features, hidden) for n_features, hidden in widths]
        assert all(wide < narrow for narrow, wide in zip(sizes, sizes[1:]))
        assert cache_sized_chunk(12, 64) == 170  # (170, 12, 64) float64 ≈ 1 MiB
        assert sizes[-1] == 1
        # A row wider than the budget still runs, one row per chunk.
        assert cache_sized_chunk(512, 512) == cache_sized_chunk(1 << 20, 1 << 20) == 1

    def test_forward_shares_encoder_pass(self, fitted):
        pipeline, holdout = fitted
        matrix = pipeline.preprocessor.transform(holdout)
        recon, repair = pipeline.engine.forward(matrix)
        np.testing.assert_array_equal((recon - matrix) ** 2, pipeline.engine.reconstruction_errors(matrix))
        np.testing.assert_array_equal(repair, pipeline.engine.repair_values(matrix))

    def test_engine_validate_matches_pipeline(self, fitted):
        pipeline, holdout = fitted
        via_engine = pipeline.engine.validate_matrix(pipeline.preprocessor.transform(holdout))
        via_pipeline = pipeline.validate(holdout)
        np.testing.assert_array_equal(via_engine.row_flags, via_pipeline.row_flags)
        np.testing.assert_array_equal(via_engine.cell_flags, via_pipeline.cell_flags)
        np.testing.assert_array_equal(via_engine.sample_errors, via_pipeline.sample_errors)
        assert via_engine.is_problematic == via_pipeline.is_problematic

    def test_repair_routes_through_engine(self, fitted):
        pipeline, holdout = fitted
        assert pipeline._repair_engine.engine is pipeline.engine
        dirty, _ = NumericAnomalyInjector(["y"], fraction=0.2).inject(holdout, rng=5)
        repaired, summary = pipeline.repair(dirty)
        assert summary.n_cells_repaired > 0

    def test_engine_without_context_rejects_validate(self, fitted):
        pipeline, holdout = fitted
        bare = InferenceEngine(pipeline.model)
        with pytest.raises(NotFittedError):
            bare.validate_matrix(pipeline.preprocessor.transform(holdout))

    def test_bad_matrix_shape_rejected(self, fitted):
        pipeline, _ = fitted
        with pytest.raises(ValueError):
            pipeline.engine.reconstruction_errors(np.zeros((10, 99)))

    def test_concurrent_callers_share_fanned_out_engine(self, fitted):
        # More callers than CPUs, and a switch interval short enough to
        # interleave them inside every chunk claim: each caller still
        # gets exactly the serial result, and none of them hangs.
        import sys
        import threading

        pipeline, holdout = fitted
        model = pipeline.model
        matrix = np.tile(pipeline.preprocessor.transform(holdout), (2, 1))
        serial = InferenceEngine(model, chunk_size=97, width=1)
        engine = InferenceEngine(model, chunk_size=97, width=2)
        sizes = (matrix.shape[0], 1, 96, 97, 98, 195, 1000)
        expected = {n: serial.forward(matrix[:n]) for n in sizes}
        mismatches: list[int] = []
        errors: list[BaseException] = []

        def caller(offset: int) -> None:
            try:
                for i in range(6):
                    n = sizes[(offset + i) % len(sizes)]
                    recon, repair = engine.forward(matrix[:n])
                    squared = engine.reconstruction_errors(matrix[:n])
                    want_recon, want_repair = expected[n]
                    if not (
                        np.array_equal(recon, want_recon)
                        and np.array_equal(repair, want_repair)
                        and np.array_equal(squared, (want_recon - matrix[:n]) ** 2)
                    ):
                        mismatches.append(n)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive(), "a caller of the shared engine hung"
        finally:
            sys.setswitchinterval(previous)
        assert not errors
        assert not mismatches

    def test_helper_chunk_exception_reaches_caller(self, fitted, monkeypatch):
        import threading

        pipeline, holdout = fitted
        matrix = pipeline.preprocessor.transform(holdout)
        engine = InferenceEngine(pipeline.model, chunk_size=100, width=2)
        expected = InferenceEngine(pipeline.model, width=1).reconstruction_errors(matrix)
        caller = threading.current_thread()
        decoder = engine._validation_decoder
        helper_failed = threading.Event()

        def failing_in_helper(z, ws=None):
            if threading.current_thread() is caller:
                # Hold the caller on its first chunk until a helper has
                # claimed one, so the failure surely lands in a helper.
                helper_failed.wait(timeout=30)
                return decoder(z, ws)
            helper_failed.set()
            raise RuntimeError("helper chunk failed")

        monkeypatch.setattr(engine, "_validation_decoder", failing_in_helper)
        with pytest.raises(RuntimeError, match="helper chunk failed"):
            engine.reconstruction_errors(matrix)
        assert helper_failed.is_set()
        monkeypatch.undo()
        np.testing.assert_array_equal(engine.reconstruction_errors(matrix), expected)
        # A pool that refuses work (as every executor does once the
        # interpreter starts shutting down) leaves the chunks to the caller.
        refusing = ThreadPoolExecutor(1)
        refusing.shutdown()
        monkeypatch.setattr(engine_module, "compute_pool", lambda: refusing)
        np.testing.assert_array_equal(engine.reconstruction_errors(matrix), expected)

    def test_width_follows_the_cpus_the_process_may_use(self, fitted, monkeypatch):
        import os

        pipeline, holdout = fitted
        matrix = pipeline.preprocessor.transform(holdout)
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("os.sched_setaffinity is unavailable on this platform")
        jobs = []
        monkeypatch.setattr(engine_module, "compute_pool", lambda: jobs.append(1))
        previous = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {min(previous)})
        try:
            engine = InferenceEngine(pipeline.model, chunk_size=64)
            assert engine.width == 1
            engine.reconstruction_errors(matrix)
            assert not jobs  # no job reached the pool
        finally:
            os.sched_setaffinity(0, previous)

    def test_workspace_buffers_are_reused(self):
        ws = Workspace()
        a = ws.get("k", (4, 3))
        block = id(a.base)
        b = ws.get("k", (4, 3))  # a is alive: same key, new block
        assert id(b.base) != block
        del a
        c = ws.get("other", (2, 3))  # a's block is free: it serves any key and smaller shape
        assert id(c.base) == block
        d = ws.get("k", (8, 3))  # every block is in use or too small: a new one
        assert d.shape == (8, 3) and len(ws._blocks) == 3

    def test_workspace_blocks_settle_after_the_first_call(self, fitted, monkeypatch):
        """Repeated multi-chunk validates allocate no further block on any
        thread once the first call has run, at width 1 and at width 2."""
        made = []

        class Recorded(Workspace):
            def __init__(self) -> None:
                super().__init__()
                made.append(self)

        monkeypatch.setattr(engine_module, "Workspace", Recorded)
        pipeline, holdout = fitted
        matrix = pipeline.preprocessor.transform(holdout)[: 64 * 12]
        for width in (1, 2):
            made.clear()
            engine = InferenceEngine(pipeline.model, chunk_size=64, width=width)

            def calls():
                # Fresh threads, caller and helper alike: a thread's
                # workspace serves every engine in the process, so one
                # that ran another engine already holds blocks.
                with ThreadPoolExecutor(1) as pool:
                    monkeypatch.setattr(engine_module, "compute_pool", lambda: pool)
                    expected = engine.reconstruction_errors(matrix)
                    # A fan-out thread that ran no chunk yet has no blocks to pin.
                    settled = {
                        id(ws): [id(block) for block in ws._blocks] for ws in made if ws._blocks
                    }
                    for _ in range(3):
                        np.testing.assert_array_equal(
                            engine.reconstruction_errors(matrix), expected
                        )
                    return settled

            with ThreadPoolExecutor(1) as caller:
                settled = caller.submit(calls).result()
            assert 1 <= len(made) <= width and settled
            for ws in made:
                if id(ws) in settled:
                    assert [id(block) for block in ws._blocks] == settled[id(ws)]

    def test_paper_sized_scratch_stays_within_five_activations(self):
        """A thread's scratch is the few blocks one chunk holds at once:
        at most five of the widest (rows, F, hidden) activation, about
        5 MiB on a 12-feature, hidden-64 model."""
        features = [f"f{i}" for i in range(12)]
        graph = FeatureGraph(features, list(zip(features, features[1:])))
        engine = InferenceEngine(DQuaGModel(graph, DQuaGConfig(hidden_dim=64), rng=0), width=1)
        matrix = np.random.default_rng(0).uniform(size=(3 * engine.chunk_size + 7, 12))

        def scratch() -> int:
            # On a fresh thread: a thread's workspace serves every engine
            # in the process, and this one must hold this engine's only.
            engine.reconstruction_errors(matrix)
            engine.repair_values(matrix)
            engine.forward(matrix)
            return engine_module.thread_workspace().nbytes()

        with ThreadPoolExecutor(1) as pool:
            nbytes = pool.submit(scratch).result()
        widest = engine.chunk_size * 12 * 64 * 8
        assert nbytes <= 5 * widest


# ---------------------------------------------------------------------------
# streaming (satellite: chunked == one-shot)
# ---------------------------------------------------------------------------
class TestStreaming:
    def test_chunked_report_identical_to_one_shot(self, fitted):
        pipeline, holdout = fitted
        one_shot = pipeline.validate(holdout)
        streamed = pipeline.streaming_validator(chunk_size=333, keep_cell_errors=True).validate_table(holdout)
        np.testing.assert_array_equal(streamed.row_flags, one_shot.row_flags)
        np.testing.assert_array_equal(streamed.cell_flags, one_shot.cell_flags)
        np.testing.assert_array_equal(streamed.sample_errors, one_shot.sample_errors)
        np.testing.assert_array_equal(streamed.cell_errors, one_shot.cell_errors)
        assert streamed.threshold == one_shot.threshold
        assert streamed.flagged_fraction == one_shot.flagged_fraction
        assert streamed.is_problematic == one_shot.is_problematic
        assert streamed.feature_names == one_shot.feature_names

    def test_summary_mode_matches_flags_without_dense_errors(self, fitted):
        pipeline, holdout = fitted
        dirty, _ = NumericAnomalyInjector(["y"], fraction=0.3).inject(holdout, rng=9)
        one_shot = pipeline.validate(dirty)
        summary = pipeline.streaming_validator(chunk_size=250).validate_table(dirty)
        assert isinstance(summary, StreamSummary)
        assert summary.n_rows == dirty.n_rows
        assert summary.n_chunks == 5
        assert summary.n_flagged == one_shot.n_flagged
        np.testing.assert_array_equal(summary.flagged_rows, one_shot.flagged_rows)
        assert summary.is_problematic == one_shot.is_problematic
        assert summary.flagged_cells_by_column
        assert sum(summary.flagged_cells_by_column.values()) == int(one_shot.cell_flags.sum())
        assert "rows flagged" in summary.summary()

    def test_stream_from_csv_chunks(self, fitted, tmp_path):
        pipeline, holdout = fitted
        path = tmp_path / "holdout.csv"
        write_csv(holdout, path)
        chunks = read_csv_chunks(path, holdout.schema, chunk_size=400)
        summary = pipeline.streaming_validator().validate_stream(chunks)
        one_shot = pipeline.validate(holdout)
        assert summary.n_rows == holdout.n_rows
        assert summary.n_flagged == one_shot.n_flagged

    def test_partial_reports_carry_global_offsets(self, fitted):
        pipeline, holdout = fitted
        validator = pipeline.streaming_validator(chunk_size=500)
        partials = list(
            validator.iter_partials(pipeline.preprocessor.transform_chunks(holdout, 500))
        )
        assert [p.offset for p in partials] == [0, 500, 1000]
        assert sum(p.n_rows for p in partials) == holdout.n_rows
        flagged = np.concatenate([p.flagged_rows for p in partials])
        np.testing.assert_array_equal(flagged, pipeline.validate(holdout).flagged_rows)

    def test_merge_requires_dense_errors(self, fitted):
        pipeline, holdout = fitted
        validator = pipeline.streaming_validator(chunk_size=600)  # no dense retention
        partials = list(
            validator.iter_partials(pipeline.preprocessor.transform_chunks(holdout, 600))
        )
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            PartialReport.merge(partials, threshold=0.1, rule=validator.validator.rule)

    def test_empty_stream_rejected(self, fitted):
        pipeline, _ = fitted
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError):
            pipeline.streaming_validator().validate_stream([])

    def test_empty_stream_message_identical_in_both_modes(self, fitted):
        # The dense-merge path and the bounded-memory fold used to raise
        # different messages ("cannot merge zero partial reports" vs
        # "cannot validate an empty stream"); both now raise the latter.
        pipeline, _ = fitted
        from repro.exceptions import ValidationError

        with pytest.raises(ValidationError, match="cannot validate an empty stream"):
            pipeline.streaming_validator(keep_cell_errors=True).validate_stream([])
        with pytest.raises(ValidationError, match="cannot validate an empty stream"):
            pipeline.streaming_validator(keep_cell_errors=False).validate_stream([])

    def test_raw_matrix_width_mismatch_raises_schema_error(self, fitted):
        # A matrix whose width disagrees with the trained schema used to
        # surface as an IndexError deep inside fold's column lookup.
        pipeline, _ = fitted
        from repro.exceptions import SchemaError

        validator = pipeline.streaming_validator()
        with pytest.raises(SchemaError, match="expects"):
            validator.validate_chunk(np.zeros((10, 99)))
        with pytest.raises(SchemaError):
            validator.validate_chunk(np.zeros(30))  # 1-D is not a row chunk
        with pytest.raises(SchemaError):
            validator.validate_stream(iter([np.zeros((10, 99))]))

    def test_transform_chunks_concatenate_to_full_transform(self, fitted):
        pipeline, holdout = fitted
        full = pipeline.preprocessor.transform(holdout)
        chunked = np.concatenate(
            list(pipeline.preprocessor.transform_chunks(holdout, chunk_size=123)), axis=0
        )
        np.testing.assert_array_equal(full, chunked)


# ---------------------------------------------------------------------------
# one validation core: hooks live in the core, report assembly in the engine
# ---------------------------------------------------------------------------
def modules_calling(names: set[str]) -> set[str]:
    """Modules of ``src/repro`` (paths relative to it) that call any of
    ``names``, as a function or a method. ``rules/`` and ``monitor/``
    define the hooks and ``baselines/`` holds the rule-only comparator,
    so they are not scanned."""
    root = Path(repro.__file__).parent
    found = set()
    for path in root.rglob("*.py"):
        module = path.relative_to(root).as_posix()
        if module.split("/")[0] in {"rules", "monitor", "baselines"}:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    found.add(module)
    return found


class TestOneValidationCore:
    def test_rules_and_monitor_hooks_are_called_only_by_the_core(self):
        hooks = {
            "apply_rules",
            "evaluate",
            "observe_matrix",
            "observe_table",
            "observe_flags",
            "observe_partial",
        }
        assert modules_calling(hooks) == {"runtime/streaming.py"}

    def test_reports_are_assembled_only_by_the_engine(self):
        assert modules_calling({"assemble_report"}) == {"runtime/engine.py"}


# ---------------------------------------------------------------------------
# serving layer
# ---------------------------------------------------------------------------
class TestValidationService:
    def test_load_validate_and_lru_evict(self, fitted, tmp_path):
        pipeline, holdout = fitted
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        pipeline.save(a)
        pipeline.save(b)
        with ValidationService(capacity=1) as service:
            service.register("a", a)
            service.register("b", b)
            report = service.validate("a", holdout)
            np.testing.assert_array_equal(report.row_flags, pipeline.validate(holdout).row_flags)
            assert service.resident == ["a"]
            service.validate("b", holdout)
            assert service.resident == ["b"]  # LRU evicted "a"
            stats = service.stats()
            assert stats["loads"] == 2 and stats["evictions"] == 1
            # Reload works straight from the archive, no clean table.
            service.validate("a", holdout)
            assert service.n_loads == 3

    def test_concurrent_dispatch_matches_serial(self, fitted, tmp_path):
        pipeline, holdout = fitted
        path = tmp_path / "p.npz"
        pipeline.save(path)
        batches = [make_table(200, seed=s) for s in range(4)]
        with ValidationService(capacity=2) as service, ThreadPoolExecutor(4) as pool:
            service.register("p", path)
            reports = list(pool.map(lambda batch: service.validate("p", batch), batches))
            for batch, report in zip(batches, reports):
                expected = pipeline.validate(batch)
                np.testing.assert_array_equal(report.row_flags, expected.row_flags)
                np.testing.assert_array_equal(report.sample_errors, expected.sample_errors)

    def test_directly_added_pipelines_are_pinned(self, fitted, tmp_path):
        pipeline, holdout = fitted
        path = tmp_path / "p.npz"
        pipeline.save(path)
        with ValidationService(capacity=1) as service:
            service.add("resident", pipeline)
            service.register("archived", path)
            service.validate("archived", holdout)
            assert "resident" in service.resident  # pinned entries survive pressure
            service.validate("resident", holdout)

    def test_evict_is_noop_for_pinned_entries(self, fitted):
        pipeline, _ = fitted
        with ValidationService(capacity=1) as service:
            service.add("pinned", pipeline)
            assert service.evict("pinned") is False
            assert "pinned" in service.resident
            assert service.evict("absent") is False

    def test_pinned_entries_do_not_consume_lru_capacity(self, fitted, tmp_path):
        # Two pinned pipelines + capacity 1: an archive-backed pipeline
        # must still get its slot instead of being crowded out.
        pipeline, holdout = fitted
        path = tmp_path / "p.npz"
        pipeline.save(path)
        with ValidationService(capacity=1) as service:
            service.add("pin_a", pipeline)
            service.add("pin_b", pipeline)
            service.register("archived", path)
            service.validate("archived", holdout)
            assert set(service.resident) == {"pin_a", "pin_b", "archived"}
            assert service.n_evictions == 0
            # Evicting the archive-backed entry still works.
            assert service.evict("archived") is True
            assert service.resident == ["pin_a", "pin_b"]

    def test_repair_dispatch(self, fitted, tmp_path):
        pipeline, holdout = fitted
        path = tmp_path / "p.npz"
        pipeline.save(path)
        dirty, _ = NumericAnomalyInjector(["y"], fraction=0.25).inject(holdout, rng=11)
        with ValidationService() as service:
            service.register("p", path)
            repaired, summary = service.repair("p", dirty, iterations=2)
            local_repaired, local_summary = service.get("p").repair(dirty, iterations=2)
            assert summary.n_cells_repaired == local_summary.n_cells_repaired
            np.testing.assert_array_equal(repaired["y"], local_repaired["y"])

    def test_per_pipeline_stats_and_snapshot(self, fitted, tmp_path):
        pipeline, holdout = fitted
        path = tmp_path / "p.npz"
        pipeline.save(path)
        with ValidationService() as service:
            service.register("archived", path)
            service.add("resident", pipeline)
            service.validate("archived", holdout)
            service.validate("resident", holdout)
            service.repair("resident", holdout)
            detail = service.pipeline_stats()
            assert detail["archived"]["loads"] == 1
            assert detail["archived"]["validations"] == 1
            assert detail["archived"]["rows_validated"] == holdout.n_rows
            assert detail["archived"]["source"] == str(path)
            assert detail["resident"]["pinned"] and detail["resident"]["repairs"] == 1
            snapshot = service.stats_snapshot()
            assert snapshot.validations == 2 and snapshot.repairs == 1
            assert snapshot.registered == 2
            # The snapshot is wire-encodable via the repro.api protocol.
            import json

            from repro.runtime.service import ServiceStats

            clone = ServiceStats.from_dict(json.loads(json.dumps(snapshot.to_dict())))
            assert clone == snapshot

    def test_counters_survive_eviction(self, fitted, tmp_path):
        pipeline, holdout = fitted
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        pipeline.save(a)
        pipeline.save(b)
        with ValidationService(capacity=1) as service:
            service.register("a", a)
            service.register("b", b)
            service.validate("a", holdout)
            service.validate("b", holdout)  # evicts "a"
            assert service.pipeline_stats()["a"]["validations"] == 1
            assert service.stats()["rows_validated"] == 2 * holdout.n_rows

    def test_unknown_pipeline_rejected(self):
        with ValidationService() as service:
            with pytest.raises(ReproError):
                service.get("nope")

    def test_reregister_resident_name_under_concurrent_get(self, fitted, tmp_path):
        # Hammer get() on a name while it is re-register()ed in between:
        # every get must return a working pipeline (old or new — never a
        # torn state), and the final load must come from the new archive.
        import threading

        pipeline, holdout = fitted
        a, b = tmp_path / "a.npz", tmp_path / "b.npz"
        pipeline.save(a)
        pipeline.save(b)
        with ValidationService(capacity=2) as service:
            service.register("p", a)
            errors: list[Exception] = []
            stop = threading.Event()

            def hammer():
                while not stop.is_set():
                    try:
                        service.get("p").validate(holdout.head(20))
                    except Exception as exc:  # pragma: no cover - failure path
                        errors.append(exc)
                        return

            threads = [threading.Thread(target=hammer) for _ in range(4)]
            for thread in threads:
                thread.start()
            for source in (b, a, b):
                service.register("p", source)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            assert not errors
            # The re-registration dropped any stale resident copy; the
            # next get() loads from the latest archive.
            service.get("p")
            with service._lock:
                assert service._entries["p"].source == b
            assert service.pipeline_stats()["p"]["loads"] >= 1

    def test_invalidated_load_serves_its_call_uncached(self, fitted, tmp_path, monkeypatch):
        # Every load is invalidated by a re-registration that lands while
        # it runs: get() still returns after one load, with that load,
        # and caches nothing stale; the next get() loads afresh.
        pipeline, _ = fitted
        path = tmp_path / "p.npz"
        pipeline.save(path)
        with ValidationService(capacity=2) as service:
            service.register("p", path)
            loaded = []

            def churned_load(self, source, *args, **kwargs):
                with service._lock:
                    service._generations["p"] += 1
                loaded.append(self)
                return self

            monkeypatch.setattr(DQuaG, "load_weights", churned_load)
            served = service.get("p")
            assert loaded == [served]
            assert service.resident == []
            assert service.pipeline_stats()["p"]["loads"] == 0

            monkeypatch.undo()
            assert service.get("p") is not served
            assert service.resident == ["p"]
            assert service.pipeline_stats()["p"]["loads"] == 1

    def test_invalidated_monitor_build_serves_its_call_uncached(self, fitted, tmp_path, monkeypatch):
        pipeline, _ = fitted
        path = tmp_path / "p.npz"
        pipeline.save(path)
        with ValidationService(capacity=2, monitor_window=4) as service:
            service.register("p", path)
            build = DQuaG.monitor

            def churned_build(self, *args, **kwargs):
                with service._lock:
                    service._generations["p"] += 1
                return build(self, *args, **kwargs)

            monkeypatch.setattr(DQuaG, "monitor", churned_build)
            raced = service.monitor_for("p")
            assert raced is not None
            assert service.monitor_snapshots() == {}  # nothing stale was cached
            monkeypatch.undo()
            fresh = service.monitor_for("p")
            assert fresh is not raced
            assert service.monitor_for("p") is fresh

    def test_concurrent_gets_share_invalidated_loads(self, fitted, tmp_path, monkeypatch):
        # Callers queued behind an invalidated load share it instead of
        # each repeating it.
        import threading
        import time

        pipeline, _ = fitted
        path = tmp_path / "p.npz"
        pipeline.save(path)
        n_callers = 8
        with ValidationService(capacity=2) as service:
            service.register("p", path)
            loaded = []

            def slow_churned_load(self, source, *args, **kwargs):
                time.sleep(0.05)  # long enough for every caller to queue
                with service._lock:
                    service._generations["p"] += 1
                loaded.append(self)
                return self

            monkeypatch.setattr(DQuaG, "load_weights", slow_churned_load)
            barrier = threading.Barrier(n_callers)
            served = []

            def call() -> None:
                barrier.wait(timeout=30)
                served.append(service.get("p"))

            threads = [threading.Thread(target=call) for _ in range(n_callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive(), "get() deadlocked"
            assert len(served) == n_callers
            assert all(any(p is q for q in loaded) for p in served)
            # Every load is invalidated, so without sharing each caller
            # loads exactly once.
            assert len(loaded) < n_callers
            assert service.resident == []

    def test_eviction_order_with_mixed_pinned_and_unpinned(self, fitted, tmp_path):
        # Pinned entries are invisible to the LRU: with capacity 2 and an
        # interleaved pinned entry, the eviction victim must be the
        # least-recently-used *unpinned* entry, in usage (not insertion)
        # order.
        pipeline, holdout = fitted
        paths = {}
        for name in ("u1", "u2", "u3"):
            paths[name] = tmp_path / f"{name}.npz"
            pipeline.save(paths[name])
        with ValidationService(capacity=2) as service:
            service.add("pin", pipeline)
            for name in ("u1", "u2"):
                service.register(name, paths[name])
                service.validate(name, holdout.head(10))
            service.validate("u1", holdout.head(10))  # u1 becomes MRU
            service.register("u3", paths["u3"])
            service.validate("u3", holdout.head(10))  # over capacity: evict u2
            assert "pin" in service.resident
            assert set(service.resident) == {"pin", "u1", "u3"}
            assert service.n_evictions == 1

    def test_lifetime_counters_survive_eviction_and_reregistration(self, fitted, tmp_path):
        pipeline, holdout = fitted
        path = tmp_path / "p.npz"
        pipeline.save(path)
        with ValidationService(capacity=1) as service:
            service.register("p", path)
            service.validate("p", holdout.head(30))
            assert service.evict("p") is True
            service.register("p", path)  # fresh registration of the same name
            service.validate("p", holdout.head(30))
            stats = service.pipeline_stats()["p"]
            assert stats["validations"] == 2
            assert stats["rows_validated"] == 60
            assert stats["loads"] == 2  # one load per residency

    def test_unknown_archive_rejected(self, tmp_path):
        with ValidationService() as service:
            with pytest.raises(ReproError):
                service.register("x", tmp_path / "missing.npz")


# ---------------------------------------------------------------------------
# persistence satellites
# ---------------------------------------------------------------------------
class TestPersistence:
    def test_future_categories_survive_reload(self, tmp_path):
        train = make_table(400, seed=0)
        config = DQuaGConfig(hidden_dim=16, epochs=4, batch_size=64)
        pipeline = DQuaG(config).fit(
            train, rng=0, future_categories={"c": ["mid", "unknown_band"]}
        )
        path = tmp_path / "p.npz"
        pipeline.save(path)

        clone = DQuaG().load_weights(path)  # no clean table needed
        assert (
            clone.preprocessor.label_encoder("c").classes_
            == pipeline.preprocessor.label_encoder("c").classes_
        )
        assert "mid" in clone.preprocessor.label_encoder("c").classes_
        assert clone._future_categories == {"c": ["mid", "unknown_band"]}

        # A table exercising the anticipated category encodes identically.
        probe = make_table(300, seed=7)
        half = probe.n_rows // 2
        category = probe.column("c").copy()
        category[:half] = "mid"
        probe = probe.with_column("c", category)
        original = pipeline.validate(probe)
        restored = clone.validate(probe)
        np.testing.assert_array_equal(original.row_flags, restored.row_flags)
        np.testing.assert_array_equal(original.sample_errors, restored.sample_errors)

    def test_reload_does_not_depend_on_clean_table_statistics(self, fitted, tmp_path):
        pipeline, holdout = fitted
        path = tmp_path / "p.npz"
        pipeline.save(path)
        clone = DQuaG().load_weights(path)
        np.testing.assert_array_equal(
            clone.preprocessor.transform(holdout), pipeline.preprocessor.transform(holdout)
        )
        # Repair centers ride along in the archive too.
        np.testing.assert_array_equal(
            clone._repair_engine.clean_column_centers,
            pipeline._repair_engine.clean_column_centers,
        )

    def test_preprocessor_metadata_roundtrip(self, fitted):
        pipeline, holdout = fitted
        payload = pipeline.preprocessor.to_metadata()
        restored = TablePreprocessor.from_metadata(payload)
        np.testing.assert_array_equal(
            restored.transform(holdout), pipeline.preprocessor.transform(holdout)
        )

    def test_pre_runtime_archive_rejected(self, tmp_path):
        # Simulate a v1 (seed-era) archive: valid payload, no format_version.
        import json

        path = tmp_path / "old.npz"
        save_state({"w": np.zeros(3)}, path, metadata={"config": {}})
        data = dict(np.load(path, allow_pickle=False))
        manifest = json.loads(bytes(data["__manifest__"]).decode("utf-8"))
        del manifest["format_version"]
        data["__manifest__"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        np.savez(path, **data)
        with pytest.raises(SerializationError, match="archive format"):
            load_state(path)
        with pytest.raises(SerializationError):
            DQuaG().load_weights(path)

    def test_future_format_rejected(self, tmp_path):
        import json

        path = tmp_path / "new.npz"
        save_state({"w": np.zeros(3)}, path)
        data = dict(np.load(path, allow_pickle=False))
        manifest = json.loads(bytes(data["__manifest__"]).decode("utf-8"))
        manifest["format_version"] = 99
        data["__manifest__"] = np.frombuffer(
            json.dumps(manifest).encode("utf-8"), dtype=np.uint8
        )
        np.savez(path, **data)
        with pytest.raises(SerializationError, match="newer"):
            load_state(path)


# ---------------------------------------------------------------------------
# config satellite
# ---------------------------------------------------------------------------
class TestFeatureThresholdPercentileConfig:
    def test_roundtrip_through_dict(self):
        config = DQuaGConfig(feature_threshold_percentile=97.5)
        clone = DQuaGConfig.from_dict(config.to_dict())
        assert clone.feature_threshold_percentile == 97.5
        assert clone == config

    def test_legacy_payload_defaults(self):
        payload = DQuaGConfig().to_dict()
        del payload["feature_threshold_percentile"]
        assert DQuaGConfig.from_dict(payload).feature_threshold_percentile == 99.5

    @pytest.mark.parametrize("bad", [0.0, 100.0, -1.0, 120.0])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            DQuaGConfig(feature_threshold_percentile=bad)

    def test_percentile_feeds_feature_thresholds(self):
        # A lower percentile yields lower (or equal) per-feature thresholds.
        strict = fit_small(feature_threshold_percentile=80.0)
        lax = fit_small(feature_threshold_percentile=99.9)
        assert (
            strict._validator.feature_thresholds <= lax._validator.feature_thresholds + 1e-12
        ).all()
