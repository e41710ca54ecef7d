"""Sharded parallel validation: planner geometry, multi-process parity
with the one-shot path, and the pipeline/service wiring.

Pool spawns are expensive (each worker re-imports the package), so the
tests share module-scoped executors and keep worker counts small; the
parity claims are shard-count claims, not pool-size claims — results are
identical for any worker count by construction.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import DQuaG, DQuaGConfig
from repro.data import ColumnKind, ColumnSpec, Table, TableSchema, read_csv_chunks, write_csv
from repro.exceptions import ReproError, SchemaError, ValidationError
from repro.runtime import ParallelValidator, Shard, ShardPlanner, ValidationService
from repro.runtime.streaming import StreamSummary


def make_table(n: int, seed: int) -> Table:
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


@pytest.fixture(scope="module")
def fitted() -> tuple[DQuaG, Table]:
    train = make_table(500, seed=0)
    config = DQuaGConfig(hidden_dim=16, epochs=6, batch_size=64)
    pipeline = DQuaG(config).fit(train, rng=0)
    return pipeline, make_table(1100, seed=2)


@pytest.fixture(scope="module")
def parallel(fitted):
    pipeline, _ = fitted
    with ParallelValidator.from_pipeline(
        pipeline, workers=2, chunk_size=256, chunks_per_shard=2
    ) as validator:
        yield validator


# ---------------------------------------------------------------------------
# planner geometry (no processes involved)
# ---------------------------------------------------------------------------
class TestShardPlanner:
    def test_plan_is_chunk_aligned_and_covers_all_rows(self):
        planner = ShardPlanner(chunk_size=100)
        shards = planner.plan(1050, shards=4)
        assert [s.offset for s in shards] == [0, 300, 600, 900]
        assert sum(s.n_rows for s in shards) == 1050
        assert all(s.offset % 100 == 0 for s in shards)
        assert shards[-1].stop == 1050

    def test_plan_never_exceeds_chunk_count(self):
        planner = ShardPlanner(chunk_size=100)
        shards = planner.plan(150, shards=8)  # only 2 chunks exist
        assert len(shards) == 2
        assert [(s.offset, s.n_rows) for s in shards] == [(0, 100), (100, 50)]

    def test_plan_single_shard_and_empty(self):
        planner = ShardPlanner(chunk_size=64)
        assert planner.plan(10, shards=1) == [Shard(index=0, offset=0, n_rows=10)]
        assert planner.plan(0, shards=4) == []

    def test_plan_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ShardPlanner(chunk_size=0)
        planner = ShardPlanner()
        with pytest.raises(ValueError):
            planner.plan(-1, shards=2)
        with pytest.raises(ValueError):
            planner.plan(10, shards=0)

    def test_split_table_reassembles_exactly(self):
        table = make_table(530, seed=7)
        planner = ShardPlanner(chunk_size=128)
        pieces = planner.split_table(table, shards=3)
        assert sum(piece.n_rows for _, piece in pieces) == table.n_rows
        rebuilt = Table.concat([piece for _, piece in pieces])
        for name in table.schema.names:
            np.testing.assert_array_equal(rebuilt.column(name), table.column(name))

    def test_stream_shards_regroup_exactly(self):
        table = make_table(700, seed=8)
        # Incoming chunks of awkward size 90; shards re-cut at 2×128 rows.
        chunks = [
            table.take(np.arange(i, min(i + 90, table.n_rows)))
            for i in range(0, table.n_rows, 90)
        ]
        planner = ShardPlanner(chunk_size=128)
        shards = list(planner.iter_stream_shards(iter(chunks), chunks_per_shard=2))
        offsets = [shard.offset for shard, _ in shards]
        assert offsets == sorted(offsets)
        assert all(offset % 256 == 0 for offset in offsets)
        assert sum(shard.n_rows for shard, _ in shards) == table.n_rows
        rebuilt = Table.concat([piece for _, piece in shards])
        np.testing.assert_array_equal(rebuilt.column("x"), table.column("x"))

    def test_stream_shards_accept_matrices(self):
        planner = ShardPlanner(chunk_size=10)
        matrix = np.arange(250, dtype=np.float64).reshape(50, 5)
        pieces = list(planner.iter_stream_shards(iter([matrix[:33], matrix[33:]]), chunks_per_shard=2))
        np.testing.assert_array_equal(np.concatenate([m for _, m in pieces]), matrix)

    def test_stream_shards_reject_mixed_kinds(self):
        planner = ShardPlanner(chunk_size=10)
        table = make_table(30, seed=1)
        with pytest.raises(ValidationError, match="mix"):
            list(planner.iter_stream_shards(iter([table, np.zeros((5, 4))])))

    def test_stream_shards_never_concatenate(self, monkeypatch):
        """Regression: the regroup used to re-concatenate every buffered
        chunk on each cut. It must now write into one pre-allocated
        buffer — no concat call may happen while the stream is consumed."""
        table = make_table(700, seed=9)
        chunks = [
            table.take(np.arange(i, min(i + 90, table.n_rows)))
            for i in range(0, table.n_rows, 90)
        ]
        planner = ShardPlanner(chunk_size=128)

        def boom(*args, **kwargs):
            raise AssertionError("stream regroup must not concatenate")

        with monkeypatch.context() as patch:
            patch.setattr(np, "concatenate", boom)
            patch.setattr(Table, "concat", staticmethod(boom))
            shards = list(planner.iter_stream_shards(iter(chunks), chunks_per_shard=2))
        assert sum(shard.n_rows for shard, _ in shards) == table.n_rows
        rebuilt = Table.concat([piece for _, piece in shards])
        np.testing.assert_array_equal(rebuilt.column("x"), table.column("x"))

    def test_stream_shards_allocation_count_is_constant(self, monkeypatch):
        """With ``reuse_buffer=True`` the whole stream allocates exactly
        one shard buffer (one array per column), independent of how many
        chunks or shards flow through."""
        table = make_table(1500, seed=10)
        chunks = [
            table.take(np.arange(i, min(i + 90, table.n_rows)))
            for i in range(0, table.n_rows, 90)
        ]
        planner = ShardPlanner(chunk_size=128)
        real_empty = np.empty
        allocations = []

        def counting_empty(*args, **kwargs):
            allocations.append(args)
            return real_empty(*args, **kwargs)

        consumed = 0
        with monkeypatch.context() as patch:
            patch.setattr(np, "empty", counting_empty)
            for shard, piece in planner.iter_stream_shards(
                iter(chunks), chunks_per_shard=2, reuse_buffer=True
            ):
                consumed += shard.n_rows  # consume before the next cut
        assert consumed == table.n_rows
        assert len(allocations) == len(table.schema.names)

    def test_stream_shards_reuse_buffer_shares_backing(self):
        table = make_table(600, seed=11)
        chunks = [
            table.take(np.arange(i, min(i + 90, table.n_rows)))
            for i in range(0, table.n_rows, 90)
        ]
        planner = ShardPlanner(chunk_size=128)
        stream = planner.iter_stream_shards(iter(chunks), chunks_per_shard=2, reuse_buffer=True)
        _, first = next(stream)
        first_x = first.column("x")
        first_values = first_x.copy()
        np.testing.assert_array_equal(first_values, table.column("x")[: first.n_rows])
        _, second = next(stream)
        # Same backing buffer: allocation-free, and the first view now
        # holds the second shard's rows — the documented consume-before-
        # advance contract.
        assert np.shares_memory(first_x, second.column("x"))
        np.testing.assert_array_equal(
            second.column("x"), table.column("x")[first.n_rows : first.n_rows + second.n_rows]
        )

    def test_stream_shards_promote_dtype_like_concat(self):
        """A later chunk with wider fixed-width strings regrows the
        column buffer to the promoted dtype, exactly as np.concatenate
        would have (CSV chunk readers hand out ``_wrap``-built tables
        whose string columns keep their fixed-width dtype)."""
        schema = TableSchema(
            [
                ColumnSpec("x", ColumnKind.NUMERIC, "driver"),
                ColumnSpec("c", ColumnKind.CATEGORICAL, "band", categories=("lo", "medium")),
            ]
        )
        narrow = Table._wrap(
            schema,
            {"x": np.arange(3.0), "c": np.array(["lo", "lo", "lo"])},
            3,
        )
        wide = Table._wrap(
            schema,
            {"x": np.arange(3.0, 6.0), "c": np.array(["medium", "medium", "medium"])},
            3,
        )
        planner = ShardPlanner(chunk_size=3)
        shards = list(planner.iter_stream_shards(iter([narrow, wide]), chunks_per_shard=2))
        assert len(shards) == 1
        merged = shards[0][1]
        assert merged.column("c").dtype == np.promote_types(
            narrow.column("c").dtype, wide.column("c").dtype
        )
        assert list(merged.column("c")) == ["lo", "lo", "lo", "medium", "medium", "medium"]


# ---------------------------------------------------------------------------
# multi-process parity with the one-shot path
# ---------------------------------------------------------------------------
class TestParallelParity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_report_bit_identical_across_shard_counts(self, fitted, parallel, shards):
        pipeline, holdout = fitted
        one_shot = pipeline.validate(holdout)
        sharded = parallel.validate_table(holdout, shards=shards, keep_cell_errors=True)
        np.testing.assert_array_equal(sharded.row_flags, one_shot.row_flags)
        np.testing.assert_array_equal(sharded.cell_flags, one_shot.cell_flags)
        np.testing.assert_array_equal(sharded.sample_errors, one_shot.sample_errors)
        np.testing.assert_array_equal(sharded.cell_errors, one_shot.cell_errors)
        assert sharded.threshold == one_shot.threshold
        assert sharded.flagged_fraction == one_shot.flagged_fraction
        assert sharded.is_problematic == one_shot.is_problematic
        assert sharded.feature_names == one_shot.feature_names

    def test_summary_identical_to_single_process_streaming(self, fitted, parallel):
        pipeline, holdout = fitted
        single = pipeline.streaming_validator(chunk_size=256).validate_table(holdout)
        sharded = parallel.validate_table(holdout, shards=3)
        assert isinstance(sharded, StreamSummary)
        # Shard boundaries are multiples of the chunk size, so the global
        # chunk partition — and with it every accumulated float — matches
        # the single-process fold bit for bit.
        assert sharded.n_rows == single.n_rows
        assert sharded.n_chunks == single.n_chunks
        assert sharded.n_flagged == single.n_flagged
        np.testing.assert_array_equal(sharded.flagged_rows, single.flagged_rows)
        assert sharded.flagged_cells_by_column == single.flagged_cells_by_column
        assert sharded.mean_sample_error == single.mean_sample_error
        assert sharded.max_sample_error == single.max_sample_error
        assert sharded.is_problematic == single.is_problematic

    def test_stream_of_tables_matches_one_shot_flags(self, fitted, parallel):
        pipeline, holdout = fitted
        one_shot = pipeline.validate(holdout)
        chunks = [
            holdout.take(np.arange(i, min(i + 100, holdout.n_rows)))
            for i in range(0, holdout.n_rows, 100)
        ]
        summary = parallel.validate_stream(iter(chunks))
        assert summary.n_rows == holdout.n_rows
        assert summary.n_flagged == one_shot.n_flagged
        np.testing.assert_array_equal(summary.flagged_rows, one_shot.flagged_rows)
        assert summary.is_problematic == one_shot.is_problematic

    def test_stream_from_csv_chunks(self, fitted, parallel, tmp_path):
        pipeline, holdout = fitted
        path = tmp_path / "holdout.csv"
        write_csv(holdout, path)
        summary = parallel.validate_stream(read_csv_chunks(path, holdout.schema, chunk_size=190))
        one_shot = pipeline.validate(holdout)
        assert summary.n_rows == holdout.n_rows
        assert summary.n_flagged == one_shot.n_flagged

    def test_stream_of_preprocessed_matrices(self, fitted, parallel):
        pipeline, holdout = fitted
        matrix = pipeline.preprocessor.transform(holdout)
        chunks = [matrix[i : i + 300] for i in range(0, matrix.shape[0], 300)]
        summary = parallel.validate_stream(iter(chunks))
        assert summary.n_flagged == pipeline.validate(holdout).n_flagged

    def test_wrong_matrix_width_raises_schema_error(self, parallel):
        with pytest.raises(SchemaError):
            parallel.validate_stream(iter([np.zeros((40, 99))]))

    def test_schema_mismatch_rejected_like_one_shot(self, parallel):
        # Same column names, different schema (extra category): workers
        # would silently rebuild under the trained schema — must raise
        # the same SchemaError as the one-shot path instead.
        table = make_table(64, seed=4)
        specs = [
            ColumnSpec(s.name, s.kind, s.description, categories=("lo", "hi", "mid"))
            if s.name == "c"
            else s
            for s in table.schema
        ]
        mismatched = Table(
            TableSchema(specs), {name: table.column(name) for name in table.schema.names}
        )
        with pytest.raises(SchemaError, match="does not match"):
            parallel.validate_table(mismatched)
        with pytest.raises(SchemaError, match="does not match"):
            parallel.validate_stream(iter([mismatched]))

    def test_empty_inputs_rejected_with_unified_message(self, fitted, parallel):
        _, holdout = fitted
        empty = holdout.take(np.arange(0))
        with pytest.raises(ValidationError, match="empty stream"):
            parallel.validate_table(empty)
        with pytest.raises(ValidationError, match="empty stream"):
            parallel.validate_stream(iter([]))

    def test_missing_archive_rejected(self, tmp_path):
        with pytest.raises(ReproError):
            ParallelValidator(tmp_path / "missing.npz")


# ---------------------------------------------------------------------------
# pipeline + service wiring
# ---------------------------------------------------------------------------
class TestPipelineIntegration:
    def test_dquag_validate_workers_matches_and_caches_pool(self, fitted):
        pipeline, holdout = fitted
        one_shot = pipeline.validate(holdout)
        sharded = pipeline.validate(holdout, workers=2)
        np.testing.assert_array_equal(sharded.row_flags, one_shot.row_flags)
        np.testing.assert_array_equal(sharded.cell_errors, one_shot.cell_errors)
        assert sharded.is_problematic == one_shot.is_problematic
        # Second call reuses the cached executor (and its temp archive);
        # a smaller worker count rides the same pool with fewer shards.
        first = pipeline.parallel_validator(2)
        assert pipeline.parallel_validator(2) is first
        assert pipeline.parallel_validator(1) is first
        archive = Path(first.archive)
        assert archive.exists()
        pipeline.validate(holdout, workers=2)
        pipeline.close_parallel()
        assert not archive.exists()  # temp archive reclaimed
        assert pipeline._parallel_validator is None
        # A closed executor refuses reuse with a clear error instead of
        # spawning workers against a reclaimed temp archive.
        with pytest.raises(ReproError, match="closed"):
            first.validate_table(holdout)

    def test_empty_table_with_workers_matches_one_shot(self, fitted):
        # The one-shot report for zero rows is well-defined; workers=N
        # must not turn it into an error (falls through in-process).
        pipeline, holdout = fitted
        empty = holdout.take(np.arange(0))
        one_shot = pipeline.validate(empty)
        sharded = pipeline.validate(empty, workers=2)
        np.testing.assert_array_equal(sharded.row_flags, one_shot.row_flags)
        assert sharded.is_problematic == one_shot.is_problematic
        with ValidationService(shard_workers=2) as service:
            service.add("p", pipeline)
            report = service.validate_sharded("p", empty, workers=2)
            assert report.row_flags.shape == (0,)
            assert service._shard_available == service.shard_workers

    def test_workers_one_stays_in_process(self, fitted):
        pipeline, holdout = fitted
        report = pipeline.validate(holdout, workers=1)
        np.testing.assert_array_equal(report.row_flags, pipeline.validate(holdout).row_flags)
        assert pipeline._parallel_validator is None

    def test_schema_mismatch_rejected_before_dispatch(self, fitted):
        pipeline, _ = fitted
        other = Table(
            TableSchema([ColumnSpec("only", ColumnKind.NUMERIC, "")]), {"only": np.zeros(4)}
        )
        with pytest.raises(SchemaError):
            pipeline.validate(other, workers=2)


class TestServiceSharding:
    def test_validate_sharded_matches_and_respects_budget(self, fitted, tmp_path):
        pipeline, holdout = fitted
        path = tmp_path / "p.npz"
        pipeline.save(path)
        with ValidationService(shard_workers=2) as service:
            service.register("p", path)
            expected = pipeline.validate(holdout)
            report = service.validate_sharded("p", holdout, workers=2)
            np.testing.assert_array_equal(report.row_flags, expected.row_flags)
            np.testing.assert_array_equal(report.cell_errors, expected.cell_errors)
            # Requests beyond the budget are clamped, not failed.
            report = service.validate_sharded("p", holdout, workers=64)
            np.testing.assert_array_equal(report.row_flags, expected.row_flags)
            assert service._shard_available == service.shard_workers  # fully released
            assert service.pipeline_stats()["p"]["validations"] == 2
            assert service.pipeline_stats()["p"]["rows_validated"] == 2 * holdout.n_rows

    def test_exhausted_budget_falls_back_in_process(self, fitted):
        pipeline, holdout = fitted
        with ValidationService(shard_workers=1) as service:
            service.add("pinned", pipeline)
            report = service.validate_sharded("pinned", holdout, workers=8)
            np.testing.assert_array_equal(
                report.row_flags, pipeline.validate(holdout).row_flags
            )
            assert service._parallel == {}  # no pool was ever built

    def test_stream_sharded_fallback_counts_traffic(self, fitted):
        pipeline, holdout = fitted
        chunks = [
            holdout.take(np.arange(i, min(i + 200, holdout.n_rows)))
            for i in range(0, holdout.n_rows, 200)
        ]
        with ValidationService(shard_workers=1) as service:
            service.add("pinned", pipeline)
            summary = service.validate_stream_sharded("pinned", iter(chunks), workers=4)
            assert summary.n_rows == holdout.n_rows
            assert service.pipeline_stats()["pinned"]["rows_validated"] == holdout.n_rows

    def test_invalidated_pool_build_serves_in_process(self, fitted, tmp_path, monkeypatch):
        # Every pool build is invalidated by a re-registration that lands
        # while it runs: the build is closed and never cached, and the
        # request is served in process after exactly that one build.
        from repro.runtime.streaming import StreamingValidator

        pipeline, holdout = fitted
        path = tmp_path / "p.npz"
        pipeline.save(path)
        chunks = [
            holdout.take(np.arange(i, min(i + 200, holdout.n_rows)))
            for i in range(0, holdout.n_rows, 200)
        ]
        expected = pipeline.validate(holdout)
        expected_stream = StreamingValidator(pipeline._require_validator()).validate_stream(
            iter(chunks)
        )
        with ValidationService(shard_workers=2) as service:
            service.register("p", path)
            build = ParallelValidator.from_pipeline.__func__
            built = []

            def churned_build(cls, *args, **kwargs):
                parallel = build(cls, *args, **kwargs)
                with service._lock:
                    service._generations["p"] += 1
                built.append(parallel)
                return parallel

            monkeypatch.setattr(ParallelValidator, "from_pipeline", classmethod(churned_build))
            report = service.validate_sharded("p", holdout, workers=2)
            assert len(built) == 1 and built[0]._closed
            assert service._parallel == {}
            np.testing.assert_array_equal(report.row_flags, expected.row_flags)
            np.testing.assert_array_equal(report.cell_errors, expected.cell_errors)
            assert report.is_problematic == expected.is_problematic

            summary = service.validate_stream_sharded("p", iter(chunks), workers=2)
            assert len(built) == 2 and built[1]._closed
            assert service._parallel == {}
            assert summary.n_chunks == expected_stream.n_chunks == len(chunks)
            np.testing.assert_array_equal(summary.flagged_rows, expected_stream.flagged_rows)
            assert summary.is_problematic == expected_stream.is_problematic
            assert summary.max_sample_error == expected_stream.max_sample_error
            assert service._shard_available == service.shard_workers
            assert service.pipeline_stats()["p"]["validations"] == 2

    def test_reregister_closes_stale_shard_pools(self, fitted, tmp_path):
        pipeline, holdout = fitted
        path = tmp_path / "p.npz"
        pipeline.save(path)
        with ValidationService(shard_workers=2) as service:
            service.register("p", path)
            service.validate_sharded("p", holdout, workers=2)
            assert service._parallel
            service.register("p", path)  # same archive, fresh registration
            assert service._parallel == {}

    def test_readd_closes_stale_shard_pools(self, fitted):
        pipeline, holdout = fitted
        with ValidationService(shard_workers=2) as service:
            service.add("pinned", pipeline)
            service.validate_sharded("pinned", holdout, workers=2)
            assert service._parallel
            generation = service._generations["pinned"]
            service.add("pinned", pipeline)  # replacement pipeline
            assert service._parallel == {}
            assert service._generations["pinned"] == generation + 1
