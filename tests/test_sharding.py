"""Row shards: the router's chunk ranges and the shard fold's parity
with the one-shot path.

A router scatters a table or stream as contiguous ranges of whole
chunks, has each range validated apart (offsets local to the range), and
folds the returned partial reports. These tests run that fold in
process, through the router's ``_chunk_ranges`` split and the
validation core, and pin that its result is the one-shot result for any
shard count — the row-locality of the §3.2.1 decisions is what makes it
exact.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DQuaG, DQuaGConfig
from repro.data import ColumnKind, ColumnSpec, Table, TableSchema, read_csv_chunks, write_csv
from repro.exceptions import SchemaError, ValidationError
from repro.runtime import PartialReport
from repro.runtime.streaming import StreamSummary
from repro.serve.router import _chunk_ranges

#: the validation chunk the folds below cut shards into
CHUNK_SIZE = 256


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


def fold_shards(pipeline, chunks, shards: int, keep_cell_errors: bool = False):
    """A router's scatter, in process: ``chunks`` cut into ``shards``
    contiguous ranges of whole chunks, every range validated apart
    (offsets local to it), the partials shifted to global offsets and
    folded — merged into the dense report with ``keep_cell_errors``."""
    core = pipeline.streaming_validator(keep_cell_errors=keep_cell_errors)
    chunks = list(chunks)
    partials: "list[PartialReport]" = []
    start = 0
    for first, stop in _chunk_ranges(len(chunks), shards):
        local = list(core.iter_partials(chunks[first:stop]))
        for partial in local:
            partial.offset += start
        start += sum(partial.n_rows for partial in local)
        partials.extend(local)
    if not keep_cell_errors:
        return core.fold(iter(partials))
    engine = core.validator
    return PartialReport.merge(
        partials,
        threshold=engine.calibration.threshold,
        rule=engine.rule,
        feature_names=list(engine.preprocessor.schema.names),
    )


def table_chunks(table: Table, size: int = CHUNK_SIZE) -> "list[Table]":
    return [table.slice_rows(start, start + size) for start in range(0, table.n_rows, size)]


# ---------------------------------------------------------------------------
# chunk-range geometry (no processes involved)
# ---------------------------------------------------------------------------
class TestChunkRanges:
    def test_ranges_are_balanced_and_cover_every_chunk(self):
        # 11 chunks over 4 replicas: the first 11 % 4 ranges take one more
        assert _chunk_ranges(11, 4) == [(0, 3), (3, 6), (6, 9), (9, 11)]
        assert _chunk_ranges(12, 4) == [(0, 3), (3, 6), (6, 9), (9, 12)]

    def test_ranges_never_exceed_chunk_count(self):
        assert _chunk_ranges(2, 8) == [(0, 1), (1, 2)]  # only 2 chunks exist

    def test_single_replica_and_no_chunks(self):
        assert _chunk_ranges(10, 1) == [(0, 10)]
        assert _chunk_ranges(0, 4) == []

    def test_split_table_reassembles_exactly(self):
        table = make_table(530, seed=7)
        chunks = table_chunks(table, 128)
        pieces = [Table.concat(chunks[first:stop]) for first, stop in _chunk_ranges(len(chunks), 3)]
        assert [piece.n_rows for piece in pieces] == [256, 256, 18]
        rebuilt = Table.concat(pieces)
        for name in table.schema.names:
            np.testing.assert_array_equal(rebuilt.column(name), table.column(name))


# ---------------------------------------------------------------------------
# shard-fold parity with the one-shot path
# ---------------------------------------------------------------------------
class TestParallelParity:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_report_bit_identical_across_shard_counts(self, fitted, shards):
        pipeline, holdout = fitted
        one_shot = pipeline.validate(holdout)
        sharded = fold_shards(pipeline, table_chunks(holdout), shards, keep_cell_errors=True)
        np.testing.assert_array_equal(sharded.row_flags, one_shot.row_flags)
        np.testing.assert_array_equal(sharded.cell_flags, one_shot.cell_flags)
        np.testing.assert_array_equal(sharded.sample_errors, one_shot.sample_errors)
        np.testing.assert_array_equal(sharded.cell_errors, one_shot.cell_errors)
        assert sharded.threshold == one_shot.threshold
        assert sharded.flagged_fraction == one_shot.flagged_fraction
        assert sharded.is_problematic == one_shot.is_problematic
        assert sharded.feature_names == one_shot.feature_names

    def test_summary_identical_to_single_process_streaming(self, fitted):
        pipeline, holdout = fitted
        single = pipeline.streaming_validator(chunk_size=256).validate_table(holdout)
        sharded = fold_shards(pipeline, table_chunks(holdout), 3)
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

    def test_stream_of_tables_matches_one_shot_flags(self, fitted):
        pipeline, holdout = fitted
        one_shot = pipeline.validate(holdout)
        chunks = [
            holdout.take(np.arange(i, min(i + 100, holdout.n_rows)))
            for i in range(0, holdout.n_rows, 100)
        ]
        summary = fold_shards(pipeline, chunks, 2)
        assert summary.n_rows == holdout.n_rows
        assert summary.n_flagged == one_shot.n_flagged
        np.testing.assert_array_equal(summary.flagged_rows, one_shot.flagged_rows)
        assert summary.is_problematic == one_shot.is_problematic

    def test_stream_from_csv_chunks(self, fitted, tmp_path):
        pipeline, holdout = fitted
        path = tmp_path / "holdout.csv"
        write_csv(holdout, path)
        summary = fold_shards(pipeline, read_csv_chunks(path, holdout.schema, chunk_size=190), 2)
        one_shot = pipeline.validate(holdout)
        assert summary.n_rows == holdout.n_rows
        assert summary.n_flagged == one_shot.n_flagged

    def test_stream_of_preprocessed_matrices(self, fitted):
        pipeline, holdout = fitted
        matrix = pipeline.preprocessor.transform(holdout)
        chunks = [matrix[i : i + 300] for i in range(0, matrix.shape[0], 300)]
        summary = fold_shards(pipeline, chunks, 2)
        assert summary.n_flagged == pipeline.validate(holdout).n_flagged

    def test_wrong_matrix_width_raises_schema_error(self, fitted):
        pipeline, _ = fitted
        with pytest.raises(SchemaError):
            fold_shards(pipeline, [np.zeros((40, 99))], 2)

    def test_schema_mismatch_rejected_like_one_shot(self, fitted):
        # Same column names, different schema (extra category): a shard
        # must raise the same SchemaError as the one-shot path rather
        # than validate under the trained schema.
        pipeline, _ = fitted
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
            fold_shards(pipeline, [mismatched], 1, keep_cell_errors=True)
        with pytest.raises(SchemaError, match="does not match"):
            fold_shards(pipeline, [mismatched], 2)

    def test_empty_inputs_rejected_with_unified_message(self, fitted):
        pipeline, holdout = fitted
        empty = holdout.take(np.arange(0))
        with pytest.raises(ValidationError, match="empty stream"):
            fold_shards(pipeline, table_chunks(empty), 2, keep_cell_errors=True)
        with pytest.raises(ValidationError, match="empty stream"):
            fold_shards(pipeline, [], 2)
