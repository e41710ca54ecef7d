"""Integration tests for the end-to-end DQuaG pipeline.

A small synthetic dataset with a strong feature dependency is used so a
tiny model (few epochs, small hidden dim) trains in seconds while still
demonstrating detection, cell localization, and repair.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core import DQuaG, DQuaGConfig
from repro.core.repair import RepairEngine, RepairSummary
from repro.data import ColumnKind, ColumnSpec, Table, TableSchema
from repro.data.preprocess import TablePreprocessor
from repro.errors import MissingValueInjector, NumericAnomalyInjector, RowRuleConflictInjector
from repro.exceptions import NotFittedError, SchemaError


def make_dependent_table(n: int, seed: int) -> Table:
    """x, y = 2x, z = 1-x, plus a category determined by x."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.1, 0.9, n)
    schema = TableSchema(
        [
            ColumnSpec("x", ColumnKind.NUMERIC, "driver"),
            ColumnSpec("y", ColumnKind.NUMERIC, "2x + noise"),
            ColumnSpec("z", ColumnKind.NUMERIC, "1 - x + noise"),
            ColumnSpec("c", ColumnKind.CATEGORICAL, "sign of x - 0.5", categories=("lo", "hi")),
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
    train = make_dependent_table(600, seed=0)
    calib = make_dependent_table(800, seed=1)
    config = DQuaGConfig(hidden_dim=24, epochs=30, batch_size=32, feature_embedding_dim=4)
    pipeline = DQuaG(config).fit(train, rng=0, calibration_table=calib)
    # A holdout large enough that the 6% dataset cutoff sits ~2σ above
    # the expected 5% clean flag rate (binomial noise shrinks with n).
    holdout = make_dependent_table(1500, seed=2)
    return pipeline, holdout


class TestFitValidate:
    def test_unfitted_raises(self):
        pipeline = DQuaG(DQuaGConfig(hidden_dim=8, epochs=1))
        with pytest.raises(NotFittedError):
            pipeline.validate(make_dependent_table(10, seed=3))

    def test_clean_holdout_not_problematic(self, fitted):
        pipeline, holdout = fitted
        report = pipeline.validate(holdout)
        assert not report.is_problematic
        assert report.flagged_fraction < 0.10

    def test_anomalies_detected(self, fitted):
        pipeline, holdout = fitted
        dirty, truth = NumericAnomalyInjector(["y"], fraction=0.2).inject(holdout, rng=5)
        report = pipeline.validate(dirty)
        assert report.is_problematic
        # Most corrupted rows are flagged.
        flagged = set(report.flagged_rows.tolist())
        dirty_rows = set(np.flatnonzero(truth.row_mask).tolist())
        recall = len(flagged & dirty_rows) / len(dirty_rows)
        assert recall > 0.9

    def test_missing_detected(self, fitted):
        pipeline, holdout = fitted
        dirty, _ = MissingValueInjector(["z"], fraction=0.2).inject(holdout, rng=6)
        assert pipeline.validate(dirty).is_problematic

    def test_hidden_conflict_detected(self, fitted):
        pipeline, holdout = fitted
        # Values stay in-range individually; the (x, c) pair becomes wrong.
        injector = RowRuleConflictInjector(
            transform=lambda row, rng: {"c": "lo" if row["c"] == "hi" else "hi"},
            touched_columns=["c"],
            fraction=0.3,
        )
        dirty, _ = injector.inject(holdout, rng=7)
        assert pipeline.validate(dirty).is_problematic

    def test_cell_localization(self, fitted):
        pipeline, holdout = fitted
        dirty, truth = NumericAnomalyInjector(["y"], fraction=0.2).inject(holdout, rng=8)
        report = pipeline.validate(dirty)
        y_index = holdout.schema.index_of("y")
        flagged_cells = report.cell_flags
        # Of the cells flagged in column y, most are truly corrupted.
        hits = flagged_cells[:, y_index] & truth.cell_mask[:, y_index]
        assert hits.sum() >= 0.7 * flagged_cells[:, y_index].sum() > 0

    def test_flagged_features_of(self, fitted):
        pipeline, holdout = fitted
        dirty, truth = NumericAnomalyInjector(["y"], fraction=0.3).inject(holdout, rng=9)
        report = pipeline.validate(dirty)
        some_dirty_row = int(np.flatnonzero(truth.row_mask & report.row_flags)[0])
        assert "y" in report.flagged_features_of(some_dirty_row)

    def test_schema_mismatch_rejected(self, fitted):
        pipeline, holdout = fitted
        with pytest.raises(SchemaError):
            pipeline.validate(holdout.select(["x", "y"]))

    def test_validate_batch_interface(self, fitted):
        pipeline, holdout = fitted
        verdict = pipeline.validate_batch(holdout.sample(500, rng=1))
        assert not verdict.is_problematic
        assert verdict.score < 0.10
        assert "threshold" in verdict.details

    def test_validate_batch_summary_is_structured(self, fitted):
        # details["summary"] is the JSON-ready protocol dict, not a
        # pre-rendered string; summary() renders it for humans.
        import json

        pipeline, holdout = fitted
        verdict = pipeline.validate_batch(holdout.sample(500, rng=1))
        summary = verdict.details["summary"]
        assert isinstance(summary, dict)
        assert summary["kind"] == "verdict_summary"
        assert summary["n_rows"] == 500
        assert summary["is_problematic"] == verdict.is_problematic
        json.dumps(summary)  # must be JSON-native as-is
        assert "rows flagged" in verdict.summary()


class TestRepair:
    def test_repair_reduces_flagged_fraction(self, fitted):
        pipeline, holdout = fitted
        dirty, _ = NumericAnomalyInjector(["y"], fraction=0.2).inject(holdout, rng=11)
        report = pipeline.validate(dirty)
        repaired, summary = pipeline.repair(dirty, report, iterations=2)
        after = pipeline.validate(repaired)
        assert after.flagged_fraction < report.flagged_fraction / 2
        assert summary.n_cells_repaired > 0

    def test_repaired_numeric_values_plausible(self, fitted):
        pipeline, holdout = fitted
        dirty, truth = NumericAnomalyInjector(["y"], fraction=0.2).inject(holdout, rng=12)
        report = pipeline.validate(dirty)
        repaired, _ = pipeline.repair(dirty, report)
        rows = np.flatnonzero(truth.cell_mask[:, holdout.schema.index_of("y")] & report.row_flags)
        # Repaired y should approximate the true relationship y = 2x.
        expected = 2.0 * repaired["x"][rows]
        errors = np.abs(repaired["y"][rows] - expected)
        assert np.median(errors) < 0.25

    def test_missing_cells_always_repaired(self, fitted):
        pipeline, holdout = fitted
        dirty, _ = MissingValueInjector(["z"], fraction=0.2).inject(holdout, rng=13)
        report = pipeline.validate(dirty)
        repaired, _ = pipeline.repair(dirty, report)
        assert not np.isnan(repaired["z"]).any()

    def test_untouched_cells_preserved_exactly(self, fitted):
        pipeline, holdout = fitted
        dirty, _ = NumericAnomalyInjector(["y"], fraction=0.1).inject(holdout, rng=14)
        report = pipeline.validate(dirty)
        repaired, _ = pipeline.repair(dirty, report)
        untouched = ~(report.cell_flags[:, holdout.schema.index_of("x")])
        np.testing.assert_array_equal(repaired["x"][untouched], dirty["x"][untouched])

    def test_invalid_iterations(self, fitted):
        pipeline, holdout = fitted
        with pytest.raises(ValueError):
            pipeline.repair(holdout, iterations=0)


def loop_snap(preprocessor: TablePreprocessor, name: str, scaled_values) -> list[str]:
    """Reference snap: the nearest valid category, one value at a time."""
    positions = preprocessor.valid_code_positions(name)
    classes = preprocessor.label_encoder(name).classes_
    return [classes[int(np.argmin(np.abs(positions - value)))] for value in scaled_values]


def full_matrix_repair(repairer: RepairEngine, table: Table, report) -> tuple[Table, RepairSummary]:
    """Reference repair: proposals for every row of the table, categorical
    proposals snapped by :func:`loop_snap`, the result re-normalized by
    the ``Table`` constructor."""
    cell_flags = np.asarray(report.cell_flags, dtype=bool) | table.missing_mask()
    matrix = repairer.preprocessor.compile().transform(table)
    masked = matrix.copy()
    masked[cell_flags] = np.broadcast_to(repairer.clean_column_centers, matrix.shape)[cell_flags]
    model = repairer.model if repairer.engine is None else repairer.engine
    proposals = model.repair_values(masked)
    columns: dict[str, np.ndarray] = {}
    by_column: dict[str, int] = {}
    for j, spec in enumerate(table.schema):
        rows = np.flatnonzero(cell_flags[:, j])
        column = table.column(spec.name).copy()
        if rows.size:
            if spec.is_categorical:
                snapped = loop_snap(repairer.preprocessor, spec.name, proposals[rows, j])
                for row, value in zip(rows, snapped):
                    column[row] = value
            else:
                normalizer = repairer.preprocessor.normalizer(spec.name)
                column[rows] = normalizer.inverse_transform(proposals[rows, j])
            by_column[spec.name] = int(rows.size)
        columns[spec.name] = column
    summary = RepairSummary(
        n_rows_touched=int(cell_flags.any(axis=1).sum()),
        n_cells_repaired=int(cell_flags.sum()),
        repairs_by_column=by_column,
    )
    return Table(table.schema, columns), summary


def assert_same_repair(actual, expected) -> None:
    """Bit-identical tables (cell types included) and equal summaries."""
    (table, summary), (want_table, want_summary) = actual, expected
    assert table.schema == want_table.schema and table.n_rows == want_table.n_rows
    for spec in want_table.schema:
        got, want = table.column(spec.name), want_table.column(spec.name)
        assert got.dtype == want.dtype, spec.name
        if spec.is_numeric:
            assert got.tobytes() == want.tobytes(), spec.name
        else:
            assert [(type(v), v) for v in got] == [(type(v), v) for v in want], spec.name
    assert summary == want_summary
    assert list(summary.repairs_by_column) == list(want_summary.repairs_by_column)


class CountingEngine:
    """A compiled engine that records how many rows each repair pass sends."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.rows_sent: list[int] = []

    def repair_values(self, matrix: np.ndarray) -> np.ndarray:
        self.rows_sent.append(matrix.shape[0])
        return self.engine.repair_values(matrix)


def repair_case(case: str, pipeline: DQuaG, holdout: Table):
    """A (table, report) pair that touches the rows ``case`` names."""
    if case == "clean":
        table = holdout
    elif case == "missing_only":
        table, _ = MissingValueInjector(["z", "c"], fraction=0.15).inject(holdout, rng=21)
    else:
        table, _ = NumericAnomalyInjector(["y"], fraction=0.2).inject(holdout, rng=22)
    report = pipeline.validate(table)
    if case in ("clean", "missing_only"):
        flags = np.zeros_like(report.cell_flags)
    elif case == "every_row":
        rng = np.random.default_rng(23)
        flags = rng.random(report.cell_flags.shape) < 0.2
        flags[np.arange(table.n_rows), rng.integers(0, table.n_columns, table.n_rows)] = True
    else:
        flags = report.cell_flags
    return table, dataclasses.replace(report, cell_flags=flags)


class TestRowSelectiveRepair:
    """Repair proposes values only for touched rows (a flagged or missing
    cell), bit-identical to proposing them for the whole table."""

    @pytest.mark.parametrize("case", ["clean", "missing_only", "flagged", "every_row"])
    def test_matches_full_matrix_repair(self, fitted, case):
        pipeline, holdout = fitted
        table, report = repair_case(case, pipeline, holdout)
        reference = pipeline._repair_engine
        counting = CountingEngine(reference.engine)
        repairer = RepairEngine(
            pipeline.model, pipeline.preprocessor, reference.clean_column_centers, engine=counting
        )
        repaired, summary = repairer.repair(table, report)
        assert_same_repair((repaired, summary), full_matrix_repair(reference, table, report))
        touched = int((report.cell_flags | table.missing_mask()).any(axis=1).sum())
        assert summary.n_rows_touched == touched
        assert counting.rows_sent == ([touched] if touched else [])
        if case == "every_row":
            assert touched == table.n_rows
        if case == "clean":
            assert summary.n_cells_repaired == 0

    @pytest.mark.parametrize("case", ["missing_only", "flagged"])
    def test_autograd_fallback_matches_full_matrix_repair(self, fitted, case):
        pipeline, holdout = fitted
        table, report = repair_case(case, pipeline, holdout)
        autograd = RepairEngine(
            pipeline.model, pipeline.preprocessor, pipeline._repair_engine.clean_column_centers
        )
        assert autograd.engine is None
        assert_same_repair(autograd.repair(table, report), full_matrix_repair(autograd, table, report))

    def test_iterated_repair_matches_full_matrix_repair(self, fitted, monkeypatch):
        pipeline, holdout = fitted
        table, report = repair_case("flagged", pipeline, holdout)
        actual = pipeline.repair(table, report, iterations=2)
        repairer = pipeline._repair_engine
        monkeypatch.setattr(
            repairer, "repair", lambda t, r: full_matrix_repair(repairer, t, r)
        )
        assert_same_repair(actual, pipeline.repair(table, report, iterations=2))

    def test_vectorised_snap_matches_loop_on_ties_and_nan(self):
        categories = ("a", "b", "c", "d", "e")
        schema = TableSchema([ColumnSpec("k", ColumnKind.CATEGORICAL, "five codes", categories)])
        preprocessor = TablePreprocessor(schema).fit(Table(schema, {"k": list(categories)}))
        positions = preprocessor.valid_code_positions("k")
        midpoints = (positions[:-1] + positions[1:]) / 2
        # Exact ties: every midpoint is equally far from both neighbours.
        assert np.array_equal(midpoints - positions[:-1], positions[1:] - midpoints)
        values = np.concatenate(
            [midpoints, positions, [np.nan, -np.inf, np.inf, -1.0, 2.0, np.nan], midpoints[::-1]]
        )
        snapped = RepairEngine(None, preprocessor)._snap_categorical("k", values)
        expected = loop_snap(preprocessor, "k", values)
        assert [(type(v), v) for v in snapped] == [(type(v), v) for v in expected]
        assert snapped[: len(midpoints)].tolist() == list(categories[:-1])  # ties go low


class TestPersistence:
    def test_save_load_roundtrip(self, fitted, tmp_path):
        pipeline, holdout = fitted
        path = tmp_path / "dquag.npz"
        pipeline.save(path)

        train = make_dependent_table(600, seed=0)
        clone = DQuaG().load_weights(path, train)
        original = pipeline.validate(holdout)
        restored = clone.validate(holdout)
        np.testing.assert_allclose(original.sample_errors, restored.sample_errors)
        assert restored.threshold == original.threshold

    def test_save_unfitted_rejected(self, tmp_path):
        with pytest.raises(NotFittedError):
            DQuaG().save(tmp_path / "x.npz")

    def test_graph2vec_roundtrip_exact(self, tmp_path):
        # Regression: the graph2vec projection is not trained, but it must
        # survive (de)serialization — a reloaded pipeline with a different
        # projection silently invalidates its calibration.
        train = make_dependent_table(400, seed=0)
        config = DQuaGConfig(architecture="graph2vec", hidden_dim=16, epochs=4)
        pipeline = DQuaG(config).fit(train, rng=0)
        path = tmp_path / "g2v.npz"
        pipeline.save(path)
        clone = DQuaG().load_weights(path, train)
        holdout = make_dependent_table(200, seed=1)
        np.testing.assert_allclose(
            pipeline.validate(holdout).sample_errors,
            clone.validate(holdout).sample_errors,
        )
