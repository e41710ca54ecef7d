"""Unit tests for the compiled preprocessing plan and its satellites.

Covers :class:`repro.data.plan.TransformPlan` edge cases (all-missing
columns, unknown-only categoricals, degenerate constant numerics, empty
chunks), the zero-copy :meth:`Table.slice_rows` view, the vectorized
:meth:`LabelEncoder.inverse_transform`, :class:`Workspace` placement by
liveness, and the engine's encoder-side constant folding.
The scenario-scale bit-identity sweep lives in ``test_differential.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DQuaG, DQuaGConfig
from repro.data import ColumnKind, ColumnSpec, LabelEncoder, Table, TableSchema
from repro.data.preprocess import TablePreprocessor
from repro.exceptions import SchemaError
from repro.nn.kernels import Workspace
from repro.nn.layers import Linear


def make_schema() -> TableSchema:
    return TableSchema(
        [
            ColumnSpec("num", ColumnKind.NUMERIC, "driver"),
            ColumnSpec("const", ColumnKind.NUMERIC, "degenerate constant"),
            ColumnSpec("cat", ColumnKind.CATEGORICAL, "band", categories=("lo", "hi")),
        ]
    )


def make_clean(n: int = 64, seed: int = 0) -> Table:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    return Table(
        make_schema(),
        {"num": x, "const": np.full(n, 3.25), "cat": np.where(x > 0.5, "hi", "lo")},
    )


@pytest.fixture()
def preprocessor() -> TablePreprocessor:
    return TablePreprocessor(make_schema()).fit(make_clean())


def assert_plan_matches_legacy(preprocessor: TablePreprocessor, table: Table) -> np.ndarray:
    __tracebackhide__ = True
    legacy = preprocessor.transform(table)
    compiled = preprocessor.compile().transform(table)
    assert compiled.dtype == legacy.dtype
    np.testing.assert_array_equal(compiled, legacy)
    return legacy


# ---------------------------------------------------------------------------
# TransformPlan edge cases
# ---------------------------------------------------------------------------
class TestTransformPlanEdges:
    def test_all_missing_columns(self, preprocessor):
        table = Table(
            make_schema(),
            {"num": np.full(5, np.nan), "const": np.full(5, np.nan), "cat": [None] * 5},
        )
        matrix = assert_plan_matches_legacy(preprocessor, table)
        assert (matrix == preprocessor.missing_sentinel).all()

    def test_unknown_only_categorical(self, preprocessor):
        table = make_clean(8, seed=3)
        table = table.with_column("cat", ["never-seen"] * 8)
        matrix = assert_plan_matches_legacy(preprocessor, table)
        cat = matrix[:, list(table.schema.names).index("cat")]
        assert (cat == 1.0 + preprocessor.unknown_margin).all()

    def test_degenerate_constant_numeric(self, preprocessor):
        table = make_clean(6, seed=4)
        values = np.full(6, 99.0)
        values[2] = np.nan
        table = table.with_column("const", values)
        matrix = assert_plan_matches_legacy(preprocessor, table)
        const = matrix[:, 1]
        assert const[0] == 0.5  # constant column scales to 0.5 regardless of value
        assert const[2] == preprocessor.missing_sentinel

    def test_empty_chunk(self, preprocessor):
        empty = make_clean(10).slice_rows(4, 4)
        assert empty.n_rows == 0
        matrix = preprocessor.compile().transform(empty)
        assert matrix.shape == (0, 3)
        out = np.empty((8, 3))
        view = preprocessor.compile().transform_into(make_clean(10), out, 7, 7)
        assert view.shape == (0, 3)

    def test_non_finite_numeric_hits_sentinel(self, preprocessor):
        table = make_clean(4, seed=5)
        table = table.with_column("num", np.array([0.25, np.inf, -np.inf, np.nan]))
        matrix = assert_plan_matches_legacy(preprocessor, table)
        assert (matrix[1:, 0] == preprocessor.missing_sentinel).all()

    def test_unsorted_restored_vocabulary_assigns_legacy_codes(self):
        """from_metadata vocabularies are taken verbatim; the plan's
        sorted searchsorted must still yield the original codes."""
        schema = TableSchema([ColumnSpec("c", ColumnKind.CATEGORICAL, "x")])
        preprocessor = TablePreprocessor(schema).fit(Table(schema, {"c": ["b", "a", "d"]}))
        payload = preprocessor.to_metadata()
        payload["label_classes"]["c"] = ["d", "a", "b"]  # deliberately unsorted
        restored = TablePreprocessor.from_metadata(payload)
        table = Table(schema, {"c": ["a", "d", "b", None, "zz"]})
        assert_plan_matches_legacy(restored, table)

    def test_trailing_nul_values_stay_unknown(self, preprocessor):
        """NumPy fixed-width comparisons treat trailing NULs as padding;
        the exact object-level verification must not — 'lo\\x00' is
        unknown to the legacy dict lookup and must stay unknown."""
        table = make_clean(6, seed=11)
        table = table.with_column(
            "cat", ["lo", "lo\x00", "hi\x00\x00", "l\x00o", "hi", None]
        )
        matrix = assert_plan_matches_legacy(preprocessor, table)
        cat = matrix[:, 2]
        unknown = 1.0 + preprocessor.unknown_margin
        assert cat[1] == unknown and cat[2] == unknown and cat[3] == unknown
        assert cat[5] == preprocessor.missing_sentinel

    def test_vocabulary_with_trailing_nul_class(self):
        """Classes differing only in trailing NULs defeat every
        fixed-width tier; the plan must fall back to the exact lookup."""
        schema = TableSchema([ColumnSpec("c", ColumnKind.CATEGORICAL, "x")])
        preprocessor = TablePreprocessor(schema).fit(
            Table(schema, {"c": ["lo", "lo\x00", "hi"]})
        )
        assert preprocessor.compile()._categorical[0].exact_of is not None
        table = Table(schema, {"c": ["lo", "lo\x00", "hi", "lo\x00\x00", None]})
        assert_plan_matches_legacy(preprocessor, table)

    def test_literal_none_string_vs_missing(self, preprocessor):
        """A genuine 'None' string is unknown (or its own category);
        only the ``None`` object is missing."""
        schema = TableSchema([ColumnSpec("c", ColumnKind.CATEGORICAL, "x")])
        fitted = TablePreprocessor(schema).fit(Table(schema, {"c": ["None", "a"]}))
        table = Table(schema, {"c": ["None", None, "a", "None\x00"]})
        matrix = assert_plan_matches_legacy(fitted, table)
        assert matrix[0, 0] != matrix[1, 0]  # category vs missing sentinel

    def test_non_ascii_values_and_vocabulary(self, preprocessor):
        schema = TableSchema([ColumnSpec("c", ColumnKind.CATEGORICAL, "x")])
        fitted = TablePreprocessor(schema).fit(Table(schema, {"c": ["café", "naïve", "plain"]}))
        table = Table(schema, {"c": ["café", "plain", "übel", None, "naïve"]})
        assert_plan_matches_legacy(fitted, table)
        # ASCII vocabulary, non-ASCII data: byte tier must fall through.
        ascii_fitted = TablePreprocessor(schema).fit(Table(schema, {"c": ["a", "b"]}))
        table = Table(schema, {"c": ["a", "ü", None, "b"]})
        assert_plan_matches_legacy(ascii_fitted, table)

    def test_transform_into_validates_buffer(self, preprocessor):
        table = make_clean(10)
        plan = preprocessor.compile()
        with pytest.raises(ValueError):
            plan.transform_into(table, np.empty((10, 2)))  # wrong width
        with pytest.raises(ValueError):
            plan.transform_into(table, np.empty((4, 3)))  # too few rows
        with pytest.raises(ValueError):
            plan.transform_into(table, np.empty((10, 3), dtype=np.float32))
        with pytest.raises(TypeError):
            plan.transform_into(table, [[0.0] * 3 for _ in range(10)])  # not a buffer
        with pytest.raises(SchemaError):
            plan.transform(Table(TableSchema([ColumnSpec("q", ColumnKind.NUMERIC, "x")]), {"q": [1.0]}))

    def test_chunk_buffer_reuse_semantics(self, preprocessor):
        table = make_clean(40, seed=6)
        plan = preprocessor.compile()
        reused = list(plan.transform_chunks(table, 16))
        # The first two 16-row chunks share one backing buffer...
        assert np.shares_memory(reused[0], reused[1])
        # ...while reuse_buffer=False yields independently-owned chunks
        # that concatenate to the exact full transform.
        fresh = list(plan.transform_chunks(table, 16, reuse_buffer=False))
        assert not np.shares_memory(fresh[0], fresh[1])
        np.testing.assert_array_equal(
            np.concatenate(fresh), preprocessor.transform(table)
        )

    def test_refit_invalidates_cached_plan(self, preprocessor):
        plan = preprocessor.compile()
        assert preprocessor.compile() is plan  # cached
        preprocessor.fit(make_clean(32, seed=9))
        assert preprocessor.compile() is not plan


# ---------------------------------------------------------------------------
# Table.slice_rows
# ---------------------------------------------------------------------------
class TestSliceRows:
    def test_zero_copy_view(self):
        table = make_clean(20)
        view = table.slice_rows(5, 15)
        assert view.n_rows == 10
        assert view.schema is table.schema
        for name in table.schema.names:
            assert np.shares_memory(view.column(name), table.column(name))

    def test_slice_semantics(self):
        table = make_clean(10)
        assert table.slice_rows(8, 99).n_rows == 2  # clamps
        assert table.slice_rows(4, 2).n_rows == 0  # empty
        assert table.slice_rows(-3).n_rows == 3  # negative from end
        np.testing.assert_array_equal(
            table.slice_rows(2, 6).column("num"), table.column("num")[2:6]
        )

    def test_head_is_view(self):
        table = make_clean(10)
        head = table.head(4)
        assert head.n_rows == 4
        assert np.shares_memory(head.column("num"), table.column("num"))
        assert table.head(99).n_rows == 10


# ---------------------------------------------------------------------------
# vectorized LabelEncoder.inverse_transform
# ---------------------------------------------------------------------------
class TestInverseTransform:
    def test_round_clip_and_none(self):
        encoder = LabelEncoder().fit(["a", "b", "c"])
        codes = np.array([0.2, 0.5, 1.5, 2.5, 7.0, -3.0, np.nan])
        decoded = encoder.inverse_transform(codes)
        # 0.5 → 0, 1.5 → 2, 2.5 → 2: half-to-even, matching builtin round().
        assert list(decoded) == ["a", "a", "c", "c", "c", "a", None]
        assert all(v is None or type(v) is str for v in decoded)

    def test_all_nan_and_empty(self):
        encoder = LabelEncoder().fit(["a"])
        assert list(encoder.inverse_transform(np.array([np.nan, np.nan]))) == [None, None]
        assert len(encoder.inverse_transform(np.array([]))) == 0

    def test_roundtrip_through_preprocessor(self, preprocessor):
        table = make_clean(16, seed=7)
        matrix = preprocessor.compile().transform(table)
        recovered = preprocessor.inverse_transform(matrix)
        assert list(recovered.column("cat")) == list(table.column("cat"))


# ---------------------------------------------------------------------------
# Workspace placement by liveness
# ---------------------------------------------------------------------------
class TestWorkspace:
    def test_get_still_returns_array(self):
        ws = Workspace()
        assert ws.get("k", (2, 2)).shape == (2, 2)

    def test_held_kernel_result_survives_a_second_call(self):
        kernel = Linear(3, 4, rng=0).export_kernel()
        ws = Workspace()
        x = np.arange(6.0).reshape(2, 3)
        first = kernel(x, ws)
        expected = first.copy()
        second = kernel(x + 1.0, ws)
        np.testing.assert_array_equal(first, expected)
        assert not np.shares_memory(first, second)

    def test_get_never_hands_out_memory_a_live_array_sees(self):
        ws = Workspace()
        shapes = [(4, 3), (4, 3), (4, 1, 3), (4, 3), (2, 3), (12,), (1,)]
        held = [
            ws.get("k", shapes[0])[1:, ::2],  # slice
            ws.get("k", shapes[1]).reshape(2, 6),  # reshape
            np.squeeze(ws.get("k", shapes[2]), axis=1),  # squeeze
        ]
        for shape in shapes[3:]:
            handed = ws.get("k", shape)
            assert not any(np.shares_memory(handed, view) for view in held)
            held.append(handed)
        blocks = [id(block) for block in ws._blocks]
        del handed
        held.clear()  # every block is free again: the same shapes fit without allocating
        held = [ws.get("k", shape) for shape in shapes]
        assert [id(block) for block in ws._blocks] == blocks

    def test_too_small_free_block_is_replaced(self):
        ws = Workspace()
        small = ws.get("k", (2,))
        del small
        big = ws.get("k", (8,))
        assert len(ws._blocks) == 1 and ws.nbytes() == big.nbytes


# ---------------------------------------------------------------------------
# encoder-side constant folding
# ---------------------------------------------------------------------------
class TestEncoderFolding:
    @pytest.mark.parametrize("architecture,expect_folded", [
        ("gat_gin", True),
        ("gcn", True),
        ("graphsage", False),  # SAGE has no folded export: slab path
    ])
    def test_folding_and_autograd_parity(self, architecture, expect_folded):
        config = DQuaGConfig(architecture=architecture, hidden_dim=16, epochs=3, batch_size=32)
        pipeline = DQuaG(config).fit(make_clean(128, seed=1), rng=0)
        engine = pipeline.engine
        assert engine is not None
        assert engine._encoder_folded is expect_folded
        matrix = pipeline.preprocessor.compile().transform(make_clean(300, seed=2))
        np.testing.assert_allclose(
            engine.reconstruction_errors(matrix),
            pipeline.model.reconstruction_errors(matrix),
            atol=1e-10,
        )

    def test_slab_reuse_across_mixed_batch_sizes(self):
        """The non-folded slab path writes the constant embedding region
        into recycled workspace blocks on every chunk; shrinking and
        re-growing batches must not corrupt results."""
        config = DQuaGConfig(architecture="graphsage", hidden_dim=16, epochs=3, batch_size=32)
        pipeline = DQuaG(config).fit(make_clean(128, seed=1), rng=0)
        engine = pipeline.engine
        matrix = pipeline.preprocessor.compile().transform(make_clean(500, seed=8))
        reference = engine.reconstruction_errors(matrix).copy()
        engine.reconstruction_errors(matrix[:100])  # shrink (buffer kept)
        engine.reconstruction_errors(matrix[:700 // 2])  # regrow within capacity
        np.testing.assert_array_equal(engine.reconstruction_errors(matrix), reference)
