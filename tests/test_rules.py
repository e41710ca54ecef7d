"""Declarative rule engine: parsing, compilation, evaluation, fusion.

Unit coverage for :mod:`repro.rules` — the JSON predicate vocabulary and
its structural validation, compile-time schema checks against a fitted
preprocessor, the vectorized evaluation semantics (boundary-exact range
checks, missing/unknown handling, uniqueness, conditionals), the exact
chunked fold, and the additive fusion into ``ValidationReport`` — plus
the serving surface: service-level rule registration with generation
tagging, the gateway's ``/rules`` endpoints with their 400/404/422
mappings, and the client's 503-only retry guard.
"""

from __future__ import annotations

import http.client
import json

import numpy as np
import pytest

from repro.api import protocol
from repro.core import DQuaG, DQuaGConfig
from repro.data import ColumnKind, ColumnSpec, Table, TableSchema
from repro.data.preprocess import TablePreprocessor
from repro.exceptions import GatewayError, ReproError, RuleConfigError, ValidationError
from repro.rules import (
    PREDICATE_TYPES,
    SEVERITIES,
    Rule,
    RulePartial,
    RuleReport,
    RuleSet,
    apply_rules,
    fold_rule_partials,
    parse_predicate,
    resolve_rules,
    resolve_ruleset,
)
from repro.runtime import ValidationService
from repro.serve import AsyncGateway, Client


# ---------------------------------------------------------------------------
# fixtures: a plain fitted preprocessor (no model) + a tiny fitted pipeline
# ---------------------------------------------------------------------------
def make_schema() -> TableSchema:
    return TableSchema(
        [
            ColumnSpec("id", ColumnKind.NUMERIC, "row id"),
            ColumnSpec("amount", ColumnKind.NUMERIC, "amount"),
            ColumnSpec("limit", ColumnKind.NUMERIC, "cap"),
            ColumnSpec("cat", ColumnKind.CATEGORICAL, "code", categories=("aa", "bb", "cc")),
        ]
    )


def make_fit_table() -> Table:
    n = 21
    amount = np.linspace(0.0, 100.0, n)
    return Table(
        make_schema(),
        {
            "id": np.arange(n, dtype=np.float64),
            "amount": amount,
            "limit": amount + 10.0,
            "cat": np.array([("aa", "bb", "cc")[i % 3] for i in range(n)]),
        },
    )


def make_eval_table() -> Table:
    return Table(
        make_schema(),
        {
            "id": np.array([0.0, 1.0, 1.0, 2.0, np.nan, 3.0, 4.0, 5.0]),
            "amount": np.array([5.0, 10.0, 50.0, 90.0, 95.0, np.nan, 60.0, 20.0]),
            "limit": np.array([50.0, 100.0, 100.0, 100.0, 100.0, 100.0, 50.0, 100.0]),
            "cat": np.array(
                ["aa", "bb", "cc", "zz", "aa", None, "aa", "bb"], dtype=object
            ),
        },
    )


RULES_DOC = {
    "name": "unit-checks",
    "revision": 2,
    "rules": [
        {"id": "r-range", "severity": "error",
         "predicate": {"type": "range", "column": "amount", "min": 10, "max": 90}},
        {"id": "r-notnull-amount", "severity": "warn",
         "predicate": {"type": "not_null", "column": "amount"}},
        {"id": "r-notnull-cat", "severity": "info",
         "predicate": {"type": "not_null", "column": "cat"}},
        {"id": "r-inset", "severity": "warn",
         "predicate": {"type": "in_set", "column": "cat", "values": ["aa", "bb"]}},
        {"id": "r-regex", "severity": "info",
         "predicate": {"type": "regex", "column": "cat", "pattern": "a+"}},
        {"id": "r-unique", "severity": "error",
         "predicate": {"type": "unique", "column": "id"}},
        {"id": "r-compare", "severity": "error",
         "predicate": {"type": "compare", "left": "amount", "op": "le", "right": "limit"}},
        {"id": "r-cond", "severity": "info",
         "predicate": {"type": "conditional",
                       "when": {"type": "in_set", "column": "cat", "values": ["aa"]},
                       "then": {"type": "range", "column": "amount", "max": 50}}},
    ],
}

#: expected violating cells per rule on make_eval_table()
#: (column order: id=0, amount=1, limit=2, cat=3)
EXPECTED_CELLS = {
    "r-range": {(0, 1), (4, 1)},
    "r-notnull-amount": {(5, 1)},
    "r-notnull-cat": {(5, 3)},
    "r-inset": {(2, 3), (3, 3)},
    "r-regex": {(1, 3), (2, 3), (3, 3), (7, 3)},
    "r-unique": {(1, 0), (2, 0)},
    "r-compare": {(6, 1), (6, 2)},
    "r-cond": {(4, 1), (6, 1)},
}


@pytest.fixture(scope="module")
def preprocessor() -> TablePreprocessor:
    return TablePreprocessor(make_schema()).fit(make_fit_table())


@pytest.fixture(scope="module")
def ruleset() -> RuleSet:
    return RuleSet.from_payload(RULES_DOC)


@pytest.fixture(scope="module")
def rule_report(preprocessor, ruleset) -> RuleReport:
    plan = ruleset.compile(preprocessor)
    table = make_eval_table()
    matrix = preprocessor.compile().transform(table)
    partial = plan.evaluate(matrix)
    return fold_rule_partials(
        [(0, table.n_rows, partial)], ruleset, list(preprocessor.schema.names)
    )


# ---------------------------------------------------------------------------
# predicate + rule-set parsing (structural validation, no preprocessor)
# ---------------------------------------------------------------------------
class TestParsing:
    def test_every_predicate_type_roundtrips_through_its_spec(self):
        specs = [rule["predicate"] for rule in RULES_DOC["rules"]]
        assert {spec["type"] for spec in specs} == set(PREDICATE_TYPES)
        for spec in specs:
            parsed = parse_predicate(spec)
            reparsed = parse_predicate(parsed.to_spec())
            assert parsed == reparsed

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"type": "no_such"}, "unknown predicate type"),
            ({"type": "range", "column": "a"}, "needs 'min' and/or 'max'"),
            ({"type": "range", "column": "a", "min": 9, "max": 1}, "exceeds max"),
            ({"type": "range", "column": "a", "min": True}, "expected a number"),
            ({"type": "range", "column": "", "min": 0}, "non-empty string"),
            ({"type": "range", "column": "a", "min": 0, "extra": 1}, "unknown key"),
            ({"type": "in_set", "column": "a", "values": []}, "non-empty list"),
            ({"type": "in_set", "column": "a", "values": ["x", "x"]}, "duplicate values"),
            ({"type": "in_set", "column": "a", "values": [1]}, "expected strings"),
            ({"type": "regex", "column": "a", "pattern": "("}, "invalid regex"),
            ({"type": "compare", "left": "a", "op": "??", "right": "b"}, "unknown operator"),
            ({"type": "compare", "left": "a", "op": "le", "right": "a"}, "distinct columns"),
            ({"type": "conditional",
              "when": {"type": "unique", "column": "a"},
              "then": {"type": "not_null", "column": "a"}}, "cannot nest"),
            ({"type": "conditional",
              "when": {"type": "not_null", "column": "a"},
              "then": {"type": "conditional",
                       "when": {"type": "not_null", "column": "a"},
                       "then": {"type": "not_null", "column": "a"}}}, "cannot nest"),
            ("not-a-dict", "must be an object"),
        ],
    )
    def test_malformed_predicates_are_rejected(self, spec, message):
        with pytest.raises(RuleConfigError, match=message):
            parse_predicate(spec)

    @pytest.mark.parametrize(
        "rule, message",
        [
            ({"predicate": {"type": "not_null", "column": "a"}}, "missing required key 'id'"),
            ({"id": "r"}, "missing required key 'predicate'"),
            ({"id": "r", "severity": "fatal",
              "predicate": {"type": "not_null", "column": "a"}}, "unknown severity"),
            ({"id": "r", "scope": "table",
              "predicate": {"type": "not_null", "column": "a"}}, "conflicts with"),
            ({"id": "r", "shout": True,
              "predicate": {"type": "not_null", "column": "a"}}, "unknown key"),
            ({"id": "", "predicate": {"type": "not_null", "column": "a"}}, "non-empty string"),
        ],
    )
    def test_malformed_rules_are_rejected(self, rule, message):
        with pytest.raises(RuleConfigError, match=message):
            Rule.from_dict(rule)

    def test_duplicate_rule_ids_are_rejected(self):
        rule = Rule("same", parse_predicate({"type": "not_null", "column": "a"}))
        with pytest.raises(RuleConfigError, match="duplicate rule id"):
            RuleSet([rule, rule])

    def test_unsupported_rule_schema_version_is_rejected(self):
        with pytest.raises(RuleConfigError, match="rule_schema_version"):
            RuleSet.from_payload({"rule_schema_version": 99, "rules": []})

    @pytest.mark.parametrize("revision", [0, -1, 1.5, True, "2"])
    def test_bad_revisions_are_rejected(self, revision):
        with pytest.raises(RuleConfigError, match="revision"):
            RuleSet.from_payload({"rules": [], "revision": revision})

    def test_invalid_json_and_missing_files_are_rejected(self, tmp_path):
        with pytest.raises(RuleConfigError, match="not valid JSON"):
            RuleSet.from_json("{nope")
        with pytest.raises(RuleConfigError, match="cannot read rule file"):
            RuleSet.from_file(tmp_path / "absent.json")

    def test_ruleset_roundtrips_and_fingerprint_is_content_addressed(self, ruleset):
        payload = ruleset.to_dict()
        again = RuleSet.from_dict(json.loads(json.dumps(payload)))
        assert again == ruleset
        assert again.fingerprint == ruleset.fingerprint
        reordered = RuleSet(list(ruleset.rules)[::-1], name=ruleset.name,
                            revision=ruleset.revision)
        assert reordered.fingerprint != ruleset.fingerprint

    def test_from_payload_accepts_bare_and_enveloped_forms(self, ruleset):
        bare = {"rules": RULES_DOC["rules"], "name": "unit-checks", "revision": 2}
        assert RuleSet.from_payload(bare) == ruleset
        assert RuleSet.from_payload(ruleset.to_dict()) == ruleset
        assert RuleSet.from_payload(ruleset) is ruleset

    def test_resolvers_normalize_every_accepted_form(self, preprocessor, ruleset, tmp_path):
        plan = ruleset.compile(preprocessor)
        assert resolve_rules(None, preprocessor) is None
        assert resolve_rules(plan, preprocessor) is plan
        assert resolve_rules(ruleset, preprocessor) is plan  # compile cache
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(RULES_DOC))
        assert resolve_rules(path, preprocessor).ruleset == ruleset
        assert resolve_ruleset(None) is None
        assert resolve_ruleset(plan) is ruleset
        assert resolve_ruleset(RULES_DOC) == ruleset
        assert resolve_ruleset(path) == ruleset


# ---------------------------------------------------------------------------
# compilation against a fitted schema
# ---------------------------------------------------------------------------
class TestCompile:
    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"type": "range", "column": "ghost", "min": 0}, "unknown column"),
            ({"type": "range", "column": "cat", "min": 0}, "requires a numeric column"),
            ({"type": "in_set", "column": "amount", "values": ["aa"]},
             "requires a categorical column"),
            ({"type": "in_set", "column": "cat", "values": ["aa", "zz"]},
             "not fitted categories"),
            ({"type": "regex", "column": "cat", "pattern": "zz+"}, "matches no"),
            ({"type": "compare", "left": "amount", "op": "le", "right": "cat"},
             "requires a numeric column"),
        ],
    )
    def test_schema_incompatible_rules_fail_at_compile_time(
        self, preprocessor, spec, message
    ):
        ruleset = RuleSet([Rule("bad", parse_predicate(spec))])
        with pytest.raises(RuleConfigError, match=message):
            ruleset.compile(preprocessor)

    def test_degenerate_constant_column_is_rejected(self):
        schema = TableSchema([ColumnSpec("k", ColumnKind.NUMERIC, "constant")])
        fitted = TablePreprocessor(schema).fit(
            Table(schema, {"k": np.full(8, 3.0)})
        )
        ruleset = RuleSet(
            [Rule("k-range", parse_predicate({"type": "range", "column": "k", "min": 0}))]
        )
        with pytest.raises(RuleConfigError, match="degenerate"):
            ruleset.compile(fitted)

    def test_in_set_accepts_future_categories(self):
        fitted = TablePreprocessor(make_schema()).fit(
            make_fit_table(), future_categories={"cat": ["dd"]}
        )
        ruleset = RuleSet(
            [Rule("dd-ok", parse_predicate(
                {"type": "in_set", "column": "cat", "values": ["aa", "dd"]}
            ))]
        )
        plan = ruleset.compile(fitted)
        table = Table(
            make_schema(),
            {
                "id": np.array([0.0, 1.0]),
                "amount": np.array([10.0, 20.0]),
                "limit": np.array([50.0, 50.0]),
                "cat": np.array(["dd", "bb"]),
            },
        )
        report = fold_rule_partials(
            [(0, 2, plan.evaluate(fitted.compile().transform(table)))],
            ruleset,
            list(fitted.schema.names),
        )
        # "dd" is a fitted (future) category and allowed; "bb" violates.
        assert {(int(r), int(c)) for r, c in zip(report.cell_rows, report.cell_cols)} == {(1, 3)}

    def test_compile_is_cached_per_preprocessor(self, preprocessor, ruleset):
        assert ruleset.compile(preprocessor) is ruleset.compile(preprocessor)

    def test_evaluate_rejects_mismatched_matrices(self, preprocessor, ruleset):
        plan = ruleset.compile(preprocessor)
        with pytest.raises(ValidationError, match="compiled for 4 features"):
            plan.evaluate(np.zeros((3, 2)))


# ---------------------------------------------------------------------------
# evaluation semantics
# ---------------------------------------------------------------------------
class TestEvaluation:
    def test_each_rule_flags_exactly_the_expected_cells(self, rule_report):
        for rule_id, expected in EXPECTED_CELLS.items():
            outcome = rule_report.outcome(rule_id)
            assert outcome.n_cells == len(expected), rule_id
            assert outcome.n_rows == len({row for row, _ in expected}), rule_id

    def test_fused_cells_dedupe_at_max_severity(self, rule_report):
        all_cells = set()
        for cells in EXPECTED_CELLS.values():
            all_cells |= cells
        got = {(int(r), int(c)) for r, c in zip(rule_report.cell_rows, rule_report.cell_cols)}
        assert got == all_cells
        # (4, amount): error r-range + info r-cond → error wins.
        assert rule_report.severity_of(4, "amount") == "error"
        # (2, cat): warn r-inset + info r-regex → warn wins.
        assert rule_report.severity_of(2, "cat") == "warn"
        assert rule_report.severity_of(0, "id") is None
        assert rule_report.by_severity() == {"info": 3, "warn": 3, "error": 6}
        assert rule_report.max_severity == "error"

    def test_boundary_values_do_not_violate_range(self, rule_report):
        # amounts 10.0 and 90.0 sit exactly on the rule bounds: the
        # compile-time affine push makes the comparison boundary-exact.
        range_cells = EXPECTED_CELLS["r-range"]
        assert (1, 1) not in range_cells and (3, 1) not in range_cells
        assert rule_report.severity_of(1, "amount") is None
        assert rule_report.severity_of(3, "amount") is None

    def test_missing_cells_only_violate_not_null(self, rule_report):
        # Row 5 (amount=NaN, cat=None) is invisible to range/in_set/regex.
        assert rule_report.severity_of(5, "amount") == "warn"   # not_null only
        assert rule_report.severity_of(5, "cat") == "info"      # not_null only

    def test_unknown_categories_violate_membership_but_not_uniqueness(self, preprocessor):
        ruleset = RuleSet(
            [Rule("cat-unique", parse_predicate({"type": "unique", "column": "cat"}))]
        )
        plan = ruleset.compile(preprocessor)
        table = make_eval_table().with_column(
            "cat", np.array(["aa", "zz", "yy", "bb", "cc", None, "xx", "bb"], dtype=object)
        )
        report = fold_rule_partials(
            [(0, 8, plan.evaluate(preprocessor.compile().transform(table)))],
            ruleset,
            list(preprocessor.schema.names),
        )
        # zz/yy/xx all encode to the unknown position, but two *different*
        # novel strings are not duplicates — only the real bb pair flags.
        flagged = {int(r) for r in report.cell_rows}
        assert flagged == {3, 7}

    def test_report_helpers_are_consistent(self, rule_report):
        mask = rule_report.cell_mask()
        assert mask.shape == (8, 4)
        assert int(mask.sum()) == rule_report.n_cells == 12
        np.testing.assert_array_equal(
            rule_report.flagged_rows, np.unique(rule_report.cell_rows)
        )
        assert rule_report.n_flagged_rows == len(set(rule_report.cell_rows.tolist()))
        assert "12 violating cell(s)" in rule_report.summary()
        with pytest.raises(KeyError):
            rule_report.outcome("no-such-rule")

    def test_empty_table_slice_produces_an_empty_report(self, preprocessor, ruleset):
        plan = ruleset.compile(preprocessor)
        partial = plan.evaluate(np.empty((0, 4)))
        report = fold_rule_partials(
            [(0, 0, partial)], ruleset, list(preprocessor.schema.names)
        )
        assert report.n_cells == 0
        assert report.max_severity is None
        assert report.by_severity() == {name: 0 for name in SEVERITIES}


# ---------------------------------------------------------------------------
# the chunked fold is exact
# ---------------------------------------------------------------------------
class TestFold:
    @pytest.mark.parametrize("chunk_size", [1, 2, 3, 5, 8])
    def test_chunked_fold_is_bit_identical_to_one_shot(
        self, preprocessor, ruleset, rule_report, chunk_size
    ):
        plan = ruleset.compile(preprocessor)
        matrix = preprocessor.compile().transform(make_eval_table())
        parts = []
        for start in range(0, matrix.shape[0], chunk_size):
            chunk = matrix[start : start + chunk_size]
            parts.append((start, chunk.shape[0], plan.evaluate(chunk)))
        folded = fold_rule_partials(parts, ruleset, list(preprocessor.schema.names))
        np.testing.assert_array_equal(folded.cell_rows, rule_report.cell_rows)
        np.testing.assert_array_equal(folded.cell_cols, rule_report.cell_cols)
        np.testing.assert_array_equal(folded.cell_severity, rule_report.cell_severity)
        assert folded.to_dict() == rule_report.to_dict()

    def test_none_partials_contribute_rows_but_no_flags(self, preprocessor, ruleset):
        plan = ruleset.compile(preprocessor)
        matrix = preprocessor.compile().transform(make_eval_table())
        report = fold_rule_partials(
            [(0, 100, None), (100, matrix.shape[0], plan.evaluate(matrix))],
            ruleset,
            list(preprocessor.schema.names),
        )
        assert report.n_rows == 100 + matrix.shape[0]
        assert np.all(report.cell_rows >= 100)

    def test_fold_rejects_partials_from_a_different_rule_set(self, preprocessor, ruleset):
        plan = ruleset.compile(preprocessor)
        matrix = preprocessor.compile().transform(make_eval_table())
        partial = plan.evaluate(matrix)
        other = RuleSet(
            [Rule("other", parse_predicate({"type": "not_null", "column": "amount"}))]
        )
        with pytest.raises(ValidationError, match="unknown rule"):
            fold_rule_partials(
                [(0, matrix.shape[0], partial)], other, list(preprocessor.schema.names)
            )


# ---------------------------------------------------------------------------
# wire codecs
# ---------------------------------------------------------------------------
class TestWire:
    def test_rule_report_roundtrips_bit_exactly(self, rule_report):
        payload = json.loads(json.dumps(rule_report.to_dict()))
        again = RuleReport.from_dict(payload)
        assert again.to_dict() == rule_report.to_dict()
        np.testing.assert_array_equal(again.cell_rows, rule_report.cell_rows)
        np.testing.assert_array_equal(again.cell_severity, rule_report.cell_severity)

    def test_rule_partial_roundtrips_bit_exactly(self, preprocessor, ruleset):
        plan = ruleset.compile(preprocessor)
        partial = plan.evaluate(preprocessor.compile().transform(make_eval_table()))
        again = RulePartial.from_payload(json.loads(json.dumps(partial.to_payload())))
        assert again.to_payload() == partial.to_payload()

    def test_generic_protocol_dispatch_routes_rule_kinds(self, ruleset, rule_report):
        decoded_set = protocol.from_dict(json.loads(json.dumps(ruleset.to_dict())))
        assert decoded_set == ruleset
        decoded_report = protocol.from_dict(json.loads(json.dumps(rule_report.to_dict())))
        assert decoded_report.to_dict() == rule_report.to_dict()


# ---------------------------------------------------------------------------
# fusion into ValidationReport — additive, GNN flags untouched
# ---------------------------------------------------------------------------
def demo_clean(n: int, seed: int) -> Table:
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


DEMO_RULES = {
    "name": "demo-checks",
    "rules": [
        {"id": "x-range", "severity": "error",
         "predicate": {"type": "range", "column": "x", "min": 0.0, "max": 1.0}},
        {"id": "z-present", "severity": "warn",
         "predicate": {"type": "not_null", "column": "z"}},
        {"id": "c-known", "severity": "error",
         "predicate": {"type": "in_set", "column": "c", "values": ["lo", "hi"]}},
    ],
}


def demo_dirty(n: int = 400, seed: int = 7) -> Table:
    table = demo_clean(n, seed)
    x = np.array(table.column("x"), dtype=np.float64)
    z = np.array(table.column("z"), dtype=np.float64)
    c = np.array(table.column("c"), dtype=object)
    x[::37] = 5.0        # out of the [0, 1] rule range
    z[::41] = np.nan     # missing
    c[::43] = "??"       # unknown category
    return table.with_column("x", x).with_column("z", z).with_column("c", c)


@pytest.fixture(scope="module")
def pipeline() -> DQuaG:
    config = DQuaGConfig(hidden_dim=8, epochs=2, batch_size=64)
    return DQuaG(config).fit(demo_clean(300, seed=0), rng=0)


class TestFusion:
    def test_rules_off_report_has_no_rule_report_and_no_wire_key(self, pipeline):
        report = pipeline.validate(demo_dirty())
        assert report.rule_report is None
        assert "rule_report" not in protocol.report_to_dict(report, errors="dense")
        np.testing.assert_array_equal(report.combined_cell_flags, report.cell_flags)
        assert report.provenance_counts() == {
            "model": int(report.cell_flags.sum()), "rule": 0, "both": 0
        }

    def test_rules_leave_gnn_fields_bit_identical(self, pipeline):
        table = demo_dirty()
        plain = pipeline.validate(table)
        fused = pipeline.validate(table, rules=DEMO_RULES)
        np.testing.assert_array_equal(fused.sample_errors, plain.sample_errors)
        np.testing.assert_array_equal(fused.cell_errors, plain.cell_errors)
        np.testing.assert_array_equal(fused.row_flags, plain.row_flags)
        np.testing.assert_array_equal(fused.cell_flags, plain.cell_flags)
        assert fused.threshold == plain.threshold
        assert fused.is_problematic == plain.is_problematic
        assert fused.rule_report is not None
        assert fused.rule_report.n_cells > 0

    def test_provenance_distinguishes_model_rule_and_both(self, pipeline):
        table = demo_dirty()
        fused = pipeline.validate(table, rules=DEMO_RULES)
        rule_mask = fused.rule_report.cell_mask()
        np.testing.assert_array_equal(
            fused.combined_cell_flags, fused.cell_flags | rule_mask
        )
        counts = fused.provenance_counts()
        assert counts["rule"] > 0
        assert counts["model"] + counts["rule"] + counts["both"] == int(
            fused.combined_cell_flags.sum()
        )
        rule_only = rule_mask & ~fused.cell_flags
        row, col = map(int, np.argwhere(rule_only)[0])
        assert fused.cell_provenance(row, col) == "rule"
        clean_cell = np.argwhere(~fused.combined_cell_flags)
        row, col = map(int, clean_cell[0])
        assert fused.cell_provenance(row, col) is None
        assert "rules:" in fused.summary()

    def test_fused_report_roundtrips_on_both_wire_tiers(self, pipeline):
        from repro.api import framing

        fused = pipeline.validate(demo_dirty(), rules=DEMO_RULES)
        payload = json.loads(json.dumps(protocol.report_to_dict(fused, errors="dense")))
        decoded = protocol.report_from_dict(payload)
        assert decoded.rule_report is not None
        assert decoded.rule_report.to_dict() == fused.rule_report.to_dict()
        framed = framing.report_from_frame(
            framing.decode_frame(framing.report_to_frame(fused, errors="dense"))
        )
        assert framed.rule_report is not None
        assert framed.rule_report.to_dict() == fused.rule_report.to_dict()

    def test_streaming_matches_one_shot_with_rules(self, pipeline):
        table = demo_dirty()
        fused = pipeline.validate(table, rules=DEMO_RULES)
        streamed = pipeline.streaming_validator(
            chunk_size=64, keep_cell_errors=True, rules=DEMO_RULES
        ).validate_table(table)
        assert streamed.rule_report is not None
        assert streamed.rule_report.to_dict() == fused.rule_report.to_dict()
        np.testing.assert_array_equal(streamed.cell_flags, fused.cell_flags)

    def test_stream_summary_carries_and_roundtrips_the_rule_report(self, pipeline):
        table = demo_dirty()
        summary = pipeline.streaming_validator(
            chunk_size=64, rules=DEMO_RULES
        ).validate_table(table)
        assert summary.rule_report is not None
        assert "rules:" in summary.summary()
        payload = json.loads(json.dumps(protocol.stream_summary_to_dict(summary)))
        decoded = protocol.stream_summary_from_dict(payload)
        assert decoded.rule_report.to_dict() == summary.rule_report.to_dict()
        plain = pipeline.streaming_validator(chunk_size=64).validate_table(table)
        assert plain.rule_report is None
        assert "rule_report" not in protocol.stream_summary_to_dict(plain)


# ---------------------------------------------------------------------------
# service-level registration: generation tagging, persistence, eager compile
# ---------------------------------------------------------------------------
class TestService:
    @pytest.fixture()
    def service(self, pipeline):
        service = ValidationService(capacity=2)
        service.add("demo", pipeline)
        yield service
        service.close()

    def test_set_get_clear_lifecycle(self, service, pipeline):
        assert service.get_rules("demo") is None
        assert service.rule_plan_for("demo") is None
        assert service.clear_rules("demo") is False
        service.set_rules("demo", DEMO_RULES)
        assert service.get_rules("demo") == RuleSet.from_payload(DEMO_RULES)
        plan = service.rule_plan_for("demo")
        assert plan is not None
        assert service.rule_plan_for("demo") is plan  # cached
        assert service.clear_rules("demo") is True
        assert service.rule_plan_for("demo") is None

    def test_validate_fuses_rules_and_detach_restores_plain_output(self, service, pipeline):
        table = demo_dirty()
        plain = service.validate("demo", table)
        service.set_rules("demo", DEMO_RULES)
        fused = service.validate("demo", table)
        assert fused.rule_report is not None
        np.testing.assert_array_equal(fused.cell_flags, plain.cell_flags)
        reference = pipeline.validate(table, rules=DEMO_RULES)
        assert fused.rule_report.to_dict() == reference.rule_report.to_dict()
        service.clear_rules("demo")
        assert service.validate("demo", table).rule_report is None

    def test_incompatible_rules_fail_at_registration_not_validation(self, service):
        bad = {"rules": [{"id": "ghost", "predicate": {"type": "not_null", "column": "ghost"}}]}
        with pytest.raises(RuleConfigError, match="unknown column"):
            service.set_rules("demo", bad)
        assert service.get_rules("demo") is None
        # the failed registration left validation rules-off
        assert service.validate("demo", demo_dirty()).rule_report is None

    def test_set_rules_requires_a_rule_set(self, service):
        with pytest.raises(ReproError, match="requires a rule set"):
            service.set_rules("demo", None)

    def test_rules_survive_re_registration_and_recompile(self, service, pipeline):
        service.set_rules("demo", DEMO_RULES)
        stale_plan = service.rule_plan_for("demo")
        fresh = DQuaG(DQuaGConfig(hidden_dim=8, epochs=2, batch_size=64)).fit(
            demo_clean(300, seed=1), rng=1
        )
        service.add("demo", fresh)  # generation bump
        assert service.get_rules("demo") == RuleSet.from_payload(DEMO_RULES)
        rebuilt = service.rule_plan_for("demo")
        assert rebuilt is not None and rebuilt is not stale_plan
        assert service.validate("demo", demo_dirty()).rule_report is not None

    def test_rules_load_from_a_json_file(self, service, tmp_path):
        path = tmp_path / "demo_rules.json"
        path.write_text(json.dumps(DEMO_RULES))
        service.set_rules("demo", path)
        assert service.get_rules("demo") == RuleSet.from_payload(DEMO_RULES)


# ---------------------------------------------------------------------------
# gateway endpoints + hostile inputs + client retry guard
# ---------------------------------------------------------------------------
class TestGateway:
    @pytest.fixture(scope="class")
    def gateway(self, pipeline):
        service = ValidationService(capacity=2)
        service.add("demo", pipeline)
        with AsyncGateway(service, port=0) as gw:
            yield gw
        service.close()

    @pytest.fixture(scope="class")
    def client(self, gateway):
        with Client(port=gateway.port) as client:
            yield client

    @pytest.fixture(autouse=True)
    def detach_rules(self, gateway):
        yield
        gateway.service.clear_rules("demo")

    def raw_request(self, gateway, method: str, path: str, body: bytes,
                    content_type: str = "application/json"):
        connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
        try:
            connection.request(method, path, body=body,
                               headers={"Content-Type": content_type})
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def test_put_get_delete_roundtrip(self, client):
        stored = client.set_rules("demo", DEMO_RULES)
        assert stored == RuleSet.from_payload(DEMO_RULES)
        assert client.get_rules("demo") == stored
        assert client.delete_rules("demo") is True
        assert client.get_rules("demo") is None
        assert client.delete_rules("demo") is False

    def test_validate_fuses_rules_identically_on_both_tiers(self, client, gateway, pipeline):
        client.set_rules("demo", DEMO_RULES)
        table = demo_dirty()
        reference = pipeline.validate(table, rules=DEMO_RULES)
        via_json = client.validate("demo", table, include_errors=True)
        assert via_json.rule_report is not None
        assert via_json.rule_report.to_dict() == reference.rule_report.to_dict()
        with Client(port=gateway.port, wire="frame") as frame_client:
            framed = frame_client.validate("demo", table, include_errors=True)
        assert framed.rule_report is not None
        assert framed.rule_report.to_dict() == reference.rule_report.to_dict()

    def test_validate_stream_fuses_rules(self, client, pipeline):
        client.set_rules("demo", DEMO_RULES)
        table = demo_dirty()
        chunks = [table.slice_rows(i, i + 64) for i in range(0, table.n_rows, 64)]
        summary = client.validate_stream("demo", chunks)
        local = pipeline.streaming_validator(
            chunk_size=64, rules=DEMO_RULES
        ).validate_table(table)
        assert summary.rule_report is not None
        assert summary.rule_report.to_dict() == local.rule_report.to_dict()

    def test_incompatible_rules_come_back_as_422(self, client):
        bad = {"rules": [{"id": "ghost",
                          "predicate": {"type": "not_null", "column": "ghost"}}]}
        with pytest.raises(GatewayError, match="unknown column") as excinfo:
            client.set_rules("demo", bad)
        assert excinfo.value.status == 422
        assert client.get_rules("demo") is None

    def test_failed_update_preserves_the_previous_rules(self, client):
        client.set_rules("demo", DEMO_RULES)
        bad = {"rules": [{"id": "ghost",
                          "predicate": {"type": "not_null", "column": "ghost"}}]}
        with pytest.raises(GatewayError):
            client.set_rules("demo", bad)
        assert client.get_rules("demo") == RuleSet.from_payload(DEMO_RULES)

    def test_parse_level_errors_fail_client_side_before_any_http(self, client):
        # Structural errors don't need the server: resolve_ruleset raises
        # locally, so a typo never even reaches the gateway.
        with pytest.raises(RuleConfigError, match="unknown predicate type"):
            client.set_rules("demo", {"rules": [
                {"id": "r", "predicate": {"type": "no_such", "column": "x"}}
            ]})

    def test_malformed_json_body_is_a_400(self, gateway):
        status, body = self.raw_request(
            gateway, "PUT", "/v1/pipelines/demo/rules", b"{not json"
        )
        assert status == 400

    @pytest.mark.parametrize(
        "payload",
        [
            {"rules": [{"id": "r", "severity": "fatal",
                        "predicate": {"type": "not_null", "column": "x"}}]},
            {"rules": [{"id": "dup", "predicate": {"type": "not_null", "column": "x"}},
                       {"id": "dup", "predicate": {"type": "not_null", "column": "y"}}]},
            {"rules": [{"id": "r",
                        "predicate": {"type": "range", "column": "x", "min": 9, "max": 1}}]},
        ],
    )
    def test_structurally_invalid_rule_documents_are_422(self, gateway, payload):
        status, body = self.raw_request(
            gateway, "PUT", "/v1/pipelines/demo/rules",
            json.dumps(payload).encode("utf-8"),
        )
        assert status == 422, body

    def test_rules_on_an_unknown_pipeline_is_a_404(self, gateway):
        status, _ = self.raw_request(
            gateway, "PUT", "/v1/pipelines/nope/rules",
            json.dumps(DEMO_RULES).encode("utf-8"),
        )
        assert status == 404

    def test_retry_guard_retries_503_exactly_once(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise GatewayError("gateway error 503: pool closed", status=503)
            return "ok"

        assert Client._retry_once_on_503(flaky) == "ok"
        assert calls["n"] == 2

    def test_retry_guard_gives_up_after_the_second_503(self):
        calls = {"n": 0}

        def dead():
            calls["n"] += 1
            raise GatewayError("gateway error 503: pool closed", status=503)

        with pytest.raises(GatewayError):
            Client._retry_once_on_503(dead)
        assert calls["n"] == 2

    @pytest.mark.parametrize("status", [400, 404, 422, 500])
    def test_retry_guard_never_retries_deterministic_failures(self, status):
        calls = {"n": 0}

        def deterministic():
            calls["n"] += 1
            raise GatewayError(f"gateway error {status}: nope", status=status)

        with pytest.raises(GatewayError):
            Client._retry_once_on_503(deterministic)
        assert calls["n"] == 1


# ---------------------------------------------------------------------------
# repro-serve --rules plumbing + the rules-only baseline
# ---------------------------------------------------------------------------
class TestCliAndBaseline:
    def test_serve_cli_rejects_rules_for_unknown_pipelines(self, pipeline, tmp_path):
        from repro.serve.cli import main

        archive = tmp_path / "demo.npz"
        pipeline.save(archive)
        rules_file = tmp_path / "rules.json"
        rules_file.write_text(json.dumps(DEMO_RULES))
        with pytest.raises(SystemExit):
            main(["--pipeline", f"demo={archive}", "--rules", f"ghost={rules_file}"])

    def test_serve_cli_fails_startup_on_an_incompatible_rules_file(self, pipeline, tmp_path, capsys):
        from repro.serve.cli import main

        archive = tmp_path / "demo.npz"
        pipeline.save(archive)
        rules_file = tmp_path / "bad_rules.json"
        rules_file.write_text(json.dumps(
            {"rules": [{"id": "ghost",
                        "predicate": {"type": "not_null", "column": "ghost"}}]}
        ))
        assert main(["--pipeline", f"demo={archive}", "--rules", str(rules_file)]) == 1
        assert "unknown column" in capsys.readouterr().err

    def test_rules_baseline_flags_rule_violating_rows(self):
        from repro.baselines import RuleSetValidator

        validator = RuleSetValidator(DEMO_RULES, problem_fraction=0.01)
        validator.fit(demo_clean(300, seed=0))
        verdict = validator.validate_batch(demo_dirty())
        assert verdict.is_problematic
        assert len(verdict.flagged_rows) > 0
        assert set(verdict.details["by_severity"]) == set(SEVERITIES)
        clean = validator.validate_batch(demo_clean(200, seed=3))
        assert not clean.is_problematic
        assert len(clean.flagged_rows) == 0
