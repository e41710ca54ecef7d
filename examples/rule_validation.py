"""Declarative rules fused with GNN validation.

A JSON rule set expresses the hard domain constraints the learned model
cannot know ("x stays in [0, 1]", "z is never missing", "c is lo or
hi"), compiles to vectorized evaluators over the encoded matrix, and
fuses its verdicts into the same :class:`ValidationReport` the GNN
produces — additively, with per-cell provenance. This example shows the
whole surface:

1. ``pipeline.validate(table, rules=...)`` — one fused report, GNN
   flags bit-identical to a rules-off run;
2. ``StreamingValidator`` — chunked evaluation folds to the exact same
   rule report;
3. ``ValidationService`` + the HTTP gateway — ``PUT/GET/DELETE
   /v1/pipelines/{name}/rules`` with eager 422-on-registration
   compilation;
4. ``RuleSetValidator`` — the same rules as a stand-alone baseline.

Run with ``PYTHONPATH=src python examples/rule_validation.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core import DQuaG, DQuaGConfig
from repro.data import ColumnKind, ColumnSpec, Table, TableSchema
from repro.exceptions import GatewayError
from repro.rules import RuleSet
from repro.runtime import ValidationService
from repro.serve import AsyncGateway, Client

RULES = {
    "name": "demo-checks",
    "rules": [
        {"id": "x-range", "severity": "error",
         "predicate": {"type": "range", "column": "x", "min": 0.0, "max": 1.0}},
        {"id": "z-present", "severity": "warn",
         "predicate": {"type": "not_null", "column": "z"}},
        {"id": "c-known", "severity": "error",
         "predicate": {"type": "in_set", "column": "c", "values": ["lo", "hi"]}},
        {"id": "y-above-x", "severity": "info",
         "predicate": {"type": "compare", "left": "y", "op": "ge", "right": "x"}},
    ],
}


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


def make_dirty(n: int, seed: int) -> Table:
    table = make_table(n, seed)
    x = np.array(table.column("x"), dtype=np.float64)
    z = np.array(table.column("z"), dtype=np.float64)
    c = np.array(table.column("c"), dtype=object)
    x[::29] = 7.5        # violates x-range
    z[::31] = np.nan     # violates z-present
    c[::37] = "??"       # violates c-known
    return table.with_column("x", x).with_column("z", z).with_column("c", c)


def main() -> None:
    print("fitting a small pipeline...")
    pipeline = DQuaG(DQuaGConfig(hidden_dim=16, epochs=8, batch_size=64)).fit(
        make_table(600, seed=0), rng=0
    )
    ruleset = RuleSet.from_payload(RULES)
    dirty = make_dirty(1200, seed=1)

    # -- 1. one-shot fusion -------------------------------------------------
    plain = pipeline.validate(dirty)
    fused = pipeline.validate(dirty, rules=ruleset)
    print("\nfused one-shot report:")
    print("  ", fused.summary())
    print("   by severity:", fused.rule_report.by_severity())
    print("   provenance: ", fused.provenance_counts())
    assert np.array_equal(fused.cell_flags, plain.cell_flags)  # GNN untouched
    for outcome in fused.rule_report.outcomes:
        print(f"   rule {outcome.rule_id!r}: {outcome.n_cells} cell(s) "
              f"in {outcome.n_rows} row(s) [{outcome.severity}]")

    # -- 2. streamed: the chunked fold is exact -----------------------------
    streamed = pipeline.streaming_validator(
        chunk_size=256, keep_cell_errors=True, rules=ruleset
    ).validate_table(dirty)
    assert streamed.rule_report.to_dict() == fused.rule_report.to_dict()
    print("\nstreamed fold matches the one-shot rule report bit for bit")

    # -- 3. the serving layer ----------------------------------------------
    service = ValidationService(capacity=4)
    service.add("demo", pipeline)
    with AsyncGateway(service, port=0) as gateway:
        client = Client(port=gateway.port)
        client.set_rules("demo", RULES)
        print("\nPUT /v1/pipelines/demo/rules ->", client.get_rules("demo"))
        remote = client.validate("demo", dirty, include_errors=True)
        assert remote.rule_report.to_dict() == fused.rule_report.to_dict()
        print("HTTP validate carries the same fused rule report")

        # Incompatible rules fail the PUT (422), never a later validate.
        try:
            client.set_rules("demo", {"rules": [
                {"id": "ghost", "predicate": {"type": "not_null", "column": "ghost"}}
            ]})
        except GatewayError as exc:
            print("incompatible rules rejected at PUT:", exc)
        print("rules detached:", client.delete_rules("demo"))
    service.close()

    # -- 4. rules as a stand-alone baseline ---------------------------------
    from repro.baselines import RuleSetValidator

    baseline = RuleSetValidator(RULES, problem_fraction=0.02).fit(make_table(600, seed=0))
    verdict = baseline.validate_batch(dirty)
    print("\nRuleSetValidator verdict:", verdict.is_problematic,
          f"({len(verdict.flagged_rows)} flagged rows, score={verdict.score:.3f})")


if __name__ == "__main__":
    main()
