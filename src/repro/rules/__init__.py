"""Declarative rule engine: compiled constraint validation fused with
GNN verdicts.

The GNN half of the stack catches statistical corruption; this package
adds the hard domain constraints production data quality needs — range,
not-null, set/regex membership, uniqueness, cross-column comparison,
conditional — as JSON-configured :class:`RuleSet` documents compiled by
:meth:`RuleSet.compile` into vectorized :class:`RulePlan` evaluators
over the already-encoded matrix (no per-row Python), exactly the way
``TablePreprocessor.compile`` produces a ``TransformPlan``.

Rule flags land in a :class:`RuleReport` that rides the existing
``ValidationReport`` additively (``report.rule_report``), with per-cell
provenance (model vs rule vs both) and severity rollups; chunk-local
:class:`RulePartial` results merge bit-exactly through
:func:`fold_rule_partials`, so streams and router scatters agree with
one-shot evaluation to the last bit.
"""

from repro.rules.plan import RulePlan
from repro.rules.predicates import (
    COMPARE_OPS,
    PREDICATE_TYPES,
    ComparePredicate,
    ConditionalPredicate,
    InSetPredicate,
    NotNullPredicate,
    RangePredicate,
    RegexPredicate,
    UniquePredicate,
    parse_predicate,
)
from repro.rules.report import RuleOutcome, RulePartial, RuleReport, apply_rules, fold_rule_partials
from repro.rules.ruleset import RULE_SCHEMA_VERSION, SEVERITIES, SEVERITY_CODES, Rule, RuleSet


def resolve_ruleset(rules) -> "RuleSet | None":
    """Normalize any rules argument into an (uncompiled) :class:`RuleSet`.

    For callers with no preprocessor to compile against — e.g. the
    client, which ships the rule set as a wire payload — so they
    normalize here rather than through :func:`resolve_rules`.
    """
    if rules is None or isinstance(rules, RuleSet):
        return rules
    if isinstance(rules, RulePlan):
        return rules.ruleset
    if isinstance(rules, dict):
        return RuleSet.from_payload(rules)
    return RuleSet.from_file(rules)


def resolve_rules(rules, preprocessor) -> "RulePlan | None":
    """Normalize any rules argument into a compiled :class:`RulePlan`.

    Accepts ``None`` (passthrough), an already-compiled :class:`RulePlan`,
    a :class:`RuleSet`, a wire payload ``dict``, or a path to a JSON rule
    file — the same spectrum every ``rules=`` parameter in the stack
    takes, so all entry points resolve identically.
    """
    if rules is None:
        return None
    if isinstance(rules, RulePlan):
        return rules
    if isinstance(rules, RuleSet):
        return rules.compile(preprocessor)
    if isinstance(rules, dict):
        return RuleSet.from_payload(rules).compile(preprocessor)
    return RuleSet.from_file(rules).compile(preprocessor)


__all__ = [
    "COMPARE_OPS",
    "PREDICATE_TYPES",
    "RULE_SCHEMA_VERSION",
    "SEVERITIES",
    "SEVERITY_CODES",
    "ComparePredicate",
    "ConditionalPredicate",
    "InSetPredicate",
    "NotNullPredicate",
    "RangePredicate",
    "RegexPredicate",
    "Rule",
    "RuleOutcome",
    "RulePartial",
    "RulePlan",
    "RuleReport",
    "RuleSet",
    "UniquePredicate",
    "apply_rules",
    "fold_rule_partials",
    "parse_predicate",
    "resolve_rules",
    "resolve_ruleset",
]
