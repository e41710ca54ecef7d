"""Compiled rule plans: vectorized predicate evaluation in encoded space.

:class:`RulePlan` is to a :class:`~repro.rules.RuleSet` what
``TransformPlan`` is to a ``TablePreprocessor``: an immutable compiled
form with no per-row Python on the hot path. Every predicate evaluates
directly over the already-encoded float64 matrix:

* ``range`` bounds are pushed through the exact forward affine
  ``(bound - minimum) / span`` once at compile time and compared in
  encoded space (a value equal to a bound never flags); ``compare``
  recovers raw values via the inverse affine
  ``raw = encoded * span + minimum`` — both deterministic across the
  one-shot / streamed / scattered paths because they all share the
  bit-identical encoded matrix;
* categorical membership (``in_set``/``regex``) compiles the allowed
  vocabulary entries to their scaled code positions (the same
  subtract-then-divide float ops the encoder runs) and evaluates with
  exact float64 equality via ``np.isin``. Unknown categorical values
  sit at ``1 + unknown_margin`` — outside every compiled position — so
  they count as membership violations;
* missing is ``encoded == missing_sentinel``; ``unique`` rules collect
  the present cells' encoded values (the affine is injective on a
  non-degenerate column, so encoded duplicates are raw duplicates).

Compilation validates rules against the fitted schema: unknown columns,
kind mismatches, and degenerate (constant) fitted ranges — whose raw
values are unrecoverable from the matrix — all raise
:class:`~repro.exceptions.RuleConfigError`.
"""

from __future__ import annotations

import re

import numpy as np

from repro.data import ColumnKind
from repro.exceptions import RuleConfigError, ValidationError
from repro.rules.report import RulePartial
from repro.rules.ruleset import RuleSet

__all__ = ["RulePlan"]


class _Column:
    """Per-column compile context derived from the fitted preprocessor."""

    __slots__ = (
        "name",
        "index",
        "kind",
        "sentinel",
        "unknown_value",
        "minimum",
        "span",
        "degenerate",
        "classes",
        "positions",
    )


class _RangeEval:
    """Range check in *encoded* space: the raw bounds are pushed through
    the exact forward affine once at compile time, so a data value equal
    to a bound compares equal (both went through the identical float
    ops) — no inverse-transform roundoff on the hot path."""

    __slots__ = ("j", "sentinel", "lo", "hi")

    def __init__(self, ctx: _Column, lo: float | None, hi: float | None) -> None:
        self.j = ctx.index
        self.sentinel = ctx.sentinel
        self.lo = None if lo is None else (lo - ctx.minimum) / ctx.span
        self.hi = None if hi is None else (hi - ctx.minimum) / ctx.span

    def violates(self, matrix: np.ndarray) -> np.ndarray:
        encoded = matrix[:, self.j]
        bad = np.zeros(encoded.shape, dtype=bool)
        if self.lo is not None:
            bad |= encoded < self.lo
        if self.hi is not None:
            bad |= encoded > self.hi
        return (encoded != self.sentinel) & bad

    def holds(self, matrix: np.ndarray) -> np.ndarray:
        encoded = matrix[:, self.j]
        ok = encoded != self.sentinel
        if self.lo is not None:
            ok = ok & (encoded >= self.lo)
        if self.hi is not None:
            ok = ok & (encoded <= self.hi)
        return ok


class _NotNullEval:
    __slots__ = ("j", "sentinel")

    def __init__(self, ctx: _Column) -> None:
        self.j = ctx.index
        self.sentinel = ctx.sentinel

    def violates(self, matrix: np.ndarray) -> np.ndarray:
        return matrix[:, self.j] == self.sentinel

    def holds(self, matrix: np.ndarray) -> np.ndarray:
        return matrix[:, self.j] != self.sentinel


class _MembershipEval:
    """Shared evaluator for ``in_set`` and ``regex``: allowed scaled
    positions were resolved at compile time."""

    __slots__ = ("j", "sentinel", "positions")

    def __init__(self, ctx: _Column, positions: np.ndarray) -> None:
        self.j = ctx.index
        self.sentinel = ctx.sentinel
        self.positions = positions

    def violates(self, matrix: np.ndarray) -> np.ndarray:
        encoded = matrix[:, self.j]
        return (encoded != self.sentinel) & ~np.isin(encoded, self.positions)

    def holds(self, matrix: np.ndarray) -> np.ndarray:
        return np.isin(matrix[:, self.j], self.positions)


_COMPARE_FN = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}


class _CompareEval:
    __slots__ = ("jl", "jr", "sentinel", "min_l", "span_l", "min_r", "span_r", "fn")

    def __init__(self, left: _Column, right: _Column, op: str) -> None:
        self.jl = left.index
        self.jr = right.index
        self.sentinel = left.sentinel
        self.min_l = left.minimum
        self.span_l = left.span
        self.min_r = right.minimum
        self.span_r = right.span
        self.fn = _COMPARE_FN[op]

    def _decode(self, matrix: np.ndarray):
        enc_l = matrix[:, self.jl]
        enc_r = matrix[:, self.jr]
        present = (enc_l != self.sentinel) & (enc_r != self.sentinel)
        raw_l = enc_l * self.span_l + self.min_l
        raw_r = enc_r * self.span_r + self.min_r
        return present, self.fn(raw_l, raw_r)

    def violates(self, matrix: np.ndarray) -> np.ndarray:
        present, satisfied = self._decode(matrix)
        return present & ~satisfied

    def holds(self, matrix: np.ndarray) -> np.ndarray:
        present, satisfied = self._decode(matrix)
        return present & satisfied


class _ConditionalEval:
    __slots__ = ("when", "then")

    def __init__(self, when, then) -> None:
        self.when = when
        self.then = then

    def violates(self, matrix: np.ndarray) -> np.ndarray:
        return self.when.holds(matrix) & self.then.violates(matrix)

    def holds(self, matrix: np.ndarray) -> np.ndarray:
        # Material implication over present rows.
        return ~self.when.holds(matrix) | self.then.holds(matrix)


class _UniqueEval:
    __slots__ = ("j", "sentinel", "unknown_value")

    def __init__(self, ctx: _Column) -> None:
        self.j = ctx.index
        self.sentinel = ctx.sentinel
        # Unknown categorical values all encode to the same position, so
        # two *different* novel strings would look like duplicates —
        # exclude them rather than fabricate violations.
        self.unknown_value = ctx.unknown_value if ctx.kind == "categorical" else None

    def collect(self, matrix: np.ndarray):
        encoded = matrix[:, self.j]
        usable = encoded != self.sentinel
        if self.unknown_value is not None:
            usable &= encoded != self.unknown_value
        rows = np.flatnonzero(usable).astype(np.int64)
        return rows, encoded[usable].astype(np.float64)


def _resolve(columns: dict, name: str, rule_id: str, expect: str | None = None) -> _Column:
    ctx = columns.get(name)
    if ctx is None:
        raise RuleConfigError(
            f"rule {rule_id!r}: unknown column {name!r} "
            f"(schema columns: {', '.join(columns)})"
        )
    if expect is not None and ctx.kind != expect:
        raise RuleConfigError(
            f"rule {rule_id!r}: column {name!r} is {ctx.kind}, "
            f"but the predicate requires a {expect} column"
        )
    return ctx


def _require_invertible(ctx: _Column, rule_id: str) -> _Column:
    if ctx.degenerate:
        raise RuleConfigError(
            f"rule {rule_id!r}: column {ctx.name!r} has a degenerate fitted range "
            f"(constant column); its raw values are not recoverable from the "
            f"encoded matrix"
        )
    return ctx


def _compile_predicate(predicate, columns: dict, rule_id: str):
    kind = predicate.type
    if kind == "range":
        ctx = _require_invertible(
            _resolve(columns, predicate.column, rule_id, expect="numeric"), rule_id
        )
        return _RangeEval(ctx, predicate.minimum, predicate.maximum)
    if kind == "not_null":
        return _NotNullEval(_resolve(columns, predicate.column, rule_id))
    if kind in ("in_set", "regex"):
        ctx = _require_invertible(
            _resolve(columns, predicate.column, rule_id, expect="categorical"), rule_id
        )
        if kind == "in_set":
            missing = sorted(set(predicate.values) - set(ctx.classes))
            if missing:
                raise RuleConfigError(
                    f"rule {rule_id!r}: value(s) {missing} are not fitted categories "
                    f"of column {ctx.name!r}; membership cannot be checked "
                    f"post-encoding (fit the encoder with them as future "
                    f"categories first)"
                )
            selected = np.array([cls in set(predicate.values) for cls in ctx.classes])
        else:
            matcher = re.compile(predicate.pattern)
            selected = np.array([matcher.fullmatch(cls) is not None for cls in ctx.classes])
            if not selected.any():
                raise RuleConfigError(
                    f"rule {rule_id!r}: pattern {predicate.pattern!r} matches no "
                    f"fitted category of column {ctx.name!r}"
                )
        return _MembershipEval(ctx, ctx.positions[selected])
    if kind == "unique":
        ctx = _require_invertible(_resolve(columns, predicate.column, rule_id), rule_id)
        return _UniqueEval(ctx)
    if kind == "compare":
        left = _require_invertible(
            _resolve(columns, predicate.left, rule_id, expect="numeric"), rule_id
        )
        right = _require_invertible(
            _resolve(columns, predicate.right, rule_id, expect="numeric"), rule_id
        )
        return _CompareEval(left, right, predicate.op)
    if kind == "conditional":
        when = _compile_predicate(predicate.when, columns, rule_id)
        then = _compile_predicate(predicate.then, columns, rule_id)
        return _ConditionalEval(when, then)
    raise RuleConfigError(f"rule {rule_id!r}: unknown predicate type {kind!r}")


class _CompiledRule:
    __slots__ = ("rule", "evaluator", "column_indices", "is_unique")

    def __init__(self, rule, columns: dict) -> None:
        self.rule = rule
        self.evaluator = _compile_predicate(rule.predicate, columns, rule.id)
        self.is_unique = rule.predicate.type == "unique"
        self.column_indices = np.array(
            sorted({columns[name].index for name in rule.predicate.columns}), dtype=np.int64
        )


class RulePlan:
    """A rule set bound to a fitted preprocessor — vectorized evaluators
    over the encoded matrix. Build via :meth:`RuleSet.compile`."""

    def __init__(self, ruleset: RuleSet, preprocessor) -> None:
        transform = preprocessor.compile()
        self.ruleset = ruleset
        self.schema = preprocessor.schema
        self.n_features = len(self.schema)
        self.feature_names = [spec.name for spec in self.schema]
        columns: dict[str, _Column] = {}
        for j, spec in enumerate(self.schema):
            normalizer = preprocessor.normalizer(spec.name)
            ctx = _Column()
            ctx.name = spec.name
            ctx.index = j
            ctx.sentinel = transform.missing_sentinel
            ctx.unknown_value = transform.unknown_value
            ctx.minimum = float(normalizer.minimum_)
            ctx.span = float(normalizer.maximum_) - float(normalizer.minimum_)
            ctx.degenerate = ctx.span == 0.0
            if spec.kind == ColumnKind.CATEGORICAL:
                ctx.kind = "categorical"
                ctx.classes = tuple(preprocessor.label_encoder(spec.name).classes_)
                codes = np.arange(len(ctx.classes), dtype=np.float64)
                if ctx.degenerate:
                    ctx.positions = np.full(len(ctx.classes), 0.5)
                else:
                    # The exact float ops the encoder runs, so positions
                    # compare equal to encoded cells bit-for-bit.
                    ctx.positions = np.divide(np.subtract(codes, ctx.minimum), ctx.span)
            else:
                ctx.kind = "numeric"
                ctx.classes = None
                ctx.positions = None
            columns[spec.name] = ctx
        self._compiled = [_CompiledRule(rule, columns) for rule in ruleset]

    def __len__(self) -> int:
        return len(self._compiled)

    def evaluate(self, matrix: np.ndarray) -> RulePartial:
        """Evaluate every rule over one encoded chunk.

        Returns a chunk-local :class:`~repro.rules.report.RulePartial`;
        all returned arrays are freshly allocated (the input buffer may
        be reused by the caller, as ``transform_chunks`` does).
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != self.n_features:
            raise ValidationError(
                f"rule plan compiled for {self.n_features} features, "
                f"got matrix of shape {matrix.shape}"
            )
        violations = []
        unique_values = []
        for compiled in self._compiled:
            if compiled.is_unique:
                rows, values = compiled.evaluator.collect(matrix)
                unique_values.append((compiled.rule.id, rows, values))
                continue
            rows = np.flatnonzero(compiled.evaluator.violates(matrix)).astype(np.int64)
            cols = compiled.column_indices
            if cols.size == 1:
                out_rows = rows
                out_cols = np.full(rows.size, cols[0], dtype=np.int64)
            else:
                # Row-major order: repeat rows across the sorted columns.
                out_rows = np.repeat(rows, cols.size)
                out_cols = np.tile(cols, rows.size)
            violations.append((compiled.rule.id, out_rows, out_cols))
        return RulePartial(
            n_rows=int(matrix.shape[0]), violations=violations, unique_values=unique_values
        )

    def __repr__(self) -> str:
        return f"RulePlan(rules={len(self._compiled)}, features={self.n_features})"
