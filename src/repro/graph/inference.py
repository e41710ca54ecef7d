"""Statistical feature-relationship inference.

One of the two offline substitutes for the paper's ChatGPT-4 call
(README.md#offline-substitutes): association between every column pair
is scored with a measure appropriate to the pair's types, and pairs
scoring at or above a threshold become feature-graph edges.

* numeric ↔ numeric — |Spearman rank correlation| (captures monotone,
  not just linear, dependence);
* numeric ↔ categorical — correlation ratio η (between-group variance
  share);
* categorical ↔ categorical — bias-corrected Cramér's V.

All three live on [0, 1], so one threshold applies uniformly.

``scipy.stats`` is imported inside the two scorers that use it, not at
module scope: this module is reachable from every serving process
(gateway, router, replica) through ``repro.graph``, and those processes
only run Phase 2, so they must not pay for Phase-1 code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.schema import TableSchema
from repro.data.table import Table
from repro.graph.feature_graph import FeatureGraph

__all__ = ["AssociationScore", "StatisticalRelationshipInference", "cramers_v", "correlation_ratio"]


def cramers_v(a: np.ndarray, b: np.ndarray) -> float:
    """Bias-corrected Cramér's V between two categorical arrays."""
    mask = np.array([x is not None and y is not None for x, y in zip(a, b)])
    a, b = a[mask], b[mask]
    if len(a) < 2:
        return 0.0
    a_codes, a_levels = _codes(a)
    b_codes, b_levels = _codes(b)
    r, k = len(a_levels), len(b_levels)
    if r < 2 or k < 2:
        return 0.0
    from scipy import stats

    contingency = np.zeros((r, k))
    np.add.at(contingency, (a_codes, b_codes), 1.0)
    chi2 = stats.chi2_contingency(contingency, correction=False)[0]
    n = contingency.sum()
    phi2 = chi2 / n
    # Bergsma–Wicher bias correction.
    phi2_corrected = max(0.0, phi2 - (k - 1) * (r - 1) / (n - 1))
    r_corrected = r - (r - 1) ** 2 / (n - 1)
    k_corrected = k - (k - 1) ** 2 / (n - 1)
    denominator = min(r_corrected - 1, k_corrected - 1)
    if denominator <= 0:
        return 0.0
    return float(np.sqrt(phi2_corrected / denominator))


def correlation_ratio(categories: np.ndarray, values: np.ndarray) -> float:
    """Correlation ratio η: share of numeric variance explained by category."""
    mask = np.array([c is not None for c in categories]) & np.isfinite(values)
    categories, values = categories[mask], values[mask]
    if len(values) < 2:
        return 0.0
    total_var = values.var()
    if total_var == 0.0:
        return 0.0
    codes, levels = _codes(categories)
    if len(levels) < 2:
        return 0.0
    grand_mean = values.mean()
    between = 0.0
    for level in range(len(levels)):
        group = values[codes == level]
        if group.size:
            between += group.size * (group.mean() - grand_mean) ** 2
    return float(np.sqrt(between / (len(values) * total_var)))


def _codes(values: np.ndarray) -> tuple[np.ndarray, list]:
    levels = sorted({str(v) for v in values})
    code_of = {v: i for i, v in enumerate(levels)}
    return np.array([code_of[str(v)] for v in values]), levels


@dataclass(frozen=True)
class AssociationScore:
    """Scored column pair, sortable by strength."""

    feature_a: str
    feature_b: str
    score: float
    measure: str


class StatisticalRelationshipInference:
    """Score all column pairs and emit edges above a threshold.

    Parameters
    ----------
    threshold:
        Minimum association score for an edge (default 0.25 — permissive
        enough to keep genuinely related columns, strict enough to avoid a
        near-complete graph).
    max_degree:
        Optional per-node cap; keeps hub nodes from connecting to
        everything when many columns co-vary. Strongest edges win.
    sample_limit:
        Pairwise statistics are computed on at most this many rows
        (uniform subsample) for speed; None disables.
    """

    def __init__(
        self,
        threshold: float = 0.25,
        max_degree: int | None = None,
        sample_limit: int | None = 5000,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {threshold}")
        self.threshold = threshold
        self.max_degree = max_degree
        self.sample_limit = sample_limit
        self.seed = seed

    def score_pairs(self, table: Table) -> list[AssociationScore]:
        """Association scores for every unordered column pair."""
        if self.sample_limit is not None and table.n_rows > self.sample_limit:
            table = table.sample(self.sample_limit, rng=self.seed)
        schema = table.schema
        names = schema.names
        scores: list[AssociationScore] = []
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                score, measure = self._score(table, schema, a, b)
                scores.append(AssociationScore(a, b, score, measure))
        return scores

    def infer(self, table: Table) -> FeatureGraph:
        """Build the feature graph from scored pairs."""
        scores = self.score_pairs(table)
        selected = [s for s in scores if s.score >= self.threshold]
        if self.max_degree is not None:
            selected = self._cap_degree(selected)
        graph = FeatureGraph(table.schema.names, [(s.feature_a, s.feature_b) for s in selected])
        return graph.with_isolated_connected()

    # -- internals ---------------------------------------------------------
    def _score(self, table: Table, schema: TableSchema, a: str, b: str) -> tuple[float, str]:
        spec_a, spec_b = schema[a], schema[b]
        col_a, col_b = table.column(a), table.column(b)
        if spec_a.is_numeric and spec_b.is_numeric:
            mask = np.isfinite(col_a) & np.isfinite(col_b)
            if mask.sum() < 3:
                return 0.0, "spearman"
            a_vals, b_vals = col_a[mask], col_b[mask]
            # Constant columns (ptp == 0 is robust to float noise) carry no
            # rank signal; scipy would warn and return NaN.
            if np.ptp(a_vals) == 0 or np.ptp(b_vals) == 0:
                return 0.0, "spearman"
            from scipy import stats

            rho = stats.spearmanr(a_vals, b_vals).statistic
            return (0.0 if np.isnan(rho) else abs(float(rho))), "spearman"
        if spec_a.is_categorical and spec_b.is_categorical:
            return cramers_v(col_a, col_b), "cramers_v"
        if spec_a.is_categorical:
            return correlation_ratio(col_a, col_b), "correlation_ratio"
        return correlation_ratio(col_b, col_a), "correlation_ratio"

    def _cap_degree(self, selected: list[AssociationScore]) -> list[AssociationScore]:
        degree: dict[str, int] = {}
        kept: list[AssociationScore] = []
        for score in sorted(selected, key=lambda s: -s.score):
            if (
                degree.get(score.feature_a, 0) < self.max_degree
                and degree.get(score.feature_b, 0) < self.max_degree
            ):
                kept.append(score)
                degree[score.feature_a] = degree.get(score.feature_a, 0) + 1
                degree[score.feature_b] = degree.get(score.feature_b, 0) + 1
        return kept
