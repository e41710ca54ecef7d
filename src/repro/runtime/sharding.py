"""Row shards: partition a table or stream, validate the parts, fold exactly.

The §3.2.1 decision rules are row-local (only the final 5%·n batch
verdict is global), so a table or stream can be partitioned into
contiguous row shards, each shard validated on its own, and the shard
outcomes folded into the exact one-shot result — the same property the
streaming fold exploits for bounded memory. Inside one host the engine
already runs row chunks on every usable CPU
(:class:`~repro.runtime.engine.InferenceEngine`); across hosts the
router (:class:`~repro.serve.router.RouterGateway`) scatters chunk
ranges to replicas and folds their partial reports. This module holds
what that fold needs:

* :class:`ShardPlanner` — splits a row (or chunk) range into balanced,
  chunk-aligned contiguous shards;
* :func:`_context_from_archive` — the small merge context (threshold,
  dataset rule, feature names) a merger with no live validator reads
  from a ``DQuaG.save`` weight archive.

Because shard boundaries are multiples of the validation chunk size and
the engine's numerics are chunk-size invariant, the folded result is
bit-identical to the single-process path regardless of the shard count.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.core.thresholds import DatasetDecisionRule
from repro.exceptions import SerializationError

__all__ = ["Shard", "ShardPlanner"]


@dataclass(frozen=True)
class Shard:
    """One contiguous row range of the global table/stream."""

    index: int
    offset: int
    n_rows: int

    @property
    def stop(self) -> int:
        return self.offset + self.n_rows


class ShardPlanner:
    """Splits row ranges into chunk-aligned contiguous shards.

    Shard boundaries fall on multiples of ``chunk_size`` (the validation
    chunk), so chunking each shard locally reproduces the exact global
    chunk partition of the single-process streaming path — partial
    reports, and therefore the folded result, line up one-to-one.
    """

    def __init__(self, chunk_size: int = 8192) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size

    def plan(self, n_rows: int, shards: int) -> list[Shard]:
        """At most ``shards`` balanced, chunk-aligned contiguous ranges."""
        if n_rows < 0:
            raise ValueError(f"n_rows must be >= 0, got {n_rows}")
        if shards < 1:
            raise ValueError(f"shards must be positive, got {shards}")
        if n_rows == 0:
            return []
        n_chunks = -(-n_rows // self.chunk_size)
        shards = min(shards, n_chunks)
        base, extra = divmod(n_chunks, shards)
        plans: list[Shard] = []
        offset = 0
        for index in range(shards):
            chunks = base + (1 if index < extra else 0)
            n = min(chunks * self.chunk_size, n_rows - offset)
            plans.append(Shard(index=index, offset=offset, n_rows=n))
            offset += n
        return plans


@dataclass
class _MergeContext:
    """The (small) state folding needs: no model, no engine."""

    threshold: float
    rule: DatasetDecisionRule
    feature_names: list[str]


def _context_from_archive(archive: Path) -> _MergeContext:
    from repro.core.config import DQuaGConfig
    from repro.data.preprocess import TablePreprocessor
    from repro.nn.serialization import load_state

    _, metadata = load_state(archive)
    if "preprocessor" not in metadata or "calibration" not in metadata:
        raise SerializationError(
            f"{archive} does not carry preprocessor/calibration state "
            "(pre-runtime archive); retrain and re-save the pipeline"
        )
    config = DQuaGConfig.from_dict(metadata["config"])
    preprocessor = TablePreprocessor.from_metadata(metadata["preprocessor"])
    return _MergeContext(
        threshold=float(metadata["calibration"]["threshold"]),
        rule=DatasetDecisionRule(
            percentile=config.threshold_percentile,
            n_multiplier=config.dataset_rule_n,
        ),
        feature_names=list(preprocessor.schema.names),
    )
