"""Compiled inference runtime — the Phase-2 serving subsystem.

Phase 1 (training) runs on the reverse-mode autograd substrate in
:mod:`repro.nn`; Phase 2 (validating unseen batches, §3.2.1) is the
serving hot path and does not need gradients at all. Following the
compile-don't-interpret insight of GNNBuilder-style systems, this
package turns a fitted :class:`~repro.core.pipeline.DQuaG` into plain
NumPy kernels and builds the serving stack on top:

* :mod:`repro.runtime.engine` — :class:`InferenceEngine`, pure-NumPy
  forward kernels compiled from a fitted model (no ``Tensor`` graph
  bookkeeping, one shared encoder pass for both decoders), carrying the
  pipeline's calibration context;
* :mod:`repro.runtime.streaming` — :class:`StreamingValidator`, the one
  validation core every validate path runs through: mergeable
  :class:`PartialReport` chunks, from one-shot tables to bounded-memory
  streams of arbitrarily large ones;
* :mod:`repro.runtime.service` — :class:`ValidationService`, an LRU
  registry of fitted pipelines dispatching concurrent batch validation
  across a thread pool;
* :mod:`repro.runtime.sharding` — :class:`ShardPlanner`, the
  chunk-aligned row ranges the router scatters and folds back into a
  result bit-identical to the one-shot path.

Inside one host the engine itself is the parallel path: a multi-chunk
call runs its row chunks on every CPU in the process's affinity mask
(:attr:`InferenceEngine.width`), bit-identical at any width.
"""

from repro.runtime.engine import InferenceEngine
from repro.runtime.streaming import PartialReport, StreamingValidator, StreamSummary, fold_partials
from repro.runtime.service import PipelineEntry, ServiceStats, ValidationService
from repro.runtime.sharding import Shard, ShardPlanner

__all__ = [
    "InferenceEngine",
    "PartialReport",
    "StreamingValidator",
    "StreamSummary",
    "fold_partials",
    "PipelineEntry",
    "ServiceStats",
    "ValidationService",
    "Shard",
    "ShardPlanner",
]
