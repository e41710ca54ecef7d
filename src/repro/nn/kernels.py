"""Workspace-backed buffer reuse for compiled inference kernels.

Compiled kernels (see ``export_kernel()`` on layers and GNN convs)
write one ``(rows, F, hidden)`` float64 activation per layer and
chunk. The inference engine sizes its row chunks so the widest of these
stays near 1 MiB (``repro.runtime.engine.CHUNK_BYTES``) — 170 rows on a
12-feature, hidden-64 model — because slabs that fit the 2 MiB per-core
L2 cache measured 1.24x faster than the 3 MiB slabs of 512-row chunks
(one BLAS thread, 2-vCPU x86 host). A :class:`Workspace` hands kernels
named, reusable scratch arrays of that size, so the first chunk pays the
allocations and every later chunk (and every later call) runs in warm,
cache-resident buffers instead of a fresh allocation per op. The engine
keeps one workspace per thread: the caller's and each fan-out thread's
(``InferenceEngine.width``), each faulted in on that thread's first
chunk, so every core runs its chunks in its own cache-sized slabs.

Kernels accept ``ws=None`` and then fall back to plain ``np.empty``, so
exported kernels remain self-contained callables.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Workspace", "buffer"]


class Workspace:
    """Named scratch buffers, grown on demand and reused across calls.

    Buffers are keyed by caller-chosen identifiers (layer identity +
    role); a request with a larger element count reallocates, a smaller
    one returns a reshaped view of the existing capacity. Not
    thread-safe — use one workspace per thread (the inference engine
    keeps them thread-local).
    """

    def __init__(self) -> None:
        self._buffers: dict[object, np.ndarray] = {}

    def get(self, key: object, shape: tuple[int, ...]) -> np.ndarray:
        """A float64 C-contiguous scratch array of ``shape``.

        Contents are unspecified — callers must fully overwrite it.
        """
        return self.acquire(key, shape)[0]

    def acquire(self, key: object, shape: tuple[int, ...]) -> tuple[np.ndarray, bool]:
        """Like :meth:`get`, also reporting whether the buffer is fresh.

        Returns ``(array, fresh)`` — ``fresh`` is True when the backing
        storage was (re)allocated on this call. A non-fresh buffer still
        holds whatever the same key's previous (equal-or-larger) request
        wrote, letting callers skip re-writing constant regions (see
        ``InferenceEngine._node_inputs``).
        """
        size = math.prod(shape)
        flat = self._buffers.get(key)
        fresh = flat is None or flat.size < size
        if fresh:
            flat = np.empty(size, dtype=np.float64)
            self._buffers[key] = flat
        return flat[:size].reshape(shape), fresh

    def nbytes(self) -> int:
        return sum(buf.nbytes for buf in self._buffers.values())


def buffer(ws: Workspace | None, key: object, shape: tuple[int, ...]) -> np.ndarray:
    """Workspace scratch when available, fresh array otherwise."""
    if ws is None:
        return np.empty(shape, dtype=np.float64)
    return ws.get(key, shape)
