"""Liveness-recycled scratch memory for compiled inference kernels.

Compiled kernels (see ``export_kernel()`` on layers and GNN convs)
write one ``(rows, F, hidden)`` float64 activation per layer and
chunk. The inference engine sizes its row chunks so the widest of these
stays near 1 MiB (``repro.runtime.engine.CHUNK_BYTES``) — 170 rows on a
12-feature, hidden-64 model — because slabs that fit the 2 MiB per-core
L2 cache measured 1.24x faster than the 3 MiB slabs of 512-row chunks
(one BLAS thread, 2-vCPU x86 host). A :class:`Workspace` hands kernels
views of a few such blocks and gives a block out again as soon as no
live array references it, so every chunk runs in warm, cache-resident
memory and a thread keeps only the blocks one chunk holds at once: four
activations and a GAT score block, 4.2 MiB per thread on the hotel
model instead of the 12.7 MiB of one buffer per layer and role.
``np.empty`` for every buffer was rejected: in a process that loaded an
archive, as a serving replica does, a 10k-row engine validate took
287 ms with it against 214 ms in recycled scratch (221 ms keyed), as
every fresh 1 MiB block is faulted in again: 71k page faults per
validate against none (medians of 36 interleaved runs, one BLAS thread,
2-vCPU x86 host). The engine keeps one workspace per thread: the
caller's and each fan-out thread's (``InferenceEngine.width``).

Kernels accept ``ws=None`` and then fall back to plain ``np.empty``, so
exported kernels remain self-contained callables.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["Workspace", "buffer"]


class Workspace:
    """A small pool of flat float64 blocks, handed out by liveness.

    :meth:`get` returns a view of the smallest block that no live array
    references and allocates only when every block is in use; a free
    block too small for the request is replaced. The check is exact:
    NumPy points every view's ``.base`` at the block that owns the
    memory, so a block's reference count includes every slice, reshape
    and squeeze of it that is still alive. The key only labels the
    request (perfbench's composed path still passes one). Not
    thread-safe — use one workspace per thread (the inference engine
    keeps them thread-local).
    """

    def __init__(self) -> None:
        self._blocks: list[np.ndarray] = []

    def get(self, key: object, shape: tuple[int, ...]) -> np.ndarray:
        """A float64 C-contiguous scratch array of ``shape``.

        Contents are unspecified — callers must fully overwrite it.
        """
        size = math.prod(shape)
        blocks = self._blocks
        fit = small = -1
        for i in range(len(blocks)):
            # Two references are the pool's list and this call's argument;
            # any more means a live array still sees the block.
            if sys.getrefcount(blocks[i]) > 2:
                continue
            if blocks[i].size < size:
                small = i
            elif fit < 0 or blocks[i].size < blocks[fit].size:
                fit = i
        if fit < 0:
            block = np.empty(size, dtype=np.float64)
            if small < 0:
                blocks.append(block)
            else:
                blocks[small] = block
        else:
            block = blocks[fit]
        return block[:size].reshape(shape)

    def nbytes(self) -> int:
        return sum(block.nbytes for block in self._blocks)


def buffer(ws: Workspace | None, key: object, shape: tuple[int, ...]) -> np.ndarray:
    """Workspace scratch when available, fresh array otherwise."""
    if ws is None:
        return np.empty(shape, dtype=np.float64)
    return ws.get(key, shape)
