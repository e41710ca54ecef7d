"""Shared-memory byte slabs: one ``multiprocessing.shared_memory``
segment viewed as raw bytes.

No served request uses them: a router hands every scatter range to its
replica as an HTTP body. The last creator and attacher is the traced
pass of the ``fleet-stream`` benchmark (``perfbench/fleet.py``), which
times one create/copy/attach round trip per frame.

* :class:`SharedSlab` — the segment (:attr:`SharedSlab.buf`). The
  creator owns it; an attacher only maps it;
* lifecycle — an owned slab unlinks via a finalizer even when
  :meth:`SharedSlab.close` is never called, segment names embed the
  creator PID, and every open is unregistered from the
  ``resource_tracker`` so a process exit can neither unlink a live
  segment nor warn about one it merely mapped.
"""

from __future__ import annotations

import os
import secrets

__all__ = [
    "SLAB_PREFIX",
    "SharedSlab",
]

#: segment-name prefix; a name continues with the creator's PID
SLAB_PREFIX = "repro-slab"


def _shared_memory():
    from multiprocessing import shared_memory

    return shared_memory


def _untrack(shm) -> None:
    """Detach a segment from the resource tracker.

    On POSIX Pythons < 3.13 ``SharedMemory.__init__`` registers every
    open — including attach-only ones — so an attaching process exiting
    would have the tracker unlink a slab its creator still owns (and
    warn about a "leak" it never had). Creators untrack too, and slab
    lifecycle is owned entirely by the finalizers here.

    The tracker keeps one name set for the whole process tree, so a
    name registered twice before it is unregistered holds one entry,
    and the second unregister fails inside the tracker (a ``KeyError``
    traceback on stderr). Register/unregister pairs therefore must not
    overlap per name: each slab has one creator and at most one
    attacher, strictly in sequence — the attacher opens the segment
    only after the creator's open has returned. The last creator and
    attacher is perfbench's traced fleet pass, which creates, writes
    and then attaches within one process.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:  # pragma: no cover - non-POSIX or tracker absent
        pass


def _release_segment(shm, owner: bool) -> None:
    try:
        shm.close()
    except OSError:  # pragma: no cover - already closed mapping
        pass
    if not owner:
        return
    try:
        # Not SharedMemory.unlink(): that would also unregister a name
        # this process untracked at creation (tracker noise, see _untrack).
        import _posixshmem

        _posixshmem.shm_unlink(shm._name)
    except FileNotFoundError:
        pass  # unlinked by someone else — already gone
    except (ImportError, OSError):  # pragma: no cover - non-POSIX fallback
        try:
            shm.unlink()
        except OSError:
            pass


class SharedSlab:
    """One shared-memory segment, viewed as raw bytes.

    The creating process owns the segment: a ``weakref``-based finalizer
    unlinks it even if :meth:`close` is never reached (GC, crash-unwind),
    and :meth:`close` is idempotent. Attached copies only unmap.
    """

    __slots__ = ("name", "nbytes", "owner", "_shm", "_finalizer", "__weakref__")

    def __init__(self, shm, nbytes: int, owner: bool) -> None:
        import weakref

        self._shm = shm
        self.nbytes = nbytes
        self.owner = owner
        self.name = shm.name
        _untrack(shm)
        self._finalizer = weakref.finalize(self, _release_segment, shm, owner)

    # -- construction ------------------------------------------------------
    @classmethod
    def create_bytes(cls, n_bytes: int) -> "SharedSlab":
        """Create an owned raw-byte slab."""
        if n_bytes < 1:
            raise ValueError(f"slab size must be positive, got {n_bytes}")
        shm = _shared_memory().SharedMemory(
            name=f"{SLAB_PREFIX}-{os.getpid()}-{secrets.token_hex(6)}",
            create=True,
            size=n_bytes,
        )
        return cls(shm, n_bytes, owner=True)

    @classmethod
    def attach_bytes(cls, name: str) -> "SharedSlab":
        """Map an existing byte slab by name (does not own the segment)."""
        shm = _shared_memory().SharedMemory(name=name)
        return cls(shm, shm.size, owner=False)

    # -- views -------------------------------------------------------------
    @property
    def buf(self) -> memoryview:
        """The raw segment bytes (may exceed ``nbytes`` by page rounding)."""
        return self._shm.buf

    # -- lifecycle ---------------------------------------------------------
    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def close(self) -> None:
        """Unmap (and, for the owner, unlink). Safe to call repeatedly."""
        self._finalizer()

    def __enter__(self) -> "SharedSlab":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedSlab({self.name}, {self.nbytes}B, owner={self.owner})"
