"""Shared-memory byte slabs: the same-host hand-off of encoded chunks.

A router scattering a stream to replicas on its own host need not
re-serialize each chunk range onto a socket: it writes the encoded
frames into a :class:`SharedSlab` and sends only the segment's name
(the ``X-Repro-Shm`` header); the replica's gateway attaches the slab
and reads the frames straight out of shared memory.

* :class:`SharedSlab` — one ``multiprocessing.shared_memory`` segment
  viewed as raw bytes (:attr:`SharedSlab.buf`). The creator owns it;
  an attacher only maps it;
* crash-safe lifecycle — slabs unlink via owner-side finalizers even
  when :meth:`SharedSlab.close` is never called, segment names embed
  the creator PID so :func:`reap_orphans` can reclaim the leftovers of
  a crashed creator (run once per process, by the :func:`shm_available`
  probe), and every open is unregistered from the ``resource_tracker``
  so a process exit can neither unlink a live segment nor warn about
  one it merely mapped.

Every consumer treats shared memory as an optimization with a plain
HTTP-body fallback — no request ever fails because shm is unavailable.
"""

from __future__ import annotations

import os
import secrets
import threading
from pathlib import Path

from repro.utils.logging import get_logger

__all__ = [
    "SLAB_PREFIX",
    "SharedSlab",
    "reap_orphans",
    "shm_available",
]

logger = get_logger("runtime.shm")

#: segment-name prefix; the embedded PID is what makes orphan reaping safe
SLAB_PREFIX = "repro-slab"

_SHM_DIR = Path("/dev/shm")

_available_lock = threading.Lock()
_available: bool | None = None


def _shared_memory():
    from multiprocessing import shared_memory

    return shared_memory


def shm_available() -> bool:
    """Whether POSIX shared memory actually works here (probed once).

    A platform can expose the module but refuse segments (no ``/dev/shm``
    mount, seccomp, exhausted shm quota) — probe with a tiny create/attach
    round-trip instead of trusting the import. A successful probe also
    reaps the orphaned slabs of crashed processes (:func:`reap_orphans`),
    so every process that is about to create or attach slabs — a router
    before its first scatter, a gateway enabling ``shm_ingest`` — has
    swept them once.
    """
    global _available
    if _available is not None:
        return _available
    with _available_lock:
        if _available is not None:
            return _available
        try:
            slab = SharedSlab.create_bytes(64)
            try:
                attached = SharedSlab.attach_bytes(slab.name)
                attached.close()
            finally:
                slab.close()
            available = True
        except Exception:  # pragma: no cover - platform-dependent
            logger.info("shared-memory data plane unavailable", exc_info=True)
            available = False
        if available:
            reap_orphans()
        _available = available
    return _available


def _untrack(shm) -> None:
    """Detach a segment from the resource tracker.

    On POSIX Pythons < 3.13 ``SharedMemory.__init__`` registers every
    open — including attach-only ones — so an attaching process exiting
    would have the tracker unlink a slab its creator still owns (and
    warn about a "leak" it never had). Creators untrack too, and slab
    lifecycle is owned entirely by the finalizers here plus
    :func:`reap_orphans`.

    The tracker keeps one name set for the whole process tree, so a
    name registered twice before it is unregistered holds one entry,
    and the second unregister fails inside the tracker (a ``KeyError``
    traceback on stderr). Register/unregister pairs therefore must not
    overlap per name: each slab has one creator and at most one
    attacher, strictly in sequence — the attacher opens the segment
    only after the creator's open has returned, which is how the
    router's hand-off works (create, write, then send the name).
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
        pass  # reaped by someone else (orphan sweep) — already gone
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
        """Create an owned raw-byte slab (router scatter bodies)."""
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


# ---------------------------------------------------------------------------
# orphan reaping
# ---------------------------------------------------------------------------
def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):  # pragma: no cover - other owner
        return True
    return True


def reap_orphans() -> int:
    """Unlink slab segments whose creating process is gone.

    Scans ``/dev/shm`` for ``repro-slab-<pid>-*`` entries and removes the
    ones whose PID no longer exists — the leftovers of a creator that
    died before its finalizers ran. :func:`shm_available` runs it once
    per process, so a crashed router cannot leak shared memory past its
    successor. Best-effort by design: never raises.
    """
    reaped = 0
    try:
        entries = list(_SHM_DIR.iterdir()) if _SHM_DIR.is_dir() else []
    except OSError:  # pragma: no cover - /dev/shm unreadable
        return 0
    for entry in entries:
        parts = entry.name.split("-")
        if len(parts) < 4 or "-".join(parts[:2]) != SLAB_PREFIX:
            continue
        try:
            pid = int(parts[2])
        except ValueError:
            continue
        if pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            entry.unlink()
            reaped += 1
        except OSError:  # pragma: no cover - raced another reaper
            pass
    if reaped:
        logger.info("reaped %d orphaned shared-memory slab(s)", reaped)
    return reaped
