"""Shared-memory byte-slab tests: the :class:`SharedSlab` lifecycle.

No served request uses a slab; the class stays for the ``fleet-stream``
benchmark's traced pass (``perfbench/fleet.py``), which times one
create/copy/attach round trip per frame. These tests pin what that pass
relies on: bytes written by the creator read back through a mapping
attached by name, double-close is idempotent, and a dropped owner
reference unlinks its segment via the finalizer.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.runtime.shm import SLAB_PREFIX, SharedSlab

_SHM_DIR = Path("/dev/shm")


def slab_entries() -> set:
    """The repro slab segments currently present in /dev/shm."""
    if not _SHM_DIR.is_dir():
        return set()
    return {entry.name for entry in _SHM_DIR.iterdir() if entry.name.startswith(SLAB_PREFIX)}


# ---------------------------------------------------------------------------
# slab lifecycle
# ---------------------------------------------------------------------------
class TestSharedSlab:
    def test_byte_slab_roundtrip_and_no_matrix_view(self):
        payload = b"x" * 100
        with SharedSlab.create_bytes(len(payload)) as slab:
            slab.buf[: len(payload)] = payload
            attached = SharedSlab.attach_bytes(slab.name)
            try:
                assert bytes(attached.buf[: len(payload)]) == payload
                assert not hasattr(attached, "matrix")
            finally:
                attached.close()

    def test_double_close_is_idempotent(self):
        slab = SharedSlab.create_bytes(64)
        assert not slab.closed
        slab.close()
        assert slab.closed
        slab.close()  # second close: no-op, no raise
        assert slab.closed
        assert slab.name not in slab_entries()

    def test_dropped_reference_unlinks_via_finalizer(self):
        slab = SharedSlab.create_bytes(128)
        name = slab.name
        assert name in slab_entries()
        del slab
        import gc

        gc.collect()
        assert name not in slab_entries()

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            SharedSlab.create_bytes(0)
        with pytest.raises(ValueError):
            SharedSlab.create_bytes(-8)
