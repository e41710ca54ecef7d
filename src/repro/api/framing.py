"""Binary columnar wire frames: typed buffers from the socket to the kernel.

The JSON tier (:mod:`repro.api.protocol`) builds a Python object per
cell on both ends of every HTTP validate. A *frame* keeps columns as
typed buffers instead: numeric columns travel as raw little-endian
float64, categorical columns as offset-encoded UTF-8 with a validity
bitmap, and the decoder hands the buffers straight to
:class:`~repro.data.table.Table` /
:meth:`~repro.data.plan.TransformPlan.transform_into` with zero
intermediate row objects. Missing-value structure is preserved
bit-exactly against the JSON tier: numeric missing is NaN (any payload),
categorical missing is a cleared validity bit.

Frame layout (FRAME_VERSION 1; all integers little-endian)::

    offset  size  field
    0       4     magic  b"RPRF"
    4       2     frame version  (u16) == 1
    6       2     flags          (u16) == 0, reserved
    8       8     frame_length   (u64) — total frame bytes, magic included
    16      4     meta_length    (u32) — byte length of the meta JSON
    20      m     meta — UTF-8 JSON object (sorted keys, no NaN tokens):
                    {"n_rows": int,
                     "columns": [{"name": str, "kind": "numeric"|"categorical"}, ...],
                     "arrays":  [{"name": str, "dtype": str, "shape": [int, ...]}, ...],
                     "extra":   {...}}          # optional JSON side-channel
    —       —     zero padding to an 8-byte boundary
    then one payload section per meta column, in meta order,
    each zero-padded to an 8-byte boundary:
      numeric      n_rows × 8 bytes, raw "<f8" (NaN bits travel verbatim)
      categorical  validity bitmap, ceil(n_rows/8) bytes, LSB-first
                     (bit i of byte j covers row j*8+i; 1 = present)
                   zero padding to a 4-byte boundary
                   offsets, (n_rows+1) × 4 bytes "<u4" — cumulative byte
                     offsets into the data section; offsets[0] == 0,
                     non-decreasing (missing rows span zero bytes)
                   data, offsets[n_rows] bytes of UTF-8 (NULs allowed)
    then one payload section per meta array, in meta order, each
    zero-padded to an 8-byte boundary: the raw C-order buffer
    (prod(shape) × itemsize bytes; dtype restricted to _ARRAY_DTYPES).

Because ``frame_length`` sits at a fixed offset, frames are
self-delimiting: a byte stream (or a file on disk) may simply
concatenate frames, which is exactly how the chunked
``/validate_stream`` transport and out-of-core frame *files* work —
a frame file is a valid framed request body and vice versa.

Safety: every declared length is validated against the actual buffer
*before* any allocation or ``np.frombuffer`` view is taken, offsets are
checked monotone, and array dtypes come from a closed safelist — a
hostile frame fails with :class:`FrameError` (transports: HTTP 400), an
oversized one with :class:`FrameSizeError` (HTTP 413); neither can make
the decoder over-allocate.

Evolution discipline mirrors the JSON tier: additive meta fields ride
under :data:`repro.api.protocol.CODEC_REVISION`; changing the binary
layout itself takes a :data:`FRAME_VERSION` bump (old decoders reject
it loudly). Golden byte fixtures live in ``tests/golden/frame_*.bin``.
"""

from __future__ import annotations

import json
import mmap
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.data.schema import ColumnKind, ColumnSpec, TableSchema
from repro.data.table import Table
from repro.exceptions import FrameError, FrameSizeError

__all__ = [
    "FRAME_VERSION",
    "FRAME_CONTENT_TYPE",
    "Frame",
    "encode_frame",
    "decode_frame",
    "frame_length",
    "FrameSplitter",
    "iter_frames",
    "report_to_frame",
    "report_from_frame",
    "matches_frame_content_type",
    "FrameFileWriter",
    "open_frame_file",
    "iter_file_frames",
    "write_frame_file",
]

MAGIC = b"RPRF"
FRAME_VERSION = 1

#: negotiated via ``Content-Type`` / ``Accept`` on the HTTP gateway
FRAME_CONTENT_TYPE = "application/x-repro-frame"

_HEADER = struct.Struct("<4sHHQI")  # magic, version, flags, frame_length, meta_length
_HEADER_SIZE = _HEADER.size  # 20

#: dtypes an ``arrays`` entry may declare — a closed safelist so a
#: hostile meta cannot smuggle object/void dtypes into ``np.frombuffer``
_ARRAY_DTYPES = ("<f8", "<f4", "<i8", "<i4", "<u8", "<u4", "|b1", "|u1")

#: hard ceiling on rows per frame: offsets are u32, so categorical data
#: is capped at 4 GiB per column per frame anyway; chunked writers split
#: long tables into many frames well below this
MAX_FRAME_ROWS = 1 << 40


def _pad8(n: int) -> int:
    return (-n) % 8


def _pad4(n: int) -> int:
    return (-n) % 4


def matches_frame_content_type(value: str | None) -> bool:
    """Is this ``Content-Type``/``Accept`` media type the frame codec's?

    Parameters after ``;`` are ignored; for ``Accept`` headers pass each
    comma-separated alternative (or the raw header — a substring match
    on the exact type token is performed across alternatives).
    """
    if not value:
        return False
    for alternative in value.split(","):
        if alternative.split(";", 1)[0].strip().lower() == FRAME_CONTENT_TYPE:
            return True
    return False


@dataclass
class Frame:
    """A decoded frame: an optional table plus JSON/array side-channels."""

    table: Table | None = None
    extra: dict = field(default_factory=dict)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------
def _encode_categorical(column: np.ndarray, name: str) -> list[bytes]:
    """Payload parts: validity bitmap | pad4 | u32 offsets | UTF-8 data."""
    n = len(column)
    valid = np.empty(n, dtype=bool)
    encoded: list[bytes] = []
    append = encoded.append
    for i, value in enumerate(column):
        if value is None:
            valid[i] = False
            append(b"")
        else:
            valid[i] = True
            append(str(value).encode("utf-8"))
    lengths = np.fromiter(map(len, encoded), dtype=np.uint64, count=n)
    offsets = np.zeros(n + 1, dtype=np.uint64)
    np.cumsum(lengths, out=offsets[1:])
    data_length = int(offsets[n])
    if data_length > 0xFFFFFFFF:
        raise FrameError(
            f"column {name!r} holds {data_length} UTF-8 bytes; u32 offsets cap a "
            "single frame's column data at 4 GiB — split the table into chunks"
        )
    bitmap = np.packbits(valid, bitorder="little").tobytes()
    return [
        bitmap,
        b"\x00" * _pad4(len(bitmap)),
        offsets.astype("<u4").tobytes(),
        b"".join(encoded),
    ]


def _little_endian(array: np.ndarray) -> np.ndarray:
    """C-contiguous little-endian view/copy suitable for raw transport."""
    array = np.ascontiguousarray(array)
    if array.dtype.byteorder == ">":
        array = array.astype(array.dtype.newbyteorder("<"))
    return array


def encode_frame(
    table: Table | None = None,
    *,
    extra: dict | None = None,
    arrays: dict[str, np.ndarray] | None = None,
) -> bytes:
    """Encode a table (and/or JSON ``extra``, named ``arrays``) as one frame.

    Deterministic: identical inputs produce identical bytes (meta keys
    are sorted, payload order follows schema/array-name order), which is
    what makes golden byte fixtures possible.
    """
    n_rows = 0 if table is None else int(table.n_rows)
    meta: dict = {"n_rows": n_rows, "columns": []}
    payloads: list[bytes] = []

    if table is not None:
        for spec in table.schema:
            meta["columns"].append({"name": spec.name, "kind": spec.kind})
            column = table.column(spec.name)
            if spec.is_numeric:
                section = [_little_endian(np.asarray(column, dtype=np.float64)).tobytes()]
            else:
                section = _encode_categorical(_as_object_column(column), spec.name)
            body = b"".join(section)
            payloads.append(body + b"\x00" * _pad8(len(body)))

    if arrays:
        meta["arrays"] = []
        for name in sorted(arrays):
            array = _little_endian(np.asarray(arrays[name]))
            if array.dtype.str not in _ARRAY_DTYPES:
                raise FrameError(
                    f"array {name!r} has unsupported dtype {array.dtype.str!r}; "
                    f"frames carry {_ARRAY_DTYPES}"
                )
            meta["arrays"].append(
                {"name": name, "dtype": array.dtype.str, "shape": list(array.shape)}
            )
            body = array.tobytes()
            payloads.append(body + b"\x00" * _pad8(len(body)))

    if extra:
        meta["extra"] = extra

    meta_bytes = json.dumps(
        meta, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    meta_padding = _pad8(_HEADER_SIZE + len(meta_bytes))
    frame_len = _HEADER_SIZE + len(meta_bytes) + meta_padding + sum(map(len, payloads))
    header = _HEADER.pack(MAGIC, FRAME_VERSION, 0, frame_len, len(meta_bytes))
    return b"".join([header, meta_bytes, b"\x00" * meta_padding, *payloads])


def _as_object_column(column) -> np.ndarray:
    """Materialize a categorical column (tolerates lazy frame columns)."""
    if isinstance(column, np.ndarray):
        return column
    return column[0 : len(column)]


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------
def frame_length(buf) -> int:
    """Total byte length of the frame starting at ``buf[0]``.

    Needs only the fixed 20-byte header; raises :class:`FrameError` on a
    bad magic/version before trusting any length field.
    """
    view = memoryview(buf)
    if len(view) < _HEADER_SIZE:
        raise FrameError(
            f"frame header needs {_HEADER_SIZE} bytes, got {len(view)}"
        )
    magic, version, flags, length, meta_length = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {bytes(magic)!r}; expected {MAGIC!r}")
    if version != FRAME_VERSION:
        raise FrameError(
            f"unsupported frame version {version}; this build speaks {FRAME_VERSION}"
        )
    if flags != 0:
        raise FrameError(f"unsupported frame flags 0x{flags:04x}")
    if length < _HEADER_SIZE + meta_length:
        raise FrameError(
            f"declared frame length {length} cannot hold its own header and meta"
        )
    return int(length)


class _Cursor:
    """Bounds-checked reader over one frame's bytes."""

    __slots__ = ("view", "pos")

    def __init__(self, view: memoryview, pos: int) -> None:
        self.view = view
        self.pos = pos

    def take(self, n: int, what: str) -> memoryview:
        if n < 0 or self.pos + n > len(self.view):
            raise FrameError(
                f"truncated frame: {what} declares {n} bytes at offset {self.pos}, "
                f"but only {len(self.view) - self.pos} remain"
            )
        chunk = self.view[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def skip_pad(self, pad: int) -> None:
        self.take(pad, "padding")


def _meta_int(meta: dict, key: str, maximum: int) -> int:
    value = meta.get(key)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise FrameError(f"frame meta {key!r} must be a non-negative integer, got {value!r}")
    if value > maximum:
        raise FrameError(f"frame meta {key!r} = {value} exceeds the supported maximum")
    return value


def _decode_meta(view: memoryview) -> tuple[dict, int]:
    length = frame_length(view)
    if length != len(view):
        raise FrameError(
            f"frame declares {length} bytes but {len(view)} were provided"
        )
    (_, _, _, _, meta_length) = _HEADER.unpack_from(view, 0)
    if _HEADER_SIZE + meta_length > len(view):
        raise FrameError("truncated frame: meta extends past the end of the buffer")
    try:
        meta = json.loads(bytes(view[_HEADER_SIZE : _HEADER_SIZE + meta_length]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"malformed frame meta: {exc}") from None
    if not isinstance(meta, dict):
        raise FrameError("frame meta must be a JSON object")
    payload_start = _HEADER_SIZE + meta_length + _pad8(_HEADER_SIZE + meta_length)
    return meta, payload_start


def _decode_string_column(
    cursor: _Cursor, n_rows: int, name: str
) -> np.ndarray:
    bitmap = cursor.take((n_rows + 7) // 8, f"column {name!r} validity bitmap")
    cursor.skip_pad(_pad4((n_rows + 7) // 8))
    offsets_raw = cursor.take((n_rows + 1) * 4, f"column {name!r} offsets")
    offsets = np.frombuffer(offsets_raw, dtype="<u4")
    if n_rows and (offsets[0] != 0 or np.any(np.diff(offsets.astype(np.int64)) < 0)):
        raise FrameError(f"column {name!r} offsets are not monotone from zero")
    if n_rows == 0:
        if offsets[0] != 0:
            raise FrameError(f"column {name!r} offsets are not monotone from zero")
    data = cursor.take(int(offsets[-1]), f"column {name!r} string data")
    column = np.empty(n_rows, dtype=object)
    if n_rows:
        offs = offsets.astype(np.int64)
        starts = offs[:-1]
        lengths = offs[1:] - starts
        column[:] = ""
        buffer = np.frombuffer(data, dtype=np.uint8)
        raw = bytes(data)
        longest = int(lengths.max())
        if longest <= 64:
            widths = np.flatnonzero(np.bincount(lengths, minlength=1)).tolist()
        else:
            widths = np.unique(lengths).tolist()
        # With one distinct nonzero width, the data section is exactly
        # the row-ordered concatenation of the non-empty values — no
        # gather needed, a reshape suffices.
        single_width = len([w for w in widths if w]) == 1
        for width in widths:
            if width == 0:
                continue
            rows = np.flatnonzero(lengths == width)
            if width <= 8 and rows.size > 1:
                # Vectorized: pack every value of this width into one
                # zero-padded u64 key, dedupe the keys in C, and decode
                # each *distinct* value exactly once — on low-cardinality
                # categorical columns this replaces len(rows) Python
                # slice+decode operations with a handful.
                packed = np.zeros((rows.size, 8), dtype=np.uint8)
                if single_width:
                    packed[:, :width] = buffer[: rows.size * width].reshape(
                        rows.size, width
                    )
                else:
                    packed[:, :width] = buffer[starts[rows, None] + np.arange(width)]
                keys = packed.view("<u8").ravel()
                uniq = np.unique(keys)
                inverse = np.searchsorted(uniq, keys)
                uniq_bytes = uniq.view(np.uint8).tobytes()
                decoded = np.empty(uniq.size, dtype=object)
                try:
                    decoded[:] = [
                        uniq_bytes[p : p + width].decode("utf-8")
                        for p in range(0, len(uniq_bytes), 8)
                    ]
                except UnicodeDecodeError as exc:
                    raise FrameError(
                        f"column {name!r} data is not valid UTF-8: {exc}"
                    ) from None
                column[rows] = decoded[inverse]
            else:
                # Wide or singleton group: direct slices with an
                # interning memo so repeated values decode once.
                memo: dict[bytes, str] = {}
                out = np.empty(rows.size, dtype=object)
                values = []
                for s in starts[rows].tolist():
                    piece = raw[s : s + width]
                    got = memo.get(piece)
                    if got is None:
                        try:
                            got = piece.decode("utf-8")
                        except UnicodeDecodeError as exc:
                            raise FrameError(
                                f"column {name!r} data is not valid UTF-8: {exc}"
                            ) from None
                        memo[piece] = got
                    values.append(got)
                out[:] = values
                column[rows] = out
        valid = np.unpackbits(
            np.frombuffer(bitmap, dtype=np.uint8), count=n_rows, bitorder="little"
        ).astype(bool)
        column[~valid] = None
    return column


def _decode_columns(meta: dict, cursor: _Cursor, schema: TableSchema | None) -> Table | None:
    n_rows = _meta_int(meta, "n_rows", MAX_FRAME_ROWS)
    described = meta.get("columns", [])
    if not isinstance(described, list):
        raise FrameError("frame meta 'columns' must be a list")
    specs: list[tuple[str, str]] = []
    for entry in described:
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("name"), str)
            or entry.get("kind") not in ColumnKind.ALL
        ):
            raise FrameError(f"malformed frame column descriptor: {entry!r}")
        specs.append((entry["name"], entry["kind"]))
    if len({name for name, _ in specs}) != len(specs):
        raise FrameError("frame declares duplicate column names")
    if not specs:
        return None
    if schema is not None:
        declared = [(spec.name, spec.kind) for spec in schema]
        if declared != specs:
            raise FrameError(
                f"frame columns {specs} do not match the expected schema {declared} "
                "(frames require exact name/kind/order agreement)"
            )
    else:
        schema = TableSchema([ColumnSpec(name, kind) for name, kind in specs])
    columns: dict[str, np.ndarray] = {}
    for name, kind in specs:
        start = cursor.pos
        if kind == ColumnKind.NUMERIC:
            raw = cursor.take(n_rows * 8, f"column {name!r} float64 data")
            columns[name] = np.frombuffer(raw, dtype="<f8")
        else:
            columns[name] = _decode_string_column(cursor, n_rows, name)
        cursor.skip_pad(_pad8(cursor.pos - start))
    return Table._wrap(schema, columns, n_rows)


def _decode_arrays(meta: dict, cursor: _Cursor) -> dict[str, np.ndarray]:
    described = meta.get("arrays", [])
    if not isinstance(described, list):
        raise FrameError("frame meta 'arrays' must be a list")
    arrays: dict[str, np.ndarray] = {}
    for entry in described:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise FrameError(f"malformed frame array descriptor: {entry!r}")
        name = entry["name"]
        dtype = entry.get("dtype")
        if dtype not in _ARRAY_DTYPES:
            raise FrameError(
                f"array {name!r} declares unsupported dtype {dtype!r}; "
                f"frames carry {_ARRAY_DTYPES}"
            )
        shape = entry.get("shape")
        if (
            not isinstance(shape, list)
            or len(shape) > 4
            or any(not isinstance(d, int) or isinstance(d, bool) or d < 0 for d in shape)
        ):
            raise FrameError(f"array {name!r} declares a malformed shape {shape!r}")
        count = 1
        for dim in shape:
            count *= dim
        itemsize = np.dtype(dtype).itemsize
        # Bounds are enforced by the cursor *before* frombuffer, so a
        # hostile shape cannot reserve memory: views alias frame bytes.
        raw = cursor.take(count * itemsize, f"array {name!r} data")
        arrays[name] = np.frombuffer(raw, dtype=np.dtype(dtype)).reshape(tuple(shape))
        cursor.skip_pad(_pad8(count * itemsize))
    return arrays


def decode_frame(buf, schema: TableSchema | None = None) -> Frame:
    """Decode one complete frame.

    ``buf`` must hold exactly one frame (``frame_length(buf) ==
    len(buf)``). Numeric columns and arrays are zero-copy read-only
    views into ``buf``; categorical columns decode their UTF-8 payload
    into an object array of ``str``/``None``.

    ``schema`` pins the expected table schema: column names, kinds, and
    order must match exactly (the decoded table then carries the full
    pipeline schema, categories included).
    """
    view = memoryview(buf)
    if view.ndim != 1 or view.itemsize != 1:
        view = view.cast("B")
    meta, payload_start = _decode_meta(view)
    cursor = _Cursor(view, payload_start)
    table = _decode_columns(meta, cursor, schema)
    arrays = _decode_arrays(meta, cursor)
    extra = meta.get("extra", {})
    if not isinstance(extra, dict):
        raise FrameError("frame meta 'extra' must be a JSON object")
    if cursor.pos != len(view):
        raise FrameError(
            f"frame has {len(view) - cursor.pos} trailing bytes past its payloads"
        )
    return Frame(table=table, extra=extra, arrays=arrays)


class FrameSplitter:
    """Incremental frame splitter: push byte blocks, take whole frames.

    Frames are self-delimiting via the ``frame_length`` header field, so
    no separator is needed. ``max_frame_bytes`` bounds what a single
    frame may make the caller buffer (:class:`FrameSizeError` — the 413
    of the frame world); buffering stops as soon as a declared length
    exceeds it. :meth:`finish` rejects a truncated final frame.
    """

    def __init__(self, max_frame_bytes: int | None = None) -> None:
        self._buffer = bytearray()
        self._limit = max_frame_bytes

    def push(self, block) -> "list[bytes]":
        """Buffer ``block``; return every frame it completes, in order."""
        buffer, limit = self._buffer, self._limit
        buffer += block  # in place: ``buffer`` is ``self._buffer``
        frames: "list[bytes]" = []
        while len(buffer) >= _HEADER_SIZE:
            needed = frame_length(buffer)
            if limit is not None and needed > limit:
                raise FrameSizeError(
                    f"frame declares {needed} bytes, exceeding the {limit}-byte limit"
                )
            if len(buffer) < needed:
                break
            frames.append(bytes(buffer[:needed]))
            del buffer[:needed]
        if limit is not None and len(buffer) > limit:
            raise FrameSizeError(
                f"framed stream buffered {len(buffer)} bytes without completing "
                f"a frame (limit {limit})"
            )
        return frames

    def finish(self) -> None:
        """The stream ended: any buffered bytes are a truncated frame."""
        if self._buffer:
            raise FrameError(
                f"framed stream ended with {len(self._buffer)} trailing bytes "
                "(truncated final frame)"
            )


def iter_frames(
    blocks: Iterable[bytes], max_frame_bytes: int | None = None
) -> Iterator[memoryview]:
    """Split a byte-block stream into per-frame memoryviews.

    The iterator form of :class:`FrameSplitter` for framed request
    bodies and frame files.
    """
    splitter = FrameSplitter(max_frame_bytes)
    for block in blocks:
        for frame in splitter.push(block):
            yield memoryview(frame)
    splitter.finish()


# ---------------------------------------------------------------------------
# ValidationReport frames
# ---------------------------------------------------------------------------
def report_to_frame(report, errors: str = "sparse") -> bytes:
    """Encode a :class:`~repro.core.validator.ValidationReport` as a frame.

    Scalars and feature names ride the JSON ``extra``; flags and error
    values ride binary arrays (``"dense"``: full matrices at 8 bytes a
    cell instead of JSON decimal text; ``"sparse"``: values at flagged
    coordinates only; ``"none"``: flags and verdict only) — the same
    three fidelity modes as :func:`repro.api.protocol.report_to_dict`,
    decoding to the identical report.
    """
    from repro.api.protocol import envelope

    if errors not in ("dense", "sparse", "none"):
        raise FrameError(f"unknown errors mode {errors!r}")
    extra = envelope("validation_report")
    extra.update(
        n_rows=int(report.row_flags.shape[0]),
        n_flagged=int(report.n_flagged),
        n_features=int(report.cell_flags.shape[1]) if report.cell_flags.ndim == 2 else 0,
        feature_names=list(report.feature_names),
        threshold=float(report.threshold),
        flagged_fraction=float(report.flagged_fraction),
        is_problematic=bool(report.is_problematic),
        errors=errors,
    )
    if report.rule_report is not None:
        # Additive, mirroring report_to_dict: the key is *omitted* (not
        # null) when rules are off, so rules-off frames stay byte-
        # identical to pre-rules encoders.
        extra["rule_report"] = report.rule_report.to_dict()
    arrays = {
        "row_flags": np.asarray(report.row_flags, dtype=bool),
        "cell_flags": np.asarray(report.cell_flags, dtype=bool),
    }
    if errors == "dense":
        arrays["sample_errors"] = np.asarray(report.sample_errors, dtype=np.float64)
        arrays["cell_errors"] = np.asarray(report.cell_errors, dtype=np.float64)
    elif errors == "sparse":
        flagged = np.flatnonzero(report.row_flags)
        rows, cols = np.nonzero(report.cell_flags)
        arrays["sample_values"] = np.asarray(report.sample_errors, dtype=np.float64)[flagged]
        arrays["cell_values"] = np.asarray(report.cell_errors, dtype=np.float64)[rows, cols]
    return encode_frame(extra=extra, arrays=arrays)


def report_from_frame(frame: Frame):
    """Decode a :func:`report_to_frame` frame (exact under "dense")."""
    from repro.api.protocol import check_envelope
    from repro.core.validator import ValidationReport

    payload = check_envelope(frame.extra, "validation_report")
    mode = payload.get("errors")
    if mode not in ("dense", "sparse", "none"):
        raise FrameError(f"unknown errors mode {mode!r}")
    try:
        row_flags = np.asarray(frame.arrays["row_flags"], dtype=bool)
        cell_flags = np.asarray(frame.arrays["cell_flags"], dtype=bool)
        if mode == "dense":
            sample_errors = frame.arrays["sample_errors"].astype(np.float64, copy=True)
            cell_errors = frame.arrays["cell_errors"].astype(np.float64, copy=True)
        else:
            sample_errors = np.zeros(row_flags.shape[0], dtype=np.float64)
            cell_errors = np.zeros(cell_flags.shape, dtype=np.float64)
            if mode == "sparse":
                sample_errors[np.flatnonzero(row_flags)] = frame.arrays["sample_values"]
                cell_errors[np.nonzero(cell_flags)] = frame.arrays["cell_values"]
    except KeyError as exc:
        raise FrameError(f"report frame is missing array {exc.args[0]!r}") from None
    except (ValueError, IndexError) as exc:
        raise FrameError(f"report frame arrays are inconsistent: {exc}") from None
    rule_payload = payload.get("rule_report")
    rule_report = None
    if rule_payload is not None:
        from repro.rules import RuleReport

        rule_report = RuleReport.from_dict(rule_payload)
    return ValidationReport(
        sample_errors=sample_errors,
        cell_errors=cell_errors,
        row_flags=row_flags,
        cell_flags=cell_flags,
        threshold=float(payload["threshold"]),
        flagged_fraction=float(payload["flagged_fraction"]),
        is_problematic=bool(payload["is_problematic"]),
        feature_names=list(payload["feature_names"]),
        rule_report=rule_report,
    )


# ---------------------------------------------------------------------------
# frame files: memory-mapped out-of-core tables
# ---------------------------------------------------------------------------
class FrameFileWriter:
    """Spill tables to a frame file chunk by chunk, never holding them whole.

    Each :meth:`write` appends its rows as self-delimiting frames of at
    most ``chunk_rows`` rows (the granularity at which readers later
    page data back in); the resulting file is simultaneously a valid
    framed ``/validate_stream`` request body.
    """

    def __init__(self, path, chunk_rows: int = 65536) -> None:
        if chunk_rows < 1:
            raise ValueError(f"chunk_rows must be positive, got {chunk_rows}")
        self.path = Path(path)
        self.chunk_rows = chunk_rows
        self.schema: TableSchema | None = None
        self.rows_written = 0
        self._handle = open(self.path, "wb")

    def write(self, table: Table) -> None:
        if self._handle is None:
            raise ValueError("writer is closed")
        if self.schema is None:
            self.schema = table.schema
        elif table.schema != self.schema:
            from repro.exceptions import SchemaError

            raise SchemaError("all chunks of a frame file must share one schema")
        for start in range(0, max(table.n_rows, 1), self.chunk_rows):
            chunk = table.slice_rows(start, start + self.chunk_rows)
            if chunk.n_rows == 0 and table.n_rows > 0:
                break
            self._handle.write(encode_frame(chunk))
            self.rows_written += chunk.n_rows

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "FrameFileWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def write_frame_file(table: Table, path, chunk_rows: int = 65536) -> Path:
    """Spill ``table`` to ``path`` as a chunked frame file."""
    with FrameFileWriter(path, chunk_rows=chunk_rows) as writer:
        writer.write(table)
    return Path(path)


def iter_file_frames(path, max_frame_bytes: int | None = None) -> Iterator[bytes]:
    """Yield the raw bytes of each frame in a frame file, in order.

    The zero-re-encode upload path: these byte chunks can go straight
    onto a framed ``/validate_stream`` request body.
    """
    with open(path, "rb") as handle:
        def blocks() -> Iterator[bytes]:
            while True:
                block = handle.read(1 << 20)
                if not block:
                    return
                yield block

        for view in iter_frames(blocks(), max_frame_bytes=max_frame_bytes):
            yield bytes(view)


class _NumericSegment:
    """One frame's worth of a numeric column: a view over the file mmap."""

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    def decode(self, start: int, stop: int) -> np.ndarray:
        return self.values[start:stop]


class _StringSegment:
    """One frame's worth of a categorical column, decoded on demand."""

    __slots__ = ("bitmap", "offsets", "data")

    def __init__(self, bitmap: memoryview, offsets: np.ndarray, data: memoryview) -> None:
        self.bitmap = bitmap
        self.offsets = offsets
        self.data = data

    def decode(self, start: int, stop: int) -> np.ndarray:
        n = stop - start
        column = np.empty(n, dtype=object)
        if n <= 0:
            return column
        ends = self.offsets[start : stop + 1].tolist()
        base = ends[0]
        raw = bytes(self.data[base : ends[-1]])
        text = raw.decode("utf-8")
        if len(text) == len(raw):
            column[:] = [text[ends[i] - base : ends[i + 1] - base] for i in range(n)]
        else:
            column[:] = [
                raw[ends[i] - base : ends[i + 1] - base].decode("utf-8") for i in range(n)
            ]
        bits = np.frombuffer(self.bitmap, dtype=np.uint8)[start // 8 : (stop + 7) // 8]
        valid = np.unpackbits(bits, bitorder="little")[
            start - (start // 8) * 8 : start - (start // 8) * 8 + n
        ].astype(bool)
        column[~valid] = None
        return column


class _MappedColumn:
    """Lazy ndarray-ish column over per-frame segments of a mapped file.

    Slicing materializes only the requested row window (numeric windows
    inside one segment are zero-copy mmap views, paged by the OS), so
    the streaming path touches O(chunk) memory however large the file.
    ``__array__`` lets whole-column NumPy ops (``missing_mask`` et al.)
    still work on tables small enough to materialize.
    """

    __slots__ = ("n_rows", "starts", "segments", "_dtype")

    def __init__(self, starts: list[int], segments: list, n_rows: int, dtype) -> None:
        self.starts = starts  # global start row of each segment
        self.segments = segments
        self.n_rows = n_rows
        self._dtype = np.dtype(dtype)

    @property
    def dtype(self):
        return self._dtype

    @property
    def shape(self):
        return (self.n_rows,)

    def __len__(self) -> int:
        return self.n_rows

    def _range(self, start: int, stop: int) -> np.ndarray:
        if stop <= start:
            return np.empty(0, dtype=self._dtype)
        import bisect

        first = bisect.bisect_right(self.starts, start) - 1
        parts: list[np.ndarray] = []
        position = start
        for index in range(first, len(self.segments)):
            seg_start = self.starts[index]
            seg_stop = self.starts[index + 1] if index + 1 < len(self.starts) else self.n_rows
            if position >= stop:
                break
            local_start = position - seg_start
            local_stop = min(stop, seg_stop) - seg_start
            parts.append(self.segments[index].decode(local_start, local_stop))
            position = seg_stop
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def __getitem__(self, key):
        if isinstance(key, slice):
            start, stop, step = key.indices(self.n_rows)
            window = self._range(start, stop)
            return window[::step] if step != 1 else window
        if isinstance(key, (int, np.integer)):
            index = int(key)
            if index < 0:
                index += self.n_rows
            if not 0 <= index < self.n_rows:
                raise IndexError(f"row {key} out of range for {self.n_rows} rows")
            return self._range(index, index + 1)[0]
        indices = np.asarray(key)
        if indices.dtype == bool:
            indices = np.flatnonzero(indices)
        return self._gather(indices.astype(np.int64))

    def _gather(self, indices: np.ndarray) -> np.ndarray:
        out = np.empty(len(indices), dtype=self._dtype)
        wrapped = np.where(indices < 0, indices + self.n_rows, indices)
        if wrapped.size and (wrapped.min() < 0 or wrapped.max() >= self.n_rows):
            raise IndexError("row index out of range")
        for index, segment in enumerate(self.segments):
            seg_start = self.starts[index]
            seg_stop = self.starts[index + 1] if index + 1 < len(self.starts) else self.n_rows
            hit = (wrapped >= seg_start) & (wrapped < seg_stop)
            if hit.any():
                values = segment.decode(0, seg_stop - seg_start)
                out[hit] = values[wrapped[hit] - seg_start]
        return out

    def __iter__(self):
        for index in range(len(self.segments)):
            seg_start = self.starts[index]
            seg_stop = self.starts[index + 1] if index + 1 < len(self.starts) else self.n_rows
            yield from self.segments[index].decode(0, seg_stop - seg_start)

    def __array__(self, dtype=None, copy=None):
        window = self._range(0, self.n_rows)
        return window if dtype is None else window.astype(dtype)

    def copy(self) -> np.ndarray:
        return self._range(0, self.n_rows).copy()

    def tolist(self) -> list:
        return self._range(0, self.n_rows).tolist()


def open_frame_file(path, schema: TableSchema | None = None) -> Table:
    """Memory-map a frame file as an out-of-core :class:`Table`.

    The file is parsed frame by frame (headers only); column payloads
    stay on disk behind ``mmap`` until a row window is sliced. The
    returned table supports the full streaming path —
    ``table.column(name)[start:stop]``, :meth:`Table.slice_rows`,
    :meth:`~repro.data.plan.TransformPlan.transform_chunks` — with
    memory bounded by the window, so a file much larger than RAM
    validates out-of-core. Whole-column operations (``missing_mask``,
    ``copy``) still work but materialize the column.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        if handle.seek(0, 2) == 0:
            raise FrameError(f"frame file {path} is empty")
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    view = memoryview(mapped)
    position = 0
    starts: list[int] = []
    n_rows = 0
    columns: dict[str, list] = {}
    file_schema: TableSchema | None = None
    while position < len(view):
        length = frame_length(view[position:])
        if position + length > len(view):
            raise FrameError(f"truncated final frame in {path}")
        frame_view = view[position : position + length]
        meta, payload_start = _decode_meta(frame_view)
        frame_rows = _meta_int(meta, "n_rows", MAX_FRAME_ROWS)
        cursor = _Cursor(frame_view, payload_start)
        described = meta.get("columns", [])
        if not described:
            raise FrameError(f"frame file {path} contains a table-less frame")
        specs = [(entry.get("name"), entry.get("kind")) for entry in described]
        if file_schema is None:
            if schema is not None:
                declared = [(spec.name, spec.kind) for spec in schema]
                if declared != specs:
                    raise FrameError(
                        f"frame file columns {specs} do not match the expected "
                        f"schema {declared}"
                    )
                file_schema = schema
            else:
                file_schema = TableSchema([ColumnSpec(n, k) for n, k in specs])
            for name, kind in specs:
                columns[name] = []
        elif [(spec.name, spec.kind) for spec in file_schema] != specs:
            raise FrameError(f"frame file {path} changes schema mid-file")
        for name, kind in specs:
            section_start = cursor.pos
            if kind == ColumnKind.NUMERIC:
                raw = cursor.take(frame_rows * 8, f"column {name!r} float64 data")
                columns[name].append(_NumericSegment(np.frombuffer(raw, dtype="<f8")))
            else:
                bitmap = cursor.take((frame_rows + 7) // 8, f"column {name!r} bitmap")
                cursor.skip_pad(_pad4((frame_rows + 7) // 8))
                offsets_raw = cursor.take((frame_rows + 1) * 4, f"column {name!r} offsets")
                offsets = np.frombuffer(offsets_raw, dtype="<u4")
                if offsets[0] != 0 or (
                    frame_rows and np.any(np.diff(offsets.astype(np.int64)) < 0)
                ):
                    raise FrameError(f"column {name!r} offsets are not monotone from zero")
                data = cursor.take(int(offsets[-1]), f"column {name!r} string data")
                columns[name].append(_StringSegment(bitmap, offsets, data))
            cursor.skip_pad(_pad8(cursor.pos - section_start))
        starts.append(n_rows)
        n_rows += frame_rows
        position += length
    if file_schema is None:
        raise FrameError(f"frame file {path} holds no frames")
    mapped_columns: dict[str, np.ndarray] = {}
    for spec in file_schema:
        dtype = np.float64 if spec.is_numeric else object
        mapped_columns[spec.name] = _MappedColumn(starts, columns[spec.name], n_rows, dtype)
    table = Table._wrap(file_schema, mapped_columns, n_rows)
    table._frame_mmap = mapped  # keep the mapping alive with the table
    return table
