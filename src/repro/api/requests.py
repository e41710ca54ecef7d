"""Typed request objects for the wire-ready validation API.

A :class:`ValidateRequest`/:class:`RepairRequest` is what a remote
caller POSTs to the serving gateway: JSON row records plus options. Both
carry the same ``schema_version`` envelope as the result objects, but
:meth:`from_payload` also accepts the *bare* form (``{"records": [...]}``
with no envelope) so a plain ``curl`` call works; when an envelope is
present it is gated strictly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.protocol import check_envelope, envelope, jsonable
from repro.data.table import Table
from repro.exceptions import ProtocolError

__all__ = ["ValidateRequest", "RepairRequest"]


def _records_of(payload: dict) -> list[dict]:
    records = payload.get("records")
    if not isinstance(records, list) or any(not isinstance(r, dict) for r in records):
        raise ProtocolError("'records' must be a list of row objects")
    return records


def _integer_of(payload: dict, name: str, default: int | None = None) -> int | None:
    """The integer field ``name``; ``default`` when absent or null."""
    value = payload.get(name)
    if value is None:
        return default
    # Strictly integral: 2.9 (or True) must not silently become a count.
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise ProtocolError(f"{name!r} must be an integer, got {value!r}")
    try:
        as_float = float(value)
    except (ValueError, OverflowError):
        raise ProtocolError(f"{name!r} must be an integer, got {value!r}") from None
    if not as_float.is_integer():
        raise ProtocolError(f"{name!r} must be an integer, got {value!r}")
    return int(as_float)


@dataclass
class ValidateRequest:
    """One validation call: rows to judge, plus response options.

    Attributes
    ----------
    records:
        Row dicts (column name → value; ``null`` marks a missing cell).
    pipeline:
        Optional pipeline name; the gateway routes by URL, so when both
        are present they must agree.
    include_errors:
        Return dense per-row/per-cell error matrices instead of the
        sparse flagged-only encoding.
    """

    records: list[dict] = field(default_factory=list)
    pipeline: str | None = None
    include_errors: bool = False

    kind = "validate_request"

    def to_dict(self) -> dict:
        payload = envelope(self.kind)
        payload.update(
            pipeline=self.pipeline,
            records=jsonable(self.records),
            include_errors=bool(self.include_errors),
        )
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ValidateRequest":
        check_envelope(payload, cls.kind)
        return cls(
            records=_records_of(payload),
            pipeline=payload.get("pipeline"),
            include_errors=bool(payload.get("include_errors", False)),
        )

    @classmethod
    def from_payload(cls, payload: object, pipeline: str | None = None) -> "ValidateRequest":
        """Accept either the enveloped form or bare ``{"records": [...]}``."""
        if not isinstance(payload, dict):
            raise ProtocolError(f"expected a JSON object, got {type(payload).__name__}")
        if "schema_version" in payload or "kind" in payload:
            request = cls.from_dict(payload)
        else:
            request = cls(
                records=_records_of(payload),
                pipeline=payload.get("pipeline"),
                include_errors=bool(payload.get("include_errors", False)),
            )
        if request.pipeline is None:
            request.pipeline = pipeline
        return request

    @classmethod
    def from_options(cls, payload: object, pipeline: str | None = None) -> "ValidateRequest":
        """Options-only form for binary-framed requests.

        The rows travel as the frame's column payloads, so ``records``
        is absent by design; everything else (``pipeline``,
        ``include_errors``) is read exactly as in the JSON tier. An
        envelope, when present, is gated strictly.
        """
        if not isinstance(payload, dict):
            raise ProtocolError(f"expected a JSON object, got {type(payload).__name__}")
        if "schema_version" in payload or "kind" in payload:
            check_envelope(payload, cls.kind)
        request = cls(
            records=[],
            pipeline=payload.get("pipeline"),
            include_errors=bool(payload.get("include_errors", False)),
        )
        if request.pipeline is None:
            request.pipeline = pipeline
        return request

    def to_options(self) -> dict:
        """The enveloped options dict a framed request carries as extra."""
        payload = self.to_dict()
        del payload["records"]
        return payload

    @classmethod
    def from_table(cls, table: Table, **options) -> "ValidateRequest":
        return cls(records=table.to_records(), **options)

    def to_table(self, schema) -> Table:
        return Table.from_records(schema, self.records)


@dataclass
class RepairRequest:
    """One repair call: rows to repair, plus repair options."""

    records: list[dict] = field(default_factory=list)
    pipeline: str | None = None
    iterations: int = 1
    include_errors: bool = False

    kind = "repair_request"

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ProtocolError(f"iterations must be >= 1, got {self.iterations}")

    def to_dict(self) -> dict:
        payload = envelope(self.kind)
        payload.update(
            pipeline=self.pipeline,
            records=jsonable(self.records),
            iterations=int(self.iterations),
            include_errors=bool(self.include_errors),
        )
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RepairRequest":
        check_envelope(payload, cls.kind)
        return cls(
            records=_records_of(payload),
            pipeline=payload.get("pipeline"),
            iterations=_integer_of(payload, "iterations", default=1),
            include_errors=bool(payload.get("include_errors", False)),
        )

    @classmethod
    def from_payload(cls, payload: object, pipeline: str | None = None) -> "RepairRequest":
        if not isinstance(payload, dict):
            raise ProtocolError(f"expected a JSON object, got {type(payload).__name__}")
        if "schema_version" in payload or "kind" in payload:
            request = cls.from_dict(payload)
        else:
            request = cls(
                records=_records_of(payload),
                pipeline=payload.get("pipeline"),
                iterations=_integer_of(payload, "iterations", default=1),
                include_errors=bool(payload.get("include_errors", False)),
            )
        if request.pipeline is None:
            request.pipeline = pipeline
        return request

    @classmethod
    def from_options(cls, payload: object, pipeline: str | None = None) -> "RepairRequest":
        """Options-only form for binary-framed requests (rows ride the frame)."""
        if not isinstance(payload, dict):
            raise ProtocolError(f"expected a JSON object, got {type(payload).__name__}")
        if "schema_version" in payload or "kind" in payload:
            check_envelope(payload, cls.kind)
        request = cls(
            records=[],
            pipeline=payload.get("pipeline"),
            iterations=_integer_of(payload, "iterations", default=1),
            include_errors=bool(payload.get("include_errors", False)),
        )
        if request.pipeline is None:
            request.pipeline = pipeline
        return request

    def to_options(self) -> dict:
        """The enveloped options dict a framed request carries as extra."""
        payload = self.to_dict()
        del payload["records"]
        return payload

    @classmethod
    def from_table(cls, table: Table, **options) -> "RepairRequest":
        return cls(records=table.to_records(), **options)

    def to_table(self, schema) -> Table:
        return Table.from_records(schema, self.records)
