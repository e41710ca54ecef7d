"""Compiled preprocessing plans: scan-rate table → model-matrix encoding.

:meth:`TablePreprocessor.compile() <repro.data.preprocess.TablePreprocessor.compile>`
freezes all fitted encoder state into a :class:`TransformPlan` — the
preprocessing twin of what :class:`~repro.runtime.engine.InferenceEngine`
does for the model:

* numeric columns run as whole-column array ops against precomputed
  per-column affine vectors (the fitted minimum/span per feature). The
  affine is applied as ``(x - minimum) / span`` — the exact operation
  order of the legacy :class:`~repro.data.encoders.MinMaxNormalizer` —
  rather than a fused multiply-add, because the plan's contract is
  **bit-identical** output: reports, goldens, and calibrated thresholds
  must not move by a single ulp when a consumer switches to the plan;
* categorical columns encode via ``np.searchsorted`` over a sorted
  vocabulary of string arrays — no per-value dict lookups. Unknown
  values land directly at ``1 + unknown_margin``, missing cells at the
  sentinel, all as array ops;
* :meth:`TransformPlan.transform_into` writes straight into a
  caller-provided output buffer, so chunked consumers (the streaming
  validator) run allocation-free: one buffer per stream, reused for
  every chunk.

A plan is immutable after construction and safe to share across threads
(the serving layer calls one plan from many request threads at once).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.schema import TableSchema
from repro.data.table import Table
from repro.exceptions import SchemaError

__all__ = ["TransformPlan"]


class _NumericStep:
    """Fused per-column affine for one numeric column."""

    __slots__ = ("index", "name", "minimum", "span", "degenerate")

    def __init__(self, index: int, name: str, minimum: float, maximum: float) -> None:
        self.index = index
        self.name = name
        self.minimum = float(minimum)
        self.span = float(maximum) - float(minimum)
        self.degenerate = self.span == 0.0


class _CategoricalStep:
    """Sorted-vocabulary encoder for one categorical column.

    The vocabulary is frozen into fixed-width string arrays so encoding
    one chunk is a handful of C passes: cast the object column to a
    fixed-width string array, resolve a *candidate* code per value, then
    verify every candidate with one exact object-level comparison
    against the original class strings (unknowns fall out of the
    verification). Candidate selection never has to be exact — only
    complete (a value equal to a class always selects that class) — so
    fixed-width quirks like NumPy treating trailing NULs as padding
    cannot leak into the result: the exact verification rejects them,
    keeping the plan bit-identical to the legacy dict lookup. The codes
    gathered are the original fitted ones, so plans restored from
    :meth:`LabelEncoder.from_classes` with an unsorted vocabulary still
    assign the exact legacy codes.

    Candidate-selection tiers, chosen at compile time:

    * **prefix LUT** — ASCII vocabularies whose first two bytes are
      unique (the common case) resolve candidates with one gather
      through a 64k lookup table — no search at all;
    * **bytes** — ASCII vocabularies with unique 8-byte prefixes binary-
      search a ``uint64`` view of the first lane, ~2× faster than
      string binary search;
    * **unicode** — anything else (non-ASCII classes, shared prefixes)
      binary-searches the fixed-width unicode vocabulary;
    * **exact dict** — vocabularies whose fixed-width forms collide
      (classes differing only in trailing NULs) fall back to the legacy
      per-value lookup, which is exact by construction.

    Missing cells (``None``) cast to the string ``"None"``; positions
    matching that token are re-checked against the *object* column so a
    genuine ``"None"`` category or string never collides with missing.
    """

    __slots__ = (
        "index", "name", "unknown_code", "minimum", "span", "degenerate",
        "n_classes", "obj_vocab", "exact_of",
        "byte_dtype", "byte_keys", "byte_codes",
        "prefix_lut", "uni_dtype", "uni_vocab", "uni_codes",
    )

    def __init__(
        self,
        index: int,
        name: str,
        classes: list[str],
        minimum: float,
        maximum: float,
    ) -> None:
        self.index = index
        self.name = name
        self.n_classes = len(classes)
        self.unknown_code = len(classes)
        self.minimum = float(minimum)
        self.span = float(maximum) - float(minimum)
        self.degenerate = self.span == 0.0

        # Exact verification vocabulary: the original ``str`` objects in
        # fitted-code order, compared per candidate via ``np.equal``.
        self.obj_vocab = np.empty(len(classes), dtype=object)
        self.obj_vocab[:] = classes

        # -- unicode tier (always available) --------------------------
        # Cast width exceeds every class by one: a longer value may be
        # truncated, but its truncation still exceeds every vocabulary
        # entry in length, so it can never falsely match. The floor of 5
        # keeps the "None" missing token untruncated.
        width = max(max((len(c) for c in classes), default=0) + 1, 5)
        self.uni_dtype = f"U{width}"
        order = np.argsort(np.asarray(classes, dtype=self.uni_dtype), kind="stable") if classes else np.empty(0, dtype=np.int64)
        self.uni_vocab = np.asarray(classes, dtype=self.uni_dtype)[order] if classes else np.empty(0, dtype=self.uni_dtype)
        self.uni_codes = np.asarray(order, dtype=np.int64)

        # -- exact-dict tier: colliding fixed-width forms --------------
        # Classes that differ only past the fixed width (trailing NULs)
        # are indistinguishable to every vectorized tier; keep legacy
        # per-value lookup for such (pathological) vocabularies.
        self.exact_of = None
        if classes and len(np.unique(self.uni_vocab)) != len(classes):
            self.exact_of = {value: code for code, value in enumerate(classes)}

        # -- bytes tiers (ASCII vocabularies) --------------------------
        self.byte_dtype = None
        self.prefix_lut = None
        if classes and self.exact_of is None:
            byte_width = -(-width // 8) * 8  # lanes of 8 for the uint64 view
            try:
                encoded = np.asarray(classes, dtype=f"S{byte_width}")
            except UnicodeEncodeError:
                encoded = None
            if encoded is not None:
                # Fastest: a 64k lookup table over the first two bytes —
                # one gather per value instead of a binary search.
                prefix16 = encoded.view(np.uint16).reshape(len(classes), -1)[:, 0]
                if len(np.unique(prefix16)) == len(classes):
                    self.byte_dtype = f"S{byte_width}"
                    lut = np.full(1 << 16, len(classes), dtype=np.int32)
                    lut[prefix16] = np.arange(len(classes), dtype=np.int32)
                    self.prefix_lut = lut
                else:
                    # Next best: binary search over uint64 first lanes.
                    prefixes = encoded.view(np.uint64).reshape(len(classes), -1)[:, 0]
                    if len(np.unique(prefixes)) == len(classes):
                        key_order = np.argsort(prefixes, kind="stable")
                        self.byte_dtype = f"S{byte_width}"
                        self.byte_keys = prefixes[key_order]
                        self.byte_codes = np.asarray(key_order, dtype=np.int64)

    def encode_codes(self, segment: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(codes, matched, missing)`` for one object-array segment.

        ``segment`` is a normalized Table column slice (``str`` or
        ``None`` entries). Matched values get their fitted code,
        everything else the unknown code — exactly the legacy
        :meth:`LabelEncoder.transform` outcome, minus the NaN for
        missing cells (the caller writes the sentinel there directly,
        which is where the legacy NaNs end up anyway).
        """
        n = segment.shape[0]
        if self.n_classes == 0:
            matched = np.zeros(n, dtype=bool)
            return np.full(n, float(self.unknown_code)), matched, np.equal(segment, None)
        if self.exact_of is not None:
            return self._encode_exact(segment)
        candidates = None
        if self.byte_dtype is not None:
            try:
                values = np.asarray(segment, dtype=self.byte_dtype)
            except UnicodeEncodeError:
                # Non-ASCII *data* over an ASCII vocabulary: take the
                # unicode tier for this chunk.
                values = None
            if values is not None:
                if self.prefix_lut is not None:
                    prefixes = values.view(np.uint16).reshape(n, -1)[:, 0]
                    candidates = np.minimum(self.prefix_lut[prefixes], self.n_classes - 1)
                else:
                    lanes = values.view(np.uint64).reshape(n, -1)
                    positions = np.searchsorted(self.byte_keys, lanes[:, 0])
                    candidates = self.byte_codes[np.minimum(positions, self.n_classes - 1)]
                token_hits = values == b"None"
        if candidates is None:
            values = np.asarray(segment, dtype=self.uni_dtype)
            positions = np.searchsorted(self.uni_vocab, values)
            candidates = self.uni_codes[np.minimum(positions, self.n_classes - 1)]
            token_hits = values == "None"
        # Exact verification: candidates were selected in fixed-width
        # space (where e.g. trailing NULs compare as padding); the
        # object-level comparison is what decides a match, so the result
        # agrees with the legacy dict lookup on every value.
        matched = np.equal(segment, self.obj_vocab[candidates])
        codes = np.where(matched, candidates, self.unknown_code)
        return codes.astype(np.float64), matched, self._missing_mask(segment, token_hits)

    def _encode_exact(self, segment: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Legacy per-value encode for vocabularies no fixed-width form
        can discriminate (classes differing only in trailing NULs)."""
        n = segment.shape[0]
        codes = np.empty(n, dtype=np.float64)
        matched = np.zeros(n, dtype=bool)
        missing = np.zeros(n, dtype=bool)
        lookup = self.exact_of
        for i, value in enumerate(segment):
            if value is None:
                missing[i] = True
                codes[i] = self.unknown_code
                continue
            code = lookup.get(value, self.unknown_code)
            codes[i] = code
            matched[i] = code != self.unknown_code
        return codes, matched, missing

    @staticmethod
    def _missing_mask(segment: np.ndarray, candidates: np.ndarray) -> np.ndarray:
        """None mask via the fixed-width token scan.

        ``None`` cells cast to the ``"None"`` token; only candidate
        positions are re-checked at the object level, so the common
        no-missing chunk costs one vector comparison, not a per-value
        ``is None`` pass.
        """
        missing = np.zeros(segment.shape[0], dtype=bool)
        if candidates.any():
            positions = np.flatnonzero(candidates)
            missing[positions] = np.equal(segment[positions], None)
        return missing


class TransformPlan:
    """All fitted preprocessing state, compiled for vectorized execution.

    Construct via
    :meth:`TablePreprocessor.compile() <repro.data.preprocess.TablePreprocessor.compile>`;
    the constructor mirrors the preprocessor's persisted metadata
    (``label_classes`` + ``normalizer_ranges``) so a plan can also be
    built straight from an archive.

    Guarantee: for every table, :meth:`transform` is **bit-identical**
    to the legacy :meth:`TablePreprocessor.transform` — enforced by the
    differential fuzz suite in ``tests/test_differential.py``.
    """

    def __init__(
        self,
        schema: TableSchema,
        missing_sentinel: float,
        unknown_margin: float,
        label_classes: dict[str, list[str]],
        normalizer_ranges: dict[str, tuple[float, float]],
    ) -> None:
        self.schema = schema
        self.missing_sentinel = float(missing_sentinel)
        self.unknown_value = 1.0 + float(unknown_margin)
        self._numeric: list[_NumericStep] = []
        self._categorical: list[_CategoricalStep] = []
        for j, spec in enumerate(schema):
            try:
                minimum, maximum = normalizer_ranges[spec.name]
            except KeyError:
                raise SchemaError(f"no fitted range for column {spec.name!r}") from None
            if spec.is_categorical:
                classes = [str(v) for v in label_classes.get(spec.name, [])]
                self._categorical.append(
                    _CategoricalStep(j, spec.name, classes, minimum, maximum)
                )
            else:
                self._numeric.append(_NumericStep(j, spec.name, minimum, maximum))

    @property
    def n_features(self) -> int:
        return len(self.schema)

    # -- execution -----------------------------------------------------------
    def transform(self, table: Table, out: np.ndarray | None = None) -> np.ndarray:
        """Encode a whole table; equivalent to the legacy ``transform()``."""
        if out is None:
            out = np.empty((table.n_rows, self.n_features), dtype=np.float64)
        return self.transform_into(table, out)

    def transform_into(
        self,
        table: Table,
        out: np.ndarray,
        start: int = 0,
        stop: int | None = None,
    ) -> np.ndarray:
        """Encode rows ``[start, stop)`` of ``table`` into ``out``.

        Writes into ``out[:n]`` (``n`` rows after slice clamping) and
        returns that view — the caller owns the buffer and can reuse it
        for every chunk of a stream without a single new allocation.
        """
        if table.schema != self.schema:
            raise SchemaError("table schema does not match preprocessor schema")
        start, stop, _ = slice(start, stop).indices(table.n_rows)
        n = max(0, stop - start)
        if not isinstance(out, np.ndarray):
            # Rebinding through np.asarray would silently write into a
            # temporary and leave the caller's buffer untouched.
            raise TypeError(f"out buffer must be an ndarray, got {type(out).__name__}")
        if out.dtype != np.float64 or out.ndim != 2 or out.shape[1] != self.n_features:
            raise ValueError(
                f"out buffer must be float64 with shape (>= {n}, {self.n_features}), "
                f"got {out.dtype} {out.shape}"
            )
        if out.shape[0] < n:
            raise ValueError(f"out buffer holds {out.shape[0]} rows, chunk needs {n}")
        view = out[:n]
        if n == 0:
            return view

        for step in self._numeric:
            segment = table.column(step.name)[start:stop]
            dest = view[:, step.index]
            if step.degenerate:
                # Legacy: constant columns scale to 0.5; non-finite
                # inputs become NaN, which the sentinel pass absorbs.
                dest.fill(0.5)
                dest[~np.isfinite(segment)] = self.missing_sentinel
            else:
                np.subtract(segment, step.minimum, out=dest)
                np.divide(dest, step.span, out=dest)
                # The legacy path checks finiteness of the *scaled*
                # matrix (input NaN/inf and overflow all funnel here).
                dest[~np.isfinite(dest)] = self.missing_sentinel

        for step in self._categorical:
            segment = table.column(step.name)[start:stop]
            dest = view[:, step.index]
            codes, matched, missing = step.encode_codes(segment)
            if step.degenerate:
                dest.fill(0.5)
            else:
                np.subtract(codes, step.minimum, out=dest)
                np.divide(dest, step.span, out=dest)
            dest[~matched] = self.unknown_value
            dest[missing] = self.missing_sentinel
        return view

    def transform_chunks(
        self,
        table: Table,
        chunk_size: int = 8192,
        reuse_buffer: bool = True,
    ) -> Iterator[np.ndarray]:
        """Encode ``table`` in row slices of at most ``chunk_size``.

        With ``reuse_buffer=True`` (the streaming default) every yielded
        matrix is a view into one shared buffer that the *next*
        iteration overwrites — consumers must finish with a chunk before
        advancing, which every sequential fold does by construction.
        Pass ``reuse_buffer=False`` to get independent arrays.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if table.schema != self.schema:
            raise SchemaError("table schema does not match preprocessor schema")
        shared = (
            np.empty((min(chunk_size, max(table.n_rows, 1)), self.n_features), dtype=np.float64)
            if reuse_buffer
            else None
        )
        for start in range(0, table.n_rows, chunk_size):
            stop = min(start + chunk_size, table.n_rows)
            if shared is None:
                yield self.transform_into(
                    table, np.empty((stop - start, self.n_features), dtype=np.float64), start, stop
                )
            else:
                yield self.transform_into(table, shared, start, stop)

    def __repr__(self) -> str:
        return (
            f"TransformPlan(features={self.n_features}, "
            f"categorical={len(self._categorical)}, numeric={len(self._numeric)})"
        )
