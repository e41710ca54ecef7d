"""Table → model-matrix preprocessing (paper §3.1).

:class:`TablePreprocessor` is fitted on the clean dataset and applies the
paper's encoding consistently to any later table with the same schema:

1. categorical columns: label-encode (codes fitted over clean ∪ declared /
   anticipated categories), then min-max scale the codes to [0, 1];
2. numeric columns: min-max scale to [0, 1] over the clean range;
3. missing cells: replaced by a sentinel (default −1.0) *after* scaling —
   far outside the clean manifold, so they reconstruct poorly and are
   flagged without any missing-value rule.

``inverse_transform`` maps a model-space matrix back to a :class:`Table`,
snapping categorical predictions to the nearest valid category.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.data.encoders import LabelEncoder, MinMaxNormalizer
from repro.data.plan import TransformPlan
from repro.data.schema import TableSchema
from repro.data.table import Table
from repro.exceptions import NotFittedError, SchemaError

__all__ = ["TablePreprocessor"]


class TablePreprocessor:
    """Fit-on-clean, apply-anywhere table encoder.

    ``unknown_margin`` places categories never seen at fit time at
    ``1 + unknown_margin`` in model space — clearly outside the [0, 1]
    band the clean categories occupy, so typos and novel values produce
    unmistakable reconstruction outliers even in columns the model finds
    intrinsically hard to predict.
    """

    def __init__(
        self,
        schema: TableSchema,
        missing_sentinel: float = -1.0,
        unknown_margin: float = 0.5,
    ) -> None:
        if unknown_margin < 0:
            raise ValueError(f"unknown_margin must be >= 0, got {unknown_margin}")
        self.schema = schema
        self.missing_sentinel = missing_sentinel
        self.unknown_margin = unknown_margin
        self._label_encoders: dict[str, LabelEncoder] = {}
        self._normalizers: dict[str, MinMaxNormalizer] = {}
        self._fitted = False
        self._plan: TransformPlan | None = None

    # -- fitting ------------------------------------------------------------
    def fit(self, table: Table, future_categories: dict[str, list[str]] | None = None) -> "TablePreprocessor":
        """Fit encoders on the clean table.

        ``future_categories`` maps column name → anticipated category
        values, implementing the paper's requirement that the label
        encoder covers "any possible future data".
        """
        if table.schema != self.schema:
            raise SchemaError("table schema does not match preprocessor schema")
        future_categories = future_categories or {}
        for spec in self.schema:
            column = table.column(spec.name)
            if spec.is_categorical:
                extra = list(spec.categories) + list(future_categories.get(spec.name, []))
                encoder = LabelEncoder().fit(column, extra_values=extra)
                self._label_encoders[spec.name] = encoder
                # Scale the *known* codes onto [0, 1]; unknown values are
                # placed at 1 + unknown_margin in transform().
                normalizer = MinMaxNormalizer()
                normalizer.fit(np.arange(0, max(encoder.unknown_code, 2), dtype=np.float64))
                self._normalizers[spec.name] = normalizer
            else:
                self._normalizers[spec.name] = MinMaxNormalizer().fit(column)
        self._plan = None  # refitting invalidates any compiled plan
        self._fitted = True
        return self

    # -- compiled execution --------------------------------------------------
    def compile(self) -> TransformPlan:
        """The compiled :class:`~repro.data.plan.TransformPlan` (cached).

        The plan encodes tables bit-identically to :meth:`transform`
        with vectorized categorical encoding and buffer-reusing chunked
        execution — the preprocessing hot path every serving consumer
        (validator, streaming, drift monitor) runs on.
        :meth:`transform` below is kept as the scalar reference
        implementation the differential suite checks the plan against.
        """
        self._check_fitted()
        plan = self._plan
        if plan is None:
            # Benign race: concurrent first calls each build a plan and
            # one wins — plans are immutable and interchangeable.
            plan = TransformPlan(
                self.schema,
                missing_sentinel=self.missing_sentinel,
                unknown_margin=self.unknown_margin,
                label_classes={
                    name: list(encoder.classes_)
                    for name, encoder in self._label_encoders.items()
                },
                normalizer_ranges={
                    name: (normalizer.minimum_, normalizer.maximum_)
                    for name, normalizer in self._normalizers.items()
                },
            )
            self._plan = plan
        return plan

    # -- transform -------------------------------------------------------------
    def transform(self, table: Table) -> np.ndarray:
        """Encode ``table`` to a ``(n_rows, n_features)`` float matrix.

        This is the *reference* implementation (per-value label
        encoding); serving paths run the compiled, bit-identical
        :meth:`compile` plan instead.
        """
        self._check_fitted()
        if table.schema != self.schema:
            raise SchemaError("table schema does not match preprocessor schema")
        matrix = np.empty((table.n_rows, len(self.schema)), dtype=np.float64)
        for j, spec in enumerate(self.schema):
            column = table.column(spec.name)
            if spec.is_categorical:
                encoder = self._label_encoders[spec.name]
                codes = encoder.transform(column)
                scaled = self._normalizers[spec.name].transform(codes)
                scaled[codes == encoder.unknown_code] = 1.0 + self.unknown_margin
                matrix[:, j] = scaled
            else:
                matrix[:, j] = self._normalizers[spec.name].transform(column)
        matrix[~np.isfinite(matrix)] = self.missing_sentinel
        return matrix

    def transform_chunks(self, table: Table, chunk_size: int = 8192) -> Iterator[np.ndarray]:
        """Encode ``table`` in row slices of at most ``chunk_size``.

        Row encoding is independent of other rows (all fit-time state is
        frozen), so the concatenated chunks equal :meth:`transform` of
        the whole table. Chunks are zero-copy row views
        (:meth:`Table.slice_rows`) encoded through the compiled plan;
        each yielded matrix is independently owned by the caller. The
        streaming validator goes one step further and runs
        :meth:`TransformPlan.transform_chunks` with a reused buffer.
        """
        self._check_fitted()
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        if table.schema != self.schema:
            raise SchemaError("table schema does not match preprocessor schema")
        plan = self.compile()
        for start in range(0, table.n_rows, chunk_size):
            yield plan.transform(table.slice_rows(start, start + chunk_size))

    def inverse_transform(self, matrix: np.ndarray) -> Table:
        """Decode a model-space matrix back into a :class:`Table`."""
        self._check_fitted()
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.schema):
            raise ValueError(f"matrix shape {matrix.shape} does not match schema width {len(self.schema)}")
        columns: dict[str, np.ndarray] = {}
        for j, spec in enumerate(self.schema):
            values = matrix[:, j]
            denormalized = self._normalizers[spec.name].inverse_transform(values)
            if spec.is_categorical:
                columns[spec.name] = self._label_encoders[spec.name].inverse_transform(denormalized)
            else:
                columns[spec.name] = denormalized
        return Table(self.schema, columns)

    # -- introspection ------------------------------------------------------------
    @property
    def n_features(self) -> int:
        return len(self.schema)

    def label_encoder(self, name: str) -> LabelEncoder:
        self._check_fitted()
        if name not in self._label_encoders:
            raise SchemaError(f"column {name!r} is not categorical")
        return self._label_encoders[name]

    def normalizer(self, name: str) -> MinMaxNormalizer:
        self._check_fitted()
        return self._normalizers[name]

    def valid_code_positions(self, name: str) -> np.ndarray:
        """Scaled positions of each valid category of column ``name``.

        Used by the repair engine to snap a predicted scaled value to the
        nearest legitimate category.
        """
        encoder = self.label_encoder(name)
        codes = np.arange(len(encoder.classes_), dtype=np.float64)
        return self._normalizers[name].transform(codes)

    # -- persistence --------------------------------------------------------
    def to_metadata(self) -> dict:
        """JSON-serializable snapshot of all fitted encoder state.

        Persisted in pipeline weight archives so a reloaded pipeline
        encodes categories and scales values *identically* to the fitted
        one — refitting on a (possibly different) clean table would
        silently shift codes and invalidate the calibrated threshold.
        """
        self._check_fitted()
        return {
            "schema": self.schema.to_dict(),
            "missing_sentinel": self.missing_sentinel,
            "unknown_margin": self.unknown_margin,
            "label_classes": {name: list(enc.classes_) for name, enc in self._label_encoders.items()},
            "normalizer_ranges": {
                name: {"minimum": norm.minimum_, "maximum": norm.maximum_}
                for name, norm in self._normalizers.items()
            },
        }

    @staticmethod
    def from_metadata(payload: dict) -> "TablePreprocessor":
        """Restore a fitted preprocessor from :meth:`to_metadata` output."""
        schema = TableSchema.from_dict(payload["schema"])
        preprocessor = TablePreprocessor(
            schema,
            missing_sentinel=payload["missing_sentinel"],
            unknown_margin=payload["unknown_margin"],
        )
        preprocessor._label_encoders = {
            name: LabelEncoder.from_classes(classes)
            for name, classes in payload["label_classes"].items()
        }
        preprocessor._normalizers = {
            name: MinMaxNormalizer.from_range(rng["minimum"], rng["maximum"])
            for name, rng in payload["normalizer_ranges"].items()
        }
        preprocessor._fitted = True
        return preprocessor

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise NotFittedError("TablePreprocessor used before fit()")
