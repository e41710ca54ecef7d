"""DQuaG configuration (hyperparameters from §3 and §4.4)."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

from repro.exceptions import ConfigurationError
from repro.gnn.encoder import ENCODER_ARCHITECTURES

__all__ = ["DQuaGConfig"]


@dataclass
class DQuaGConfig:
    """All knobs of the DQuaG pipeline.

    Defaults follow the paper: GAT+GIN encoder, four layers, hidden
    dimension 64, learning rate 0.01, batch size 128 (§4.4); validation
    threshold at the 95th percentile of clean reconstruction errors with
    dataset-rule multiplier n = 1.2 (§3.1.4, §3.2.1); per-feature outlier
    rule μ + 5σ (§3.2.1); loss weights α = β = 1 (§3.1.2).
    """

    # model
    architecture: str = "gat_gin"
    hidden_dim: int = 64
    n_layers: int = 4
    gat_heads: int = 1
    feature_embedding_dim: int = 7

    # training
    learning_rate: float = 0.01
    batch_size: int = 128
    epochs: int = 40
    weight_decay: float = 0.0
    weighting_temperature: float | None = None  # None = median clean error

    # losses
    alpha: float = 1.0  # validation-loss weight
    beta: float = 1.0  # repair-loss weight

    # decision rules
    threshold_percentile: float = 95.0
    # One-sided confidence for the threshold order statistic: with finite
    # calibration samples the empirical p95 undershoots often enough to
    # push the clean flag-rate past the dataset cutoff; 0.9 keeps it at
    # or below the nominal 5%. None = the paper's point estimate.
    threshold_confidence: float | None = 0.9
    dataset_rule_n: float = 1.2
    # Per-feature cell rule: error > μ_row + k·σ_row. The paper states
    # k = 5, but for a single corrupted cell among F features the maximum
    # attainable z-score is √(F−1) (≈3.3 at F=12), so the literal rule can
    # never fire on the evaluation schemas; k = 2.5 keeps the rule's form
    # while making it achievable (see README.md#per-feature-cell-rule-43).
    feature_sigma: float = 2.5
    # Percentile of per-feature clean cell errors used as an absolute
    # cell-level outlier threshold within flagged rows (complements the
    # row-relative μ+kσ rule for rows with several corrupted cells).
    feature_threshold_percentile: float = 99.5

    # feature-graph construction
    graph_threshold: float = 0.25
    graph_max_degree: int | None = None

    # misc
    missing_sentinel: float = -1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.architecture not in ENCODER_ARCHITECTURES:
            raise ConfigurationError(
                f"unknown architecture {self.architecture!r}; choose from {ENCODER_ARCHITECTURES}"
            )
        if self.hidden_dim < 1:
            raise ConfigurationError(f"hidden_dim must be positive, got {self.hidden_dim}")
        if self.n_layers < 1:
            raise ConfigurationError(f"n_layers must be positive, got {self.n_layers}")
        if self.feature_embedding_dim < 0:
            raise ConfigurationError(f"feature_embedding_dim must be >= 0, got {self.feature_embedding_dim}")
        if self.learning_rate <= 0:
            raise ConfigurationError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be positive, got {self.batch_size}")
        if self.epochs < 1:
            raise ConfigurationError(f"epochs must be positive, got {self.epochs}")
        if not 0.0 < self.threshold_percentile < 100.0:
            raise ConfigurationError(
                f"threshold_percentile must be in (0, 100), got {self.threshold_percentile}"
            )
        if self.dataset_rule_n <= 0:
            raise ConfigurationError(f"dataset_rule_n must be positive, got {self.dataset_rule_n}")
        if self.feature_sigma <= 0:
            raise ConfigurationError(f"feature_sigma must be positive, got {self.feature_sigma}")
        if not 0.0 < self.feature_threshold_percentile < 100.0:
            raise ConfigurationError(
                f"feature_threshold_percentile must be in (0, 100), "
                f"got {self.feature_threshold_percentile}"
            )
        if self.alpha < 0 or self.beta < 0:
            raise ConfigurationError(f"loss weights must be non-negative, got α={self.alpha}, β={self.beta}")

    @property
    def node_input_dim(self) -> int:
        """Per-node input width: scaled cell value ⊕ feature-identity embedding."""
        return 1 + self.feature_embedding_dim

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(payload: dict) -> "DQuaGConfig":
        return DQuaGConfig(**payload)
