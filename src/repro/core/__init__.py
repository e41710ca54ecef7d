"""DQuaG core: the paper's primary contribution (§3)."""

from repro.core.config import DQuaGConfig
from repro.core.model import DQuaGModel
from repro.core.losses import LossParts, compute_sample_weights, dquag_loss
from repro.core.thresholds import DatasetDecisionRule, ThresholdCalibration, flag_feature_cells
from repro.core.trainer import EpochStats, Trainer, TrainingHistory
from repro.core.validator import ValidationReport
from repro.core.repair import RepairEngine, RepairSummary
from repro.core.pipeline import DQuaG
from repro.core.cleaning import CleaningOutcome, clean_dataset, select_cleanest
from repro.core.explain import FeatureContribution, attention_summary, explain_row

__all__ = [
    "DQuaGConfig",
    "DQuaGModel",
    "LossParts",
    "compute_sample_weights",
    "dquag_loss",
    "DatasetDecisionRule",
    "ThresholdCalibration",
    "flag_feature_cells",
    "EpochStats",
    "Trainer",
    "TrainingHistory",
    "ValidationReport",
    "RepairEngine",
    "RepairSummary",
    "DQuaG",
    "CleaningOutcome",
    "clean_dataset",
    "select_cleanest",
    "FeatureContribution",
    "attention_summary",
    "explain_row",
]
