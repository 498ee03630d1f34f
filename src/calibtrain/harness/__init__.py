"""Experiment orchestration: config, training loops, grid search, suite runs."""

from .config import ExperimentConfig, config_hash
from .training import EpochEntry, EpochHistory, evaluate_records, train

__all__ = [
    "ExperimentConfig",
    "config_hash",
    "EpochEntry",
    "EpochHistory",
    "evaluate_records",
    "train",
]
