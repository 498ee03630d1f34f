"""Exhaustive hyperparameter grid search with an inner 2-fold split.

The training split is shuffled once (substream (data_seed, 5)) and halved;
each grid cell trains on one half and validates on the other, both ways, and
is scored by the mean of the two fold scores under the configured selection
criterion. The per-cell table lists every cell, so the winner is auditable.
"""

from __future__ import annotations

import dataclasses
import itertools
import logging
from dataclasses import dataclass

import numpy as np

from ..data import DataSplit
from ..losses import STRATEGIES, LossSpec
from .config import ExperimentConfig, beats
from .training import train

log_ = logging.getLogger(__name__)


@dataclass
class GridCell:
    values: dict           # grid key -> candidate value
    fold_scores: list[float]
    mean_score: float
    failed: bool = False


@dataclass
class GridResult:
    cells: list[GridCell]
    best: LossSpec


def _fold_splits(split: DataSplit, data_seed: int) -> list[DataSplit]:
    order = np.random.default_rng((data_seed, 5)).permutation(len(split.train))
    half = len(split.train) // 2
    a, b = split.train.take(order[:half]), split.train.take(order[half:])
    return [DataSplit(a, b, split.test), DataSplit(b, a, split.test)]


def grid_search(config: ExperimentConfig, split: DataSplit) -> GridResult:
    if not config.grid:
        raise ValueError("grid search needs a nonempty grid")
    base = LossSpec.from_dict(dict(config.loss))
    for key in config.grid:
        if key not in STRATEGIES[base.strategy].fields:
            log_.warning("grid key %r is not consumed by strategy %r; "
                         "cells will differ only in the recorded config", key, base.strategy)

    keys = sorted(config.grid)
    folds = _fold_splits(split, config.data_seed)
    seed = config.seeds[0]
    cells = []
    for combo in itertools.product(*(config.grid[k] for k in keys)):
        values = dict(zip(keys, combo))
        spec = dataclasses.replace(base, **values)
        fold_scores = []
        failed = False
        for fold in folds:
            history = train(config, fold, seed=seed, spec=spec)
            if history.failed:
                failed = True
                break
            fold_scores.append(history.best[config.criterion]["value"])
        mean_score = float("nan") if failed else float(np.mean(fold_scores))
        cells.append(GridCell(values=values, fold_scores=fold_scores,
                              mean_score=mean_score, failed=failed))

    scored = [c for c in cells if not c.failed]
    if not scored:
        raise RuntimeError("every grid cell failed")
    winner = scored[0]
    for cell in scored[1:]:
        if beats(config.criterion, cell.mean_score, winner.mean_score):
            winner = cell
    best = dataclasses.replace(base, **winner.values)
    return GridResult(cells=cells, best=best)
