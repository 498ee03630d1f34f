"""Full evaluation suite: strategies x seeds x selection criteria.

Per (strategy, seed): train once, select the checkpoint under both criteria,
and evaluate each selected model on the identical test split three ways:
softmax probabilities, epistemic votes, and aleatoric votes. When both
criteria select the same epoch, that model is evaluated once. Reports
aggregate mean and (sample) standard deviation over seeds.

All emitted files are pure functions of the config: floats are written with
repr (shortest round-trip form), rows follow deterministic orders, and no
timestamps appear anywhere, so re-running a suite reproduces every byte.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..data import DataSplit, FeatureScaler, generate_gaussian_mixture
from ..losses import LossSpec
from ..metrics import (
    Predictions,
    aece,
    brier,
    classification_metrics,
    ece,
    mce,
    mcnemar,
    oe,
    reliability_table,
)
from ..model import VaeClassifier
from ..uncertainty import uncertainty_records
from .config import CRITERIA, ExperimentConfig, config_hash
from .svg import write_reliability_svg
from .training import evaluate_records, select_model, train

METRIC_COLUMNS = ("ece", "aece", "oe", "mce", "bs", "sen", "spe", "bacc")
EVAL_MODES = ("softmax", "epistemic", "aleatoric")


def fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def metric_row(preds: Predictions, m: int = 15) -> dict:
    cls = classification_metrics(preds)
    return {
        "ece": ece(preds, m),
        "aece": aece(preds, m),
        "oe": oe(preds, m),
        "mce": mce(preds, m),
        "bs": brier(preds),
        "sen": cls["sensitivity"],
        "spe": cls["specificity"],
        "bacc": cls["bacc"],
    }


@dataclass
class CellResult:
    """Everything measured for one (strategy, seed)."""

    strategy: str
    seed: int
    selected_epoch: dict            # criterion -> epoch index
    metrics: dict                   # criterion -> mode -> metric dict
    test_records: dict              # criterion -> softmax Predictions
    failed: bool = False
    failure: str | None = None
    epochs: list = field(default_factory=list)


@dataclass
class SuiteResult:
    cells: list[CellResult]
    out_dir: Path
    ok: bool


def _aggregate(values: list) -> tuple:
    present = [v for v in values if v is not None]
    if not present:
        return None, None
    mean = float(np.mean(present))
    std = float(np.std(present, ddof=1)) if len(present) > 1 else 0.0
    return mean, std


def _run_cell(config: ExperimentConfig, split: DataSplit, spec: LossSpec,
              seed: int, scaler: FeatureScaler, x_test: np.ndarray,
              g_test: np.ndarray) -> CellResult:
    cell = CellResult(strategy=spec.strategy, seed=seed, selected_epoch={},
                      metrics={}, test_records={})
    history = train(config, split, seed=seed, spec=spec)
    cell.epochs = [(e.epoch, e.train_loss, e.val_bacc, e.val_ece)
                   for e in history.entries]
    if history.failed or not history.entries:
        cell.failed = True
        cell.failure = history.failure or "no epochs completed"
        return cell
    # epoch -> (metric rows, softmax records); an epoch that both criteria
    # select is evaluated once and shared
    evaluated = {}
    for criterion in CRITERIA:
        entry, params = select_model(history, criterion)
        cell.selected_epoch[criterion] = entry.epoch
        if entry.epoch not in evaluated:
            model = VaeClassifier(d=config.d, hidden=config.hidden,
                                  latent=config.latent, seed=seed)
            model.params.load_values(params)
            softmax_records = evaluate_records(model, x_test, g_test)
            epi = uncertainty_records(model, split, "epistemic", scaler=scaler,
                                      n=config.n_uncertainty, base_seed=(seed, 3))
            ale = uncertainty_records(model, split, "aleatoric", scaler=scaler,
                                      n=config.n_uncertainty, base_seed=(seed, 4))
            evaluated[entry.epoch] = ({
                "softmax": metric_row(softmax_records),
                "epistemic": metric_row(epi),
                "aleatoric": metric_row(ale),
            }, softmax_records)
        cell.metrics[criterion], cell.test_records[criterion] = evaluated[entry.epoch]
    return cell


def run_suite(config: ExperimentConfig, out_override: str | None = None) -> SuiteResult:
    out = config.resolve_out_dir(out_override)
    out.mkdir(parents=True, exist_ok=True)
    split = generate_gaussian_mixture(
        sizes=config.sizes, d=config.d, separation=config.separation,
        noise_rate=config.noise_rate, positive_fraction=config.positive_fraction,
        seed=config.data_seed)
    scaler = FeatureScaler().fit(split.train.x)
    x_test = scaler.transform(split.test.x)
    g_test = split.test.g

    specs = [LossSpec.from_dict(dict(entry)) for entry in config.suite]
    n_cells = len(specs) * len(config.seeds)
    cells = []
    for spec in specs:
        for seed in config.seeds:
            start = time.perf_counter()
            try:
                cell = _run_cell(config, split, spec, seed, scaler, x_test, g_test)
            except Exception as err:   # a cell failure must not sink the suite
                cell = CellResult(strategy=spec.strategy, seed=seed,
                                  selected_epoch={}, metrics={}, test_records={},
                                  failed=True, failure=f"{type(err).__name__}: {err}")
            cells.append(cell)
            # progress goes to stderr: timings stay out of the reports
            print(f"[{len(cells)}/{n_cells}] {spec.strategy} seed {seed} "
                  f"{'FAILED' if cell.failed else 'ok'} {time.perf_counter() - start:.1f}s",
                  file=sys.stderr, flush=True)

    _write_reports(config, cells, out)
    ok = not any(c.failed for c in cells)
    return SuiteResult(cells=cells, out_dir=out, ok=ok)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _strategy_order(config: ExperimentConfig) -> list[str]:
    seen = []
    for entry in config.suite:
        if entry["strategy"] not in seen:
            seen.append(entry["strategy"])
    return seen


def _write_reports(config: ExperimentConfig, cells: list[CellResult], out: Path) -> None:
    strategies = _strategy_order(config)
    by_key = {(c.strategy, c.seed): c for c in cells}

    # per-epoch curves
    hist_dir = out / "history"
    hist_dir.mkdir(exist_ok=True)
    for cell in cells:
        rows = [[e[0], e[1], e[2], e[3]] for e in cell.epochs]
        write_csv(hist_dir / f"{cell.strategy}_seed{cell.seed}.csv",
                  ["epoch", "train_loss", "val_bacc", "val_ece"], rows)

    # aggregated metric tables: one file per evaluation mode
    for mode in EVAL_MODES:
        rows = []
        for strategy in strategies:
            for criterion in CRITERIA:
                row = [strategy, criterion]
                for col in METRIC_COLUMNS:
                    vals = []
                    for seed in config.seeds:
                        cell = by_key[(strategy, seed)]
                        if cell.failed or criterion not in cell.metrics:
                            continue
                        vals.append(cell.metrics[criterion][mode][col])
                    mean, std = _aggregate(vals)
                    row.extend([mean, std])
                rows.append(row)
        header = ["strategy", "criterion"]
        for col in METRIC_COLUMNS:
            header.extend([f"{col}_mean", f"{col}_std"])
        write_csv(out / f"metrics_{mode}.csv", header, rows)

    # selection-criterion comparison (test BACC and ECE under each criterion)
    rows = []
    for strategy in strategies:
        for seed in config.seeds:
            cell = by_key[(strategy, seed)]
            row = [strategy, seed]
            for criterion in CRITERIA:
                if cell.failed or criterion not in cell.metrics:
                    row.extend([None, None, None])
                else:
                    m = cell.metrics[criterion]["softmax"]
                    row.extend([cell.selected_epoch[criterion], m["bacc"], m["ece"]])
            rows.append(row)
    write_csv(out / "selection_comparison.csv",
              ["strategy", "seed",
               "bacc_epoch", "bacc_test_bacc", "bacc_test_ece",
               "ece_epoch", "ece_test_bacc", "ece_test_ece"], rows)

    # McNemar against the baseline, per seed, under the configured criterion
    if "baseline" in strategies:
        rows = []
        for strategy in strategies:
            if strategy == "baseline":
                continue
            for seed in config.seeds:
                base = by_key[("baseline", seed)]
                cell = by_key[(strategy, seed)]
                if (base.failed or cell.failed
                        or config.criterion not in base.test_records
                        or config.criterion not in cell.test_records):
                    rows.append([strategy, seed, None, None, None, None])
                    continue
                test = mcnemar(base.test_records[config.criterion],
                               cell.test_records[config.criterion])
                rows.append([strategy, seed, test["statistic"], test["p_value"],
                             test["b"], test["c"]])
        write_csv(out / "mcnemar_vs_baseline.csv",
                  ["strategy", "seed", "statistic", "p_value", "b", "c"], rows)

    # reliability tables and SVGs: first seed, configured criterion
    rel_dir = out / "reliability"
    rel_dir.mkdir(exist_ok=True)
    for strategy in strategies:
        cell = by_key[(strategy, config.seeds[0])]
        records = cell.test_records.get(config.criterion)
        if records is None:
            continue
        for scheme in ("equal_width", "adaptive"):
            table = reliability_table(records, scheme, 15)
            rows = [[r["bin"], r["lower"], r["upper"], r["count"], r["conf"], r["acc"]]
                    for r in table.rows()]
            write_csv(rel_dir / f"{strategy}_{scheme}.csv",
                      ["bin", "lower", "upper", "count", "conf", "acc"], rows)
            write_reliability_svg(table, rel_dir / f"{strategy}_{scheme}.svg",
                                  f"{strategy} ({scheme.replace('_', '-')} bins)")

    # manifest: config hash plus a traceable index of every cell
    manifest = {
        "config_hash": config_hash(config),
        "config": config.to_dict(),
        "seeds": config.seeds,
        "cells": [
            {
                "strategy": c.strategy,
                "seed": c.seed,
                "failed": c.failed,
                "failure": c.failure,
                "selected_epoch": c.selected_epoch,
                "history_csv": f"history/{c.strategy}_seed{c.seed}.csv",
            }
            for c in cells
        ],
        "reports": sorted(str(p.relative_to(out)) for p in out.rglob("*.csv")),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
