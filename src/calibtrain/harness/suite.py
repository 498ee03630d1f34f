"""Full evaluation suite: strategies x seeds x selection criteria.

Per (strategy, seed): train once, select the checkpoint under both criteria,
and evaluate each selected model on the identical test split three ways:
softmax probabilities, epistemic votes, and aleatoric votes. When both
criteria select the same epoch, that model is evaluated once. Reports
aggregate mean and (sample) standard deviation over seeds.

Cells run in forked worker processes, one per available CPU and at most
one per cell (see ``pool.map_cells``). Each cell owns its RNG substreams and
results are collected in submission order, so the worker count changes no
report. The cells run in the calling process instead when it has one CPU,
or when a function they call has been replaced since import (a tracer or a
call counter), whose records a worker could not hand back.

All emitted files are pure functions of the config: floats are written with
repr (shortest round-trip form), rows follow deterministic orders, and no
timestamps or paths appear anywhere, so re-running a suite reproduces every
byte, in the same directory or another.
The manifest is written last and atomically, so a run directory that has
one holds every report.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures.process import BrokenProcessPool
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
from ..model import VaeClassifier, _write_atomic
from ..uncertainty import uncertainty_records
from .config import CRITERIA, ExperimentConfig, config_hash
from .pool import map_cells
from .svg import write_reliability_svg
from .training import evaluate_records, train

METRIC_COLUMNS = ("ece", "aece", "oe", "mce", "bs", "sen", "spe", "bacc")
HISTORY_COLUMNS = ("epoch", "train_loss", "val_bacc", "val_ece")
EVAL_MODES = ("softmax", "epistemic", "aleatoric")
RELIABILITY_COLUMNS = ("bin", "lower", "upper", "count", "conf", "acc")   # BinTable.rows() keys


def reliability_title(strategy: str, scheme: str) -> str:
    """The title of a reliability diagram, as the suite and ``plot`` draw it."""
    return f"{strategy} ({scheme.replace('_', '-')} bins)"


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


def history_rows(history) -> list[list]:
    """The rows of a history CSV (HISTORY_COLUMNS), one per recorded epoch."""
    return [[getattr(e, col) for col in HISTORY_COLUMNS] for e in history.entries]


def generate_split(config: ExperimentConfig) -> DataSplit:
    """The synthetic split a config describes, drawn from its data_seed."""
    return generate_gaussian_mixture(
        sizes=config.sizes, d=config.d, separation=config.separation,
        noise_rate=config.noise_rate, positive_fraction=config.positive_fraction,
        seed=config.data_seed)


def metric_row(preds: Predictions) -> dict:
    cls = classification_metrics(preds)
    return {
        "ece": ece(preds),
        "aece": aece(preds),
        "oe": oe(preds),
        "mce": mce(preds),
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
    ok: bool


def _aggregate(values: list) -> tuple:
    present = [v for v in values if v is not None]
    if not present:
        return None, None
    mean = float(np.mean(present))
    std = float(np.std(present, ddof=1)) if len(present) > 1 else 0.0
    return mean, std


def _run_cell(config: ExperimentConfig, split: DataSplit, spec: LossSpec,
              seed: int) -> CellResult:
    cell = CellResult(strategy=spec.strategy, seed=seed, selected_epoch={},
                      metrics={}, test_records={})
    history = train(config, split, seed=seed, spec=spec)
    cell.epochs = history_rows(history)
    if history.failed:
        cell.failed = True
        cell.failure = history.failure
        return cell
    scaler = FeatureScaler().fit(split.train.x)
    x_test = scaler.transform(split.test.x)
    # epoch -> (metric rows, softmax records); an epoch that both criteria
    # select is evaluated once and shared
    evaluated = {}
    for criterion in CRITERIA:
        best = history.best[criterion]
        epoch = cell.selected_epoch[criterion] = best["epoch"]
        if epoch not in evaluated:
            model = VaeClassifier(d=config.d, hidden=config.hidden,
                                  latent=config.latent, seed=seed)
            model.params.load_values(best["params"])
            softmax_records = evaluate_records(model, x_test, split.test.g)
            epi = uncertainty_records(model, split.test, "epistemic", scaler=scaler,
                                      n=config.n_uncertainty, base_seed=(seed, 3))
            # input noise at a tenth of the class separation, in raw feature units
            ale = uncertainty_records(model, split.test, "aleatoric", scaler=scaler,
                                      n=config.n_uncertainty, sigma=0.1 * config.separation,
                                      base_seed=(seed, 4))
            evaluated[epoch] = ({
                "softmax": metric_row(softmax_records),
                "epistemic": metric_row(epi),
                "aleatoric": metric_row(ale),
            }, softmax_records)
        cell.metrics[criterion], cell.test_records[criterion] = evaluated[epoch]
    return cell


def _failed_cell(strategy: str, seed: int, err: BaseException) -> CellResult:
    return CellResult(strategy=strategy, seed=seed, selected_epoch={}, metrics={},
                      test_records={}, failed=True, failure=f"{type(err).__name__}: {err}")


def _timed_cell(config: ExperimentConfig, split: DataSplit, spec: LossSpec,
                seed: int) -> tuple[CellResult, float]:
    """One cell and its own time in seconds; a failure becomes a failed cell."""
    start = time.perf_counter()
    try:
        cell = _run_cell(config, split, spec, seed)
    except Exception as err:   # a cell failure must not sink the suite
        cell = _failed_cell(spec.strategy, seed, err)
    return cell, time.perf_counter() - start


# the functions of other layers that a cell looks up in this module, as imported
_CELL_CALLS = {name: globals()[name] for name in (
    "train", "evaluate_records", "uncertainty_records",
    "classification_metrics", "ece", "aece", "oe", "mce", "brier")}


def _cell_calls_replaced() -> bool:
    """Whether a function a cell calls was replaced after import, as a tracer
    timing a layer or a test counting calls does. Such a wrapper keeps its
    records in this process, so the cells must run here, not in workers."""
    return any(globals()[name] is not fn for name, fn in _CELL_CALLS.items())


def run_suite(config: ExperimentConfig, out: Path) -> SuiteResult:
    split = generate_split(config)
    out.mkdir(parents=True, exist_ok=True)

    specs = [LossSpec.from_dict(dict(entry)) for entry in config.suite]
    cell_args = [(spec, seed) for spec in specs for seed in config.seeds]
    cells = []
    outcomes = map_cells(_timed_cell, (config, split), cell_args,
                         inline=_cell_calls_replaced())
    for (spec, seed), outcome in zip(cell_args, outcomes):
        if isinstance(outcome, BrokenProcessPool):
            outcome = _failed_cell(spec.strategy, seed, outcome), 0.0
        cell, seconds = outcome
        cells.append(cell)
        # progress goes to stderr: timings stay out of the reports
        print(f"[{len(cells)}/{len(cell_args)}] {spec.strategy} seed {seed} "
              f"{'FAILED' if cell.failed else 'ok'} {seconds:.1f}s",
              file=sys.stderr, flush=True)

    _write_reports(config, cells, out)
    ok = not any(c.failed for c in cells)
    return SuiteResult(cells=cells, ok=ok)


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _write_reports(config: ExperimentConfig, cells: list[CellResult], out: Path) -> None:
    # a manifest marks a complete run directory: drop an earlier run's before
    # writing any report, and write this run's after every report
    (out / "manifest.json").unlink(missing_ok=True)
    strategies = [entry["strategy"] for entry in config.suite]
    written: list[Path] = []          # the manifest lists these, not what else is in ``out``

    def report(path: Path, header: list[str], rows: list[list]) -> None:
        write_csv(path, header, rows)
        written.append(path)
    by_key = {(c.strategy, c.seed): c for c in cells}

    # per-epoch curves
    hist_dir = out / "history"
    hist_dir.mkdir(exist_ok=True)
    for cell in cells:
        report(hist_dir / f"{cell.strategy}_seed{cell.seed}.csv",
               HISTORY_COLUMNS, cell.epochs)

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
                        if cell.failed:
                            continue
                        vals.append(cell.metrics[criterion][mode][col])
                    mean, std = _aggregate(vals)
                    row.extend([mean, std])
                rows.append(row)
        header = ["strategy", "criterion"]
        for col in METRIC_COLUMNS:
            header.extend([f"{col}_mean", f"{col}_std"])
        report(out / f"metrics_{mode}.csv", header, rows)

    # selection-criterion comparison (test BACC and ECE under each criterion)
    rows = []
    for strategy in strategies:
        for seed in config.seeds:
            cell = by_key[(strategy, seed)]
            row = [strategy, seed]
            for criterion in CRITERIA:
                if cell.failed:
                    row.extend([None, None, None])
                else:
                    m = cell.metrics[criterion]["softmax"]
                    row.extend([cell.selected_epoch[criterion], m["bacc"], m["ece"]])
            rows.append(row)
    report(out / "selection_comparison.csv",
              ["strategy", "seed",
               "bacc_epoch", "bacc_test_bacc", "bacc_test_ece",
               "ece_epoch", "ece_test_bacc", "ece_test_ece"], rows)

    # McNemar against the baseline, per seed, under the configured criterion;
    # a run of the baseline alone has nothing to compare
    if "baseline" in strategies and len(strategies) > 1:
        rows = []
        for strategy in strategies:
            if strategy == "baseline":
                continue
            for seed in config.seeds:
                base = by_key[("baseline", seed)]
                cell = by_key[(strategy, seed)]
                if base.failed or cell.failed:
                    rows.append([strategy, seed, None, None, None, None])
                    continue
                test = mcnemar(base.test_records[config.criterion],
                               cell.test_records[config.criterion])
                rows.append([strategy, seed, test["statistic"], test["p_value"],
                             test["b"], test["c"]])
        report(out / "mcnemar_vs_baseline.csv",
                  ["strategy", "seed", "statistic", "p_value", "b", "c"], rows)

    # reliability tables and SVGs: first seed, configured criterion
    rel_dir = out / "reliability"
    rel_dir.mkdir(exist_ok=True)
    for strategy in strategies:
        cell = by_key[(strategy, config.seeds[0])]
        if cell.failed:
            continue
        records = cell.test_records[config.criterion]
        for scheme in ("equal_width", "adaptive"):
            table = reliability_table(records, scheme, 15)
            rows = [[r[col] for col in RELIABILITY_COLUMNS] for r in table.rows()]
            report(rel_dir / f"{strategy}_{scheme}.csv", RELIABILITY_COLUMNS, rows)
            write_reliability_svg(table, rel_dir / f"{strategy}_{scheme}.svg",
                                  reliability_title(strategy, scheme))

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
        "reports": sorted(str(p.relative_to(out)) for p in written),
    }
    _write_atomic(out / "manifest.json",
                  (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
