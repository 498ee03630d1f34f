"""Harness tests: config, training loop, selection, grid search, suite, CLI."""

import argparse
import dataclasses
import json
import multiprocessing
import os
import re
import shlex
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from calibtrain.data import generate_gaussian_mixture
from calibtrain.harness import (
    EpochEntry,
    EpochHistory,
    ExperimentConfig,
    config_hash,
    train,
)
from calibtrain.harness import cli, grid, pool, suite, training
from calibtrain.harness.cli import main
from calibtrain.harness.config import CRITERIA, DEFAULT_SUITE, criterion_value
from calibtrain.harness.grid import grid_search
from calibtrain.harness.suite import run_suite
from calibtrain.harness.training import AVUC_WARMUP_EPOCHS
from calibtrain.losses import STRATEGIES, LossSpec
from calibtrain.model import load_checkpoint
from calibtrain.uncertainty import uncertainty_records

TINY = dict(sizes=(80, 40, 40), epochs=2, batch_size=20, seeds=[0],
            n_uncertainty=5)

# deterministic mid-training blow-up: the penalty coefficient overflows the
# gradients on the first batch
EXPLODING = {"strategy": "mmce", "lambda_n": 1e308}


def tiny_config(**over):
    kw = dict(TINY)
    kw.update(over)
    return ExperimentConfig(**kw)


def tiny_split(config):
    return generate_gaussian_mixture(
        sizes=config.sizes, d=config.d, separation=config.separation,
        noise_rate=config.noise_rate, positive_fraction=config.positive_fraction,
        seed=config.data_seed)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_round_trip():
    cfg = tiny_config(grid={"lambda_n": [0.1, 1.0]},
                      loss={"strategy": "probability"})
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)


def test_config_hash_changes_with_fields():
    a = tiny_config()
    b = tiny_config(epochs=3)
    assert config_hash(a) != config_hash(b)


@pytest.mark.parametrize("bad", [
    dict(sizes=(10, 10)),
    dict(epochs=-1),
    dict(batch_size=0),
    dict(lr_vae=0.0),
    dict(criterion="max-test-acc"),
    dict(seeds=[]),
    dict(seeds=[-1]),
    dict(seeds=[1, 1]),
    dict(data_seed=-1),
    dict(n_uncertainty=0),
    dict(grid={"not_a_field": [1]}),
    dict(grid={"lambda_n": []}),
    dict(loss={"strategy": "nope"}),
    dict(suite=[{"strategy": "baseline"}, {"strategy": "nope"}]),
    dict(d=0),
    dict(hidden=0),
    dict(latent=-1),
    # values of the wrong JSON type
    dict(epochs="3"),
    dict(epochs=True),
    dict(seeds=[0.5, 1.5]),
    dict(seeds=0),
    dict(sizes=[400.7, 200, 200]),
    dict(sizes="abc"),
    dict(d=8.5),
    dict(separation="2"),
    dict(lr_vae=None),
    dict(loss={"strategy": ["avuc"]}),
    dict(loss={"strategy": "soft_ece", "n_bins": 15.5}),
    dict(loss={"strategy": "soft_ece", "n_bins": True}),
    dict(loss={"strategy": "mmce", "kernel_width": "0.4"}),
    dict(loss=["baseline"]),
    dict(suite=[{"strategy": "baseline"}, "mmce"]),
    dict(grid={"lambda_n": 0.5}),
    dict(grid={"lambda_n": [0.5, "1"]}),
    # non-finite loss numbers, a grid candidate included
    dict(loss={"strategy": "mmce", "kernel_width": float("nan")}),
    dict(suite=[{"strategy": "soft_ece", "temperature": float("inf")}]),
    dict(grid={"lambda_n": [0.5, float("nan")]}),
])
def test_config_rejects_bad_values(bad):
    kw = dict(TINY)
    kw.update(bad)
    with pytest.raises(ValueError):
        ExperimentConfig(**kw)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["sizes", "d", "separation", "noise_rate",
                                   "positive_fraction", "data_seed", "hidden", "latent",
                                   "epochs", "batch_size", "lr_vae", "lr_classifier",
                                   "seeds", "n_uncertainty"])
def test_config_rejects_non_finite_numbers(field, value):
    # a NaN passes a range check written as `x <= 0`: refuse it by type
    kw = dict(TINY)
    kw[field] = {"sizes": [value, 40, 40], "seeds": [value]}.get(field, value)
    with pytest.raises(ValueError, match=f"^{field} must be "):
        ExperimentConfig(**kw)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"epochz": 3})


def test_config_from_dict_rejects_a_non_object():
    with pytest.raises(ValueError, match="^a config must be a JSON object, got list$"):
        ExperimentConfig.from_dict(["epochs"])


def test_out_dir_env_root(monkeypatch):
    def out_dir(*argv):
        return str(cli.out_dir(cli.build_parser().parse_args(["suite", *argv])))

    monkeypatch.setenv("CALIBTRAIN_OUT", "/data/out")
    assert out_dir("--out", "runs/exp1") == "/data/out/runs/exp1"
    assert out_dir("--out", "/abs/path") == "/abs/path"
    assert out_dir() == "/data/out/runs"
    monkeypatch.setenv("CALIBTRAIN_OUT", "")
    assert out_dir() == "runs"
    monkeypatch.delenv("CALIBTRAIN_OUT")
    assert out_dir("--out", "runs/exp1") == "runs/exp1"
    assert out_dir() == "runs"


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_two_runs_identical():
    cfg = tiny_config()
    split = tiny_split(cfg)
    h1 = train(cfg, split, seed=0)
    h2 = train(cfg, split, seed=0)
    assert [e.__dict__ for e in h1.entries] == [e.__dict__ for e in h2.entries]


def test_config_rejects_zero_epochs():
    # a run that records no epoch would have nothing to select
    with pytest.raises(ValueError, match="epochs must be >= 1, got 0"):
        tiny_config(epochs=0)


def test_conf_weight_one_matches_baseline_history():
    # floor 1 forces every sample weight to exactly 1, so the trajectory
    # must be the baseline one bit for bit
    cfg = tiny_config()
    split = tiny_split(cfg)
    base = train(cfg, split, seed=0)
    spec = LossSpec.from_dict({"strategy": "confidence_weight", "weight_floor": 1.0})
    weighted = train(cfg, split, seed=0, spec=spec)
    assert [e.__dict__ for e in weighted.entries] == [e.__dict__ for e in base.entries]


# a valid value other than the default for every field a strategy row reads
CHANGED = {"lambda_n": 0.5, "margin": 0.3, "weight_floor": 0.5, "temperature": 0.05,
           "n_bins": 5, "norm_order": 1.0, "kernel_width": 0.2}


@pytest.mark.parametrize("strategy, field", [
    (strategy, field) for strategy, row in STRATEGIES.items() for field in row.reads])
def test_every_field_a_strategy_reads_changes_training(strategy, field):
    # past AvUC's warm-up, so a threshold the loss read would show too
    cfg = tiny_config(epochs=AVUC_WARMUP_EPOCHS + 2)
    split = tiny_split(cfg)
    spec = LossSpec(strategy=strategy)
    histories = [train(cfg, split, seed=0, spec=s)
                 for s in (spec, dataclasses.replace(spec, **{field: CHANGED[field]}))]
    assert all(len(h.entries) == cfg.epochs for h in histories)
    assert histories[0].entries != histories[1].entries


def test_avuc_threshold_follows_warmup_then_accurate_entropy(monkeypatch):
    cfg = tiny_config(epochs=AVUC_WARMUP_EPOCHS + 2, loss={"strategy": "avuc"})
    seen = []   # (threshold, probabilities, correctness) per batch
    real_total_loss = training.total_loss

    def spy(*args, **kwargs):
        loss, batch = real_total_loss(*args, **kwargs)
        seen.append((kwargs["avuc_threshold"], batch.probs, batch.correct))
        return loss, batch

    monkeypatch.setattr(training, "total_loss", spy)
    train(cfg, tiny_split(cfg), seed=0)
    per_epoch = len(seen) // cfg.epochs
    epochs = [seen[e * per_epoch:(e + 1) * per_epoch] for e in range(cfg.epochs)]
    for epoch, batches in enumerate(epochs):
        want = 1.0
        if epoch >= AVUC_WARMUP_EPOCHS:
            prev = epochs[epoch - 1]
            p = np.concatenate([probs for _, probs, _ in prev])
            p = p[np.concatenate([correct for _, _, correct in prev])]
            entropy = np.mean(-(p * np.log2(p)).sum(axis=1))
            assert 0 < len(p) and entropy < 1.0
            want = pytest.approx(entropy, rel=1e-12)
        assert [t for t, _, _ in batches] == [want] * per_epoch, epoch


def test_train_records_best_per_criterion():
    cfg = tiny_config(epochs=3)
    history = train(cfg, tiny_split(cfg), seed=0)
    assert len(history.entries) == 3
    for criterion in CRITERIA:
        values = [criterion_value(criterion, e) for e in history.entries]
        want = max(values) if criterion == "max-val-bacc" else min(values)
        stored = history.best[criterion]
        assert stored["epoch"] == values.index(want)
        assert stored["value"] == want
        assert stored["params"] is not None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_abort_keeps_partial_history():
    cfg = tiny_config()
    history = train(cfg, tiny_split(cfg), seed=0,
                    spec=LossSpec.from_dict(dict(EXPLODING)))
    assert history.failed
    assert "non-finite" in history.failure
    assert isinstance(history.entries, list)


def _spy_total_loss(monkeypatch, edit):
    """Route training's loss through ``edit(call, loss, batch)``, where call
    counts the batches trained so far; four batches make a tiny epoch."""
    real_total_loss = training.total_loss
    calls = []

    def spy(*args, **kwargs):
        loss, batch = real_total_loss(*args, **kwargs)
        calls.append(kwargs["avuc_threshold"])
        return edit(len(calls) - 1, loss, batch)

    monkeypatch.setattr(training, "total_loss", spy)
    return calls


def test_train_non_finite_loss_aborts_and_keeps_earlier_epochs(monkeypatch):
    def nan_at_epoch_1_batch_2(call, loss, batch):
        if call == 4 + 2:
            loss.value = np.float64(np.nan)
        return loss, batch

    _spy_total_loss(monkeypatch, nan_at_epoch_1_batch_2)
    cfg = tiny_config(epochs=3)
    history = train(cfg, tiny_split(cfg), seed=0)
    assert history.failed
    assert history.failure == "non-finite loss at epoch 1 batch 2"
    assert [e.epoch for e in history.entries] == [0]
    assert all(best["epoch"] == 0 for best in history.best.values())


def test_avuc_epoch_without_a_correct_prediction_keeps_the_threshold(monkeypatch):
    wrong_epoch = AVUC_WARMUP_EPOCHS + 1

    def none_correct_in_one_epoch(call, loss, batch):
        if call // 4 == wrong_epoch:
            batch = dataclasses.replace(batch, correct=np.zeros_like(batch.correct))
        return loss, batch

    thresholds = _spy_total_loss(monkeypatch, none_correct_in_one_epoch)
    cfg = tiny_config(epochs=wrong_epoch + 2, loss={"strategy": "avuc"})
    assert not train(cfg, tiny_split(cfg), seed=0).failed
    per_epoch = [set(thresholds[e * 4:(e + 1) * 4]) for e in range(cfg.epochs)]
    assert per_epoch[:AVUC_WARMUP_EPOCHS] == [{1.0}] * AVUC_WARMUP_EPOCHS
    (learned,) = per_epoch[wrong_epoch]
    assert 0.0 < learned < 1.0
    assert per_epoch[wrong_epoch + 1] == {learned}


# ---------------------------------------------------------------------------
# model selection
# ---------------------------------------------------------------------------

def crossed_history():
    # epoch 0 wins on BACC, epoch 1 wins on ECE
    h = EpochHistory()
    h.record(EpochEntry(0, 1.0, 0.90, 0.30), lambda: {"w": np.zeros(1)})
    h.record(EpochEntry(1, 0.9, 0.70, 0.05), lambda: {"w": np.ones(1)})
    return h


def test_crossed_rankings_select_different_checkpoints():
    h = crossed_history()
    by_bacc, by_ece = h.best["max-val-bacc"], h.best["min-val-ece"]
    assert by_bacc["epoch"] == 0
    assert by_ece["epoch"] == 1
    assert by_bacc["params"]["w"][0] != by_ece["params"]["w"][0]


def test_selection_ties_go_to_earliest_epoch():
    h = EpochHistory()
    for epoch in range(3):
        h.record(EpochEntry(epoch, 1.0, 0.8, 0.1), lambda: {})
    for criterion in CRITERIA:
        assert h.best[criterion]["epoch"] == 0
        assert h.best[criterion]["params"] is not None


# ---------------------------------------------------------------------------
# grid search
# ---------------------------------------------------------------------------

def test_grid_single_cell():
    cfg = tiny_config(loss={"strategy": "probability"}, grid={"lambda_n": [0.5]})
    result = grid_search(cfg, tiny_split(cfg))
    assert len(result.cells) == 1
    assert result.best.lambda_n == 0.5
    assert len(result.cells[0].fold_scores) == 2


def test_grid_lambda_n_zero_cell_reproduces_baseline():
    cfg = tiny_config(loss={"strategy": "probability"},
                      grid={"lambda_n": [0.0, 0.8]})
    result = grid_search(cfg, tiny_split(cfg))
    zero_cell = next(c for c in result.cells if c.values["lambda_n"] == 0.0)

    base_cfg = tiny_config(loss={"strategy": "baseline"},
                           grid={"lambda_kl": [0.001]})
    base = grid_search(base_cfg, tiny_split(base_cfg))
    assert zero_cell.fold_scores == base.cells[0].fold_scores


def test_grid_irrelevant_key_warns_but_runs(caplog):
    cfg = tiny_config(epochs=1, loss={"strategy": "baseline"},
                      grid={"margin": [0.4, 0.6]})
    with caplog.at_level("WARNING", logger="calibtrain.harness.grid"):
        result = grid_search(cfg, tiny_split(cfg))
    assert "not consumed" in caplog.text
    assert len(result.cells) == 2
    # both cells trained the same objective, so the scores agree exactly
    assert result.cells[0].fold_scores == result.cells[1].fold_scores


@pytest.mark.parametrize("criterion", ["max-val-bacc", "min-val-ece"])
def test_grid_ties_go_to_first_cell(criterion):
    # margin is not consumed by baseline, so every cell scores the same
    cfg = tiny_config(epochs=1, criterion=criterion, loss={"strategy": "baseline"},
                      grid={"margin": [0.6, 0.4, 0.5]})
    result = grid_search(cfg, tiny_split(cfg))
    assert len({c.mean_score for c in result.cells}) == 1
    assert result.best.margin == 0.6


@pytest.mark.parametrize("criterion", ["max-val-bacc", "min-val-ece"])
def test_grid_later_cell_wins(monkeypatch, criterion):
    # each fold scores lambda_n itself, signed so that the larger value is
    # better under the criterion: the second cell wins and the third does not
    better = 1.0 if criterion == "max-val-bacc" else -1.0

    def scored_by_lambda_n(config, split, seed, spec):
        history = EpochHistory()
        history.best[criterion] = {"epoch": 0, "value": better * spec.lambda_n, "params": {}}
        return history

    monkeypatch.setattr(grid, "train", scored_by_lambda_n)
    cfg = tiny_config(criterion=criterion, loss={"strategy": "probability"},
                      grid={"lambda_n": [0.1, 0.3, 0.2]})
    result = grid_search(cfg, tiny_split(cfg))
    assert [c.mean_score for c in result.cells] == [better * v for v in (0.1, 0.3, 0.2)]
    assert result.best == LossSpec(strategy="probability", lambda_n=0.3)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_failed_cell_has_no_mean_score():
    cfg = tiny_config(epochs=1, loss=dict(EXPLODING), grid={"lambda_n": [1.0, 1e308]})
    result = grid_search(cfg, tiny_split(cfg))
    assert [c.failed for c in result.cells] == [False, True]
    assert isinstance(result.cells[0].mean_score, float)
    assert result.cells[1].mean_score is None
    assert result.best.lambda_n == 1.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grid_all_cells_failed():
    cfg = tiny_config(loss=dict(EXPLODING), grid={"lambda_n": [1e308]})
    with pytest.raises(RuntimeError, match="every grid cell failed"):
        grid_search(cfg, tiny_split(cfg))


def test_grid_requires_grid():
    cfg = tiny_config()
    with pytest.raises(ValueError, match="nonempty grid"):
        grid_search(cfg, tiny_split(cfg))


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------

SMALL_SUITE = [{"strategy": "baseline"},
               {"strategy": "soft_ece", "lambda_n": 1.0, "temperature": 0.1}]


def test_suite_reports(tmp_path):
    cfg = tiny_config(seeds=[0, 1], suite=[dict(s) for s in SMALL_SUITE])
    out = tmp_path / "run"
    result = run_suite(cfg, out)
    assert result.ok
    assert len(result.cells) == 4

    for name in ("metrics_softmax.csv", "metrics_epistemic.csv",
                 "metrics_aleatoric.csv", "selection_comparison.csv",
                 "mcnemar_vs_baseline.csv", "manifest.json"):
        assert (out / name).exists(), name

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(cfg)
    assert len(manifest["cells"]) == 4
    for cell in manifest["cells"]:
        assert (out / cell["history_csv"]).exists()
    for rel in manifest["reports"]:
        assert (out / rel).exists()

    # both criteria appear for every strategy in the metric tables
    lines = (out / "metrics_softmax.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * len(SMALL_SUITE)
    for svg in ("baseline_equal_width.svg", "baseline_adaptive.svg",
                "soft_ece_equal_width.svg", "soft_ece_adaptive.svg"):
        assert (out / "reliability" / svg).exists()


def test_suite_manifest_lists_only_this_runs_reports(tmp_path):
    out = tmp_path / "run"
    run_suite(tiny_config(suite=[{"strategy": "baseline"}, {"strategy": "avuc"}]), out)
    run_suite(tiny_config(suite=[{"strategy": "baseline"}]), out)
    assert (out / "history" / "avuc_seed0.csv").exists()   # left by the first run
    reports = json.loads((out / "manifest.json").read_text())["reports"]
    assert reports == sorted(reports)
    assert not [rel for rel in reports if "avuc" in rel or rel == "mcnemar_vs_baseline.csv"]
    assert "history/baseline_seed0.csv" in reports


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_suite_records_failure_without_aborting(tmp_path):
    cfg = tiny_config(suite=[{"strategy": "baseline"}, dict(EXPLODING)])
    result = run_suite(cfg, tmp_path / "run")
    assert not multiprocessing.active_children()
    assert not result.ok
    by_strategy = {c.strategy: c for c in result.cells}
    assert not by_strategy["baseline"].failed
    assert by_strategy["mmce"].failed
    assert "non-finite" in by_strategy["mmce"].failure
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    flags = {c["strategy"]: c["failed"] for c in manifest["cells"]}
    assert flags == {"baseline": False, "mmce": True}


def test_cli_suite_reports_a_cell_that_raises(tmp_path, monkeypatch, capsys):
    real_train = suite.train

    def train_or_raise(config, split, seed, spec):
        if spec.strategy == "soft_ece":
            raise RuntimeError("no soft_ece today")
        return real_train(config, split, seed=seed, spec=spec)

    monkeypatch.setattr(suite, "train", train_or_raise)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "sizes": [80, 40, 40], "epochs": 1, "batch_size": 20, "seeds": [0],
        "n_uncertainty": 3, "suite": [dict(s) for s in SMALL_SUITE],
    }))
    run = tmp_path / "run"
    assert main(["suite", "--config", str(config), "--out", str(run)]) == 1
    assert "soft_ece seed 0: FAILED (RuntimeError: no soft_ece today)" in capsys.readouterr().out
    manifest = json.loads((run / "manifest.json").read_text())
    cells = {c["strategy"]: c for c in manifest["cells"]}
    assert cells["soft_ece"]["failed"]
    assert cells["soft_ece"]["failure"] == "RuntimeError: no soft_ece today"
    assert not cells["baseline"]["failed"]
    for rel in manifest["reports"]:
        assert (run / rel).exists()
    assert "baseline,max-val-bacc" in (run / "metrics_softmax.csv").read_text()


def test_suite_evaluates_each_selected_epoch_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append((args[2], kwargs))
        return uncertainty_records(*args, **kwargs)

    monkeypatch.setattr("calibtrain.harness.suite.uncertainty_records", counting)
    # at 3 epochs, mmce seed 2 selects different epochs under the two
    # criteria, and the other cells select one epoch under both
    cfg = tiny_config(epochs=3, seeds=[0, 2], separation=3.0,
                      suite=[{"strategy": "baseline"}, {"strategy": "mmce"}])
    result = run_suite(cfg, tmp_path / "run")
    assert result.ok
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    distinct = [len(set(c["selected_epoch"].values())) for c in manifest["cells"]]
    assert sorted(set(distinct)) == [1, 2]
    assert len(calls) == 2 * sum(distinct)
    kinds = [kind for kind, _ in calls]
    assert kinds.count("epistemic") == kinds.count("aleatoric")
    # the aleatoric votes take the suite's sigma, a tenth of the separation
    assert all(kwargs["sigma"] == 0.1 * cfg.separation
               for kind, kwargs in calls if kind == "aleatoric")

    for cell in result.cells:
        bacc, ece_ = (cell.selected_epoch[c] for c in ("max-val-bacc", "min-val-ece"))
        if bacc != ece_:
            continue
        assert cell.metrics["max-val-bacc"] == cell.metrics["min-val-ece"]
        a, b = cell.test_records["max-val-bacc"], cell.test_records["min-val-ece"]
        for field in ("conf", "predicted", "g", "correct", "probs"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


def test_suite_rerun_byte_identical(tmp_path, monkeypatch):
    cfg = tiny_config(seeds=[0, 1], suite=[dict(s) for s in SMALL_SUITE])
    a, b = tmp_path / "a", tmp_path / "b"
    # the first run in this process, the second on every CPU
    with monkeypatch.context() as m:
        m.setattr(pool, "available_cpus", lambda: 1)
        run_suite(cfg, a)
    run_suite(cfg, b)
    assert not multiprocessing.active_children()
    names = sorted(str(p.relative_to(a)) for p in a.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(b)) for p in b.rglob("*") if p.is_file())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("cpus, n_cells, workers", [
    (10**9, 3, [3]), (2, 50, [2]), (64, 64, [64]), (1, 50, []), (10**9, 1, [])])
def test_map_cells_caps_workers_at_cpus_and_cells(monkeypatch, cpus, n_cells, workers):
    started = []

    class Executor:   # runs each call at once: no process starts
        def __init__(self, max_workers, mp_context, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(pool, "available_cpus", lambda: cpus)
    monkeypatch.setattr(pool, "ProcessPoolExecutor", Executor)
    cells = [(k,) for k in range(n_cells)]
    expected = [10 + k for k in range(n_cells)]
    assert list(pool.map_cells(lambda base, k: base + k, (10,), cells)) == expected
    assert started == workers
    assert list(pool.map_cells(lambda base, k: base + k, (10,), cells, inline=True)) == expected
    assert started == workers


@pytest.mark.skipif(pool.available_cpus() < 2, reason="a pool needs two CPUs")
def test_suite_worker_killed_mid_cell_fails_unfinished_cells(tmp_path, monkeypatch):
    test_process = os.getpid()
    run_cell = suite._run_cell

    def dying(config, split, spec, seed, *rest):
        if spec.strategy == "soft_ece" and os.getpid() != test_process:
            os._exit(1)
        return run_cell(config, split, spec, seed, *rest)

    # fork hands the patched function to the workers
    monkeypatch.setattr(suite, "_run_cell", dying)
    cfg = tiny_config(epochs=1, seeds=[0, 1], suite=[dict(s) for s in SMALL_SUITE])
    out = tmp_path / "run"
    result = run_suite(cfg, out)
    assert not multiprocessing.active_children()
    assert not result.ok
    failed = {(c.strategy, c.seed): c.failure for c in result.cells if c.failed}
    assert {("soft_ece", 0), ("soft_ece", 1)} <= failed.keys()
    assert all(f.startswith("BrokenProcessPool: ") for f in failed.values())
    manifest = json.loads((out / "manifest.json").read_text())
    assert [c["failed"] for c in manifest["cells"]] == [c.failed for c in result.cells]
    assert (out / "metrics_softmax.csv").exists()


def test_suite_failed_report_write_leaves_no_manifest(tmp_path, monkeypatch):
    cfg = tiny_config(epochs=1, suite=[{"strategy": "baseline"}])
    out = tmp_path / "run"
    run_suite(cfg, out)
    assert (out / "manifest.json").exists()
    render = suite.write_reliability_svg

    def failing(table, path, title):
        if path.name == "baseline_adaptive.svg":   # the last report written
            raise OSError("disk full")
        render(table, path, title)

    monkeypatch.setattr(suite, "write_reliability_svg", failing)
    with pytest.raises(OSError, match="disk full"):
        run_suite(cfg, out)
    # the earlier run's manifest no longer vouches for the directory
    assert [p.name for p in out.iterdir() if "manifest" in p.name] == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_train_and_checkpoints(tmp_path, capsys):
    out = tmp_path / "train"
    argv = ["train", "--out", str(out), "--set", "sizes=[80,40,40]",
            "--epochs", "2", "--batch-size", "20", "--seeds", "0",
            "--strategy", "probability"]
    assert main(argv) == 0
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_bacc,val_ece"
    assert len(history) == 3
    resolved = cli.load_config(cli.build_parser().parse_args(argv))
    for criterion in ("max-val-bacc", "min-val-ece"):
        assert (out / "checkpoints" / criterion / "params.bin").exists()
        # the manifest names the config, and so the split and scaler, it came from
        manifest = json.loads((out / "checkpoints" / criterion / "manifest.json").read_text())
        assert ExperimentConfig.from_dict(manifest["extra"]["config"]) == resolved
    assert "max-val-bacc: epoch" in capsys.readouterr().out


def test_cli_grid(tmp_path, capsys):
    out = tmp_path / "grid"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "sizes": [80, 40, 40], "epochs": 1, "batch_size": 20, "seeds": [0],
        "loss": {"strategy": "probability"}, "grid": {"lambda_n": [0.0, 1.0]},
    }))
    code = main(["grid", "--config", str(config), "--out", str(out)])
    assert code == 0
    lines = (out / "grid.csv").read_text().splitlines()
    assert lines[0] == "lambda_n,fold0,fold1,mean,failed"
    assert len(lines) == 3
    assert "best cell" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_suite_failure_exit_code(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "sizes": [80, 40, 40], "epochs": 1, "batch_size": 20, "seeds": [0],
        "n_uncertainty": 5,
        "suite": [{"strategy": "baseline"}, EXPLODING],
    }))
    code = main(["suite", "--config", str(config),
                 "--out", str(tmp_path / "run")])
    assert code == 1
    assert "FAILED" in capsys.readouterr().out
    # report lists the failed cell, then the tables of the cells that ran
    assert main(["report", str(tmp_path / "run")]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("1 failed cell(s):")
    assert lines[at + 1].startswith("  mmce seed 0: non-finite gradient")
    assert "metrics_softmax" in lines[at + 2:]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_train_failed_run_writes_history_only(tmp_path, capsys):
    out = tmp_path / "train"
    argv = ["train", "--out", str(out), "--set", "sizes=[80,40,40]", "--epochs", "2",
            "--batch-size", "20", "--set", f"loss={json.dumps(EXPLODING)}"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("run failed: non-finite")
    assert (out / "history.csv").read_text().splitlines() == ["epoch,train_loss,val_bacc,val_ece"]
    assert not (out / "checkpoints").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_failed_train_leaves_no_earlier_checkpoints(tmp_path, capsys):
    out = tmp_path / "train"
    argv = ["train", "--out", str(out), "--set", "sizes=[80,40,40]", "--epochs", "1",
            "--batch-size", "20"]
    assert main(argv) == 0
    assert (out / "checkpoints" / "max-val-bacc" / "params.bin").exists()
    assert main([*argv, "--set", "lr_vae=1e300"]) == 1
    assert (out / "history.csv").read_text().splitlines() == ["epoch,train_loss,val_bacc,val_ece"]
    # the first run's model must not pass for this run's
    assert not [p for p in (out / "checkpoints").rglob("*") if p.is_file()]
    for criterion in CRITERIA:
        with pytest.raises(OSError):
            load_checkpoint(out / "checkpoints" / criterion)


def test_cli_train_runs_the_first_of_seeds(tmp_path):
    out = tmp_path / "train"
    assert main(["train", "--out", str(out), "--set", "sizes=[80,40,40]", "--epochs", "1",
                 "--batch-size", "20", "--seeds", "3,1"]) == 0
    for criterion in CRITERIA:
        manifest = json.loads((out / "checkpoints" / criterion / "manifest.json").read_text())
        assert manifest["seed"] == manifest["extra"]["seed"] == 3


@pytest.mark.parametrize("argv", [
    ["train", "--seed", "3"],                   # train runs the first of --seeds
    ["train", "--criterion", "min-val-ece"],    # train keeps a checkpoint per criterion
    ["suite", "--strategy", "mmce"],            # suite trains its suite list, not the loss
], ids=["train-seed", "train-criterion", "suite-strategy"])
def test_cli_subcommands_refuse_flags_they_do_not_read(tmp_path, capsys, argv):
    out = tmp_path / "run"
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--out", str(out), "--set", "sizes=[80,40,40]", "--epochs", "1",
              "--seeds", "0"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert f"error: unrecognized arguments: {' '.join(argv[1:])}" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "grid", "suite"])
def test_cli_refuses_a_config_that_names_an_output_directory(tmp_path, capsys, command):
    config = tmp_path / "config.json"
    elsewhere = tmp_path / "elsewhere"
    config.write_text(json.dumps({"out_dir": str(elsewhere), "sizes": [80, 40, 40],
                                  "epochs": 1, "seeds": [0], "grid": {"lambda_n": [0.0]}}))
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: unknown config keys: ['out_dir']"]
    assert not out.exists() and not elsewhere.exists()


def test_cli_suite_manifest_is_the_same_wherever_written(tmp_path, monkeypatch, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "sizes": [80, 40, 40], "epochs": 1, "batch_size": 20, "seeds": [0],
        "n_uncertainty": 3, "suite": [{"strategy": "baseline"}],
    }))
    monkeypatch.setenv("CALIBTRAIN_OUT", str(tmp_path))
    for out in ("a", "b/c"):
        assert main(["suite", "--config", str(config), "--out", out]) == 0
    first, second = ((tmp_path / out / "manifest.json").read_bytes() for out in ("a", "b/c"))
    assert first == second
    manifest = json.loads(first)
    assert manifest["config_hash"] == config_hash(ExperimentConfig.from_dict(manifest["config"]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_grid_every_cell_failed(tmp_path, capsys):
    out = tmp_path / "grid"
    argv = ["grid", "--out", str(out), "--set", "sizes=[80,40,40]", "--epochs", "1",
            "--batch-size", "20", "--set", f"loss={json.dumps(EXPLODING)}",
            "--set", 'grid={"lambda_n": [1e308]}']
    assert main(argv) == 1
    assert capsys.readouterr().err == "grid search failed: every grid cell failed\n"
    assert not out.exists()


def test_cli_train_checks_loss_keys_its_strategy_does_not_read(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["train", "--set", 'loss={"strategy":"baseline","n_bins":1}',
            "--set", "sizes=[80,40,40]", "--epochs", "1", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.splitlines() == ["error: n_bins must be >= 2, got 1"]
    assert not out.exists()


def test_cli_report_and_plot(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "sizes": [80, 40, 40], "epochs": 1, "batch_size": 20, "seeds": [0],
        "n_uncertainty": 5, "suite": [{"strategy": "baseline"}],
    }))
    run_dir = tmp_path / "run"
    assert main(["suite", "--config", str(config), "--out", str(run_dir)]) == 0
    capsys.readouterr()

    assert main(["report", str(run_dir)]) == 0
    text = capsys.readouterr().out
    assert "config hash" in text
    assert "metrics_softmax" in text

    svg = run_dir / "reliability" / "baseline_equal_width.svg"
    before = svg.read_bytes()
    svg.unlink()
    assert main(["plot", str(run_dir)]) == 0
    assert svg.read_bytes() == before


@pytest.mark.parametrize("manifest", [
    {"seeds": [0], "cells": []},
    {"config_hash": "abc", "cells": []},
    {"config_hash": "abc", "seeds": [0]},
    {"config_hash": "abc", "seeds": [0], "cells": [{"strategy": "baseline"}]},
    ["not", "an", "object"],
])
def test_cli_report_malformed_manifest(tmp_path, capsys, manifest):
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: malformed manifest")


def test_cli_report_manifest_not_json(tmp_path, capsys):
    path = tmp_path / "manifest.json"
    path.write_text("{bad")
    assert main(["report", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {path}: not JSON (")


@pytest.mark.parametrize("bad_table,problem", [
    ("", "empty"),
    ("strategy,criterion,ece_mean\nbaseline,max-val-bacc\n", "line 2 has 2 columns, expected 3"),
    ("strategy,criterion,ece_mean\nbaseline,max-val-bacc,0.1,9\n",
     "line 2 has 4 columns, expected 3"),
], ids=["empty", "short_row", "long_row"])
def test_cli_report_rejects_bad_tables(tmp_path, capsys, bad_table, problem):
    (tmp_path / "manifest.json").write_text(
        json.dumps({"config_hash": "abc", "seeds": [0], "cells": []}))
    (tmp_path / "metrics_softmax.csv").write_text(
        "strategy,criterion,ece_mean\nbaseline,max-val-bacc,0.1\n")
    bad = tmp_path / "metrics_epistemic.csv"
    bad.write_text(bad_table)
    assert main(["report", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err.strip().splitlines() == [err.strip()]
    assert err.startswith(f"error: {bad}: ") and problem in err
    assert out == ""


def test_cli_report_and_plot_name_a_table_that_is_not_utf8(tmp_path, capsys):
    (tmp_path / "manifest.json").write_text(
        json.dumps({"config_hash": "abc", "seeds": [0], "cells": []}))
    metrics = tmp_path / "metrics_softmax.csv"
    metrics.write_bytes(b"\xffstrategy,criterion\n")
    (tmp_path / "reliability").mkdir()
    table = tmp_path / "reliability" / "x_adaptive.csv"
    table.write_bytes(b"\xff" + GOOD_TABLE.encode())
    for command, bad in (("report", metrics), ("plot", table)):
        assert main([command, str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {bad}: not a CSV table ('utf-8' codec can't decode "
                       "byte 0xff in position 0: invalid start byte)\n")
    assert not list(table.parent.glob("*.svg"))


def test_cli_docstring_lists_the_parsers_subcommands():
    block = cli.__doc__.split("Subcommands:\n", 1)[1].split("\n\n", 1)[0]
    listed = [line.split()[0] for line in block.splitlines()]
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert listed == list(sub.choices)


def test_strategy_names_agree_across_readme_cli_and_default_suite():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("| strategy ", 1)[1].split("\n\n", 1)[0]
    in_readme = re.findall(r"^\s*\| `(\w+)`", table, flags=re.MULTILINE)
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        option = next((a for a in parser._actions if a.dest == "strategy"), None)
        if option is not None:
            assert list(option.choices) == list(STRATEGIES), name
    assert in_readme == list(STRATEGIES)
    assert [entry["strategy"] for entry in DEFAULT_SUITE] == list(STRATEGIES)


def test_readme_command_lines_parse():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    commands = [words[words.index("calibtrain") + 1:] for words in lines if "calibtrain" in words]
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README: calibtrain {shlex.join(argv)} does not parse")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(sub.choices)


def test_cli_bad_inputs(tmp_path, capsys):
    assert main(["report", str(tmp_path / "missing")]) == 1
    assert main(["plot", str(tmp_path)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"no reliability tables under {tmp_path / 'reliability'}")
    assert main(["train", "--set", "badformat"]) == 2
    assert main(["train", "--set", "epochz=3"]) == 2
    capsys.readouterr()
    # an empty suite, and a strategy listed twice, whose cells would share files
    for suite, problem in (("[]", "suite list must be nonempty"),
                           ('[{"strategy": "soft_ece"}, {"strategy": "soft_ece"}]',
                            "suite strategies must be distinct")):
        out = tmp_path / "run"
        assert main(["suite", "--set", f"suite={suite}", "--set", "sizes=[80, 40, 40]",
                     "--epochs", "1", "--seeds", "0", "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and problem in err[0]
        assert not out.exists()
    # --strategy leaves a loss that is not a JSON object to the config's error
    for loss in ("5", "[1,2]", "abc"):
        assert main(["train", "--set", f"loss={loss}", "--strategy", "mmce"]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: loss must be a JSON dict, got ")
    # the retired split export is an unknown subcommand
    with pytest.raises(SystemExit) as exit_info:
        main(["generate-data"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'generate-data'" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--epochs", "2"], ["--strategy", "mmce", "--set", "lr_vae=0.01"]],
                         ids=["no_flags", "epochs", "strategy_and_set"])
@pytest.mark.parametrize("content,problem", [
    (b"[1,2]", "a config must be a JSON object, got list"),
    (b'"x"', "a config must be a JSON object, got str"),
    (b"3", "a config must be a JSON object, got int"),
    (b"{bad", "not JSON (Expecting property name"),
    (b"\xff{}", "not JSON ('utf-8' codec can't decode byte 0xff"),
], ids=["list", "string", "number", "not_json", "not_utf8"])
@pytest.mark.parametrize("command", ["train", "suite"])
def test_cli_config_file_not_an_object(tmp_path, capsys, command, content, problem, flags):
    if command == "suite" and flags[:1] == ["--strategy"]:
        # suite takes no --strategy: its strategies are the config's suite list
        flags = ["--set", 'suite=[{"strategy": "mmce"}]', *flags[2:]]
    config = tmp_path / "config.json"
    config.write_bytes(content)
    out = tmp_path / "run"
    assert main([command, "--config", str(config), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {config}: {problem}")
    assert not out.exists()


@pytest.mark.parametrize("argv,problem", [
    (["suite", "--seeds", "-1"], "seeds must be non-negative"),
    (["suite", "--seeds", "1,1"], "seeds must be distinct"),
    (["suite", "--data-seed", "-1"], "data_seed must be non-negative"),
    (["suite", "--seeds", "1,x"], "--seeds expects comma-separated integers"),
    (["train", "--seeds", "-1"], "seeds must be non-negative"),
    (["suite", "--seeds", "0", "--set", "hidden=0"], "hidden must be >= 1, got 0"),
    # the AvUC threshold is training state, not a loss or grid key
    (["train", "--set", 'loss={"strategy": "avuc", "avuc_threshold": 0.5}'], "avuc_threshold"),
    (["grid", "--strategy", "avuc", "--set", 'grid={"avuc_threshold": [0.2, 0.9]}'],
     "avuc_threshold"),
    # values of the wrong JSON type
    (["train", "--set", 'epochs="3"'], "epochs must be an integer, got '3'"),
    (["train", "--set", "epochs=true"], "epochs must be an integer, got True"),
    (["train", "--set", 'loss={"strategy": ["avuc"]}'], "must name a strategy as a string"),
    (["suite", "--set", "seeds=[0.5, 1.5]"], "seeds must be an integer, got 0.5"),
    (["suite", "--set", "sizes=[400.7, 200, 200]"], "sizes must be an integer, got 400.7"),
    (["train", "--set", 'loss={"strategy": "soft_ece", "n_bins": 15.5}'],
     "n_bins must be an integer, got 15.5"),
    # non-finite numbers
    (["train", "--set", "separation=NaN"], "separation must be a finite number, got nan"),
    (["train", "--set", "lr_vae=Infinity"], "lr_vae must be a finite number, got inf"),
    (["grid", "--strategy", "mmce", "--set", 'grid={"kernel_width": [0.4, NaN]}'],
     "kernel_width must be a finite number, got nan"),
    # data values the generator refuses
    (["train", "--set", "noise_rate=0.7"], "noise_rate must lie in [0, 0.5)"),
    (["grid", "--set", "noise_rate=0.7"], "noise_rate must lie in [0, 0.5)"),
    (["suite", "--seeds", "0", "--set", "noise_rate=0.7"], "noise_rate must lie in [0, 0.5)"),
    # an empty list, which the config's own seeds must not fill in
    (["suite", "--seeds", ""], "--seeds expects comma-separated integers, got ''"),
])
def test_cli_rejects_bad_seeds_before_training(tmp_path, capsys, argv, problem):
    out = tmp_path / "run"
    # one epoch keeps a wrongly accepted config short, unless epochs is the case
    epochs = [] if any(arg.startswith("epochs=") for arg in argv) else ["--epochs", "1"]
    assert main(argv + ["--out", str(out), *epochs]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and problem in err[0]
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "suite", "grid"])
def test_cli_rejects_zero_epochs_before_writing(tmp_path, capsys, command):
    out = tmp_path / "run"
    assert main([command, "--epochs", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: epochs must be >= 1, got 0"]
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_suite_prints_progress_per_cell(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "sizes": [80, 40, 40], "epochs": 1, "batch_size": 20, "seeds": [0, 1],
        "n_uncertainty": 3, "suite": [{"strategy": "baseline"}, EXPLODING],
    }))
    code = main(["suite", "--config", str(config), "--out", str(tmp_path / "run")])
    assert code == 1
    out, err = capsys.readouterr()
    progress = err.strip().splitlines()
    assert [line.rsplit(" ", 1)[0] for line in progress] == [
        "[1/4] baseline seed 0 ok", "[2/4] baseline seed 1 ok",
        "[3/4] mmce seed 0 FAILED", "[4/4] mmce seed 1 FAILED"]
    assert all(re.fullmatch(r"\d+\.\ds", line.rsplit(" ", 1)[1]) for line in progress)
    assert not any(line.startswith("[") for line in out.splitlines())


GOOD_TABLE = "bin,lower,upper,count,conf,acc\n0,0.0,0.5,2,0.4,0.5\n1,0.5,1.0,3,0.8,0.6667\n"


@pytest.mark.parametrize("bad_table,problem", [
    ("bin,lower,upper,count,conf,acc\n0,0.0,0.5,2,0.4,0.5,9\n", "line 2 has 7 columns"),
    ("bin,lower,upper,count,conf,acc\n", "no bins"),
    ("bin,lower,upper,count,conf,acc\n0,0.0,0.5,two,0.4,0.5\n", "line 2"),
    ("bin,lower,upper,count,acc,conf\n0,0.0,0.5,2,0.4,0.5\n", "header"),
])
def test_cli_plot_rejects_bad_tables(tmp_path, capsys, bad_table, problem):
    rel = tmp_path / "reliability"
    rel.mkdir()
    (rel / "baseline_equal_width.csv").write_text(GOOD_TABLE)
    bad = rel / "soft_ece_adaptive.csv"
    bad.write_text(bad_table)
    assert main(["plot", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err.strip().splitlines() == [err.strip()]
    assert err.startswith(f"error: {bad}: ") and problem in err
    assert not list(rel.glob("*.svg")) and out == ""
    bad.unlink()
    assert main(["plot", str(tmp_path)]) == 0
    assert (rel / "baseline_equal_width.svg").exists()
    capsys.readouterr()
    # a table whose name names no binning scheme is refused as well
    (rel / "baseline_equal_width.svg").unlink()
    misnamed = rel / "mytable.csv"
    misnamed.write_text(GOOD_TABLE)
    assert main(["plot", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert err.strip().splitlines() == [err.strip()]
    assert err.startswith(f"error: {misnamed}: ") and "neither" in err
    assert not list(rel.glob("*.svg")) and out == ""


def test_bench_tracer_hooks_cover_suite_and_restore(tmp_path, monkeypatch):
    """bench/spans.py times the layers by patching names where the harness
    looks them up; this keeps those names in use and checks the patches
    come off again."""
    from calibtrain import autodiff, model
    from calibtrain.harness import cli, suite, training

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import spans
    owners = (training, suite, cli, model.VaeClassifier, autodiff.Adam)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    tracer.install()
    tracer.round = 0
    try:
        cfg = tiny_config(epochs=1, seeds=[0],
                          suite=[{"strategy": "baseline"}, {"strategy": "confidence_weight"}])
        result = run_suite(cfg, tmp_path / "run")
    finally:
        tracer.restore()
    for owner, names in zip(owners, before):
        after = dict(vars(owner))
        assert after.keys() == names.keys()
        assert all(after[k] is v for k, v in names.items())

    assert result.ok
    seen = {span[spans.NAME] for span in tracer.spans}
    assert seen >= set(spans.TIMED) - {"harness.cli.report", "harness.cli.plot"}
    evaluated = sum(len(set(c.selected_epoch.values())) for c in result.cells)
    figures = tracer.metrics(1, ["baseline", "confidence_weight"], 0.0)
    assert figures["uncertainty.records"] == cfg.sizes[2] * evaluated * 2
