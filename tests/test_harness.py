"""Harness tests: config, training loop, selection, grid search, suite, CLI."""

import json
import multiprocessing
import os
import re
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
    select_model,
    train,
)
from calibtrain.harness import pool, suite
from calibtrain.harness.cli import main
from calibtrain.harness.grid import grid_search
from calibtrain.harness.suite import run_suite
from calibtrain.losses import LossSpec
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


def test_config_json_round_trip(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "config.json"
    cfg.to_json(path)
    assert ExperimentConfig.from_json(path) == cfg


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
])
def test_config_rejects_bad_values(bad):
    kw = dict(TINY)
    kw.update(bad)
    with pytest.raises(ValueError):
        ExperimentConfig(**kw)


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"epochz": 3})


def test_out_dir_env_root(monkeypatch):
    cfg = tiny_config(out_dir="runs/exp1")
    monkeypatch.setenv("CALIBTRAIN_OUT", "/data/out")
    assert str(cfg.resolve_out_dir()) == "/data/out/runs/exp1"
    assert str(cfg.resolve_out_dir("/abs/path")) == "/abs/path"
    monkeypatch.delenv("CALIBTRAIN_OUT")
    assert str(cfg.resolve_out_dir()) == "runs/exp1"


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_train_two_runs_identical():
    cfg = tiny_config()
    split = tiny_split(cfg)
    h1 = train(cfg, split, seed=0)
    h2 = train(cfg, split, seed=0)
    assert [e.__dict__ for e in h1.entries] == [e.__dict__ for e in h2.entries]


def test_train_zero_epochs_empty_history():
    cfg = tiny_config(epochs=0)
    history = train(cfg, tiny_split(cfg), seed=0)
    assert history.entries == []
    with pytest.raises(ValueError, match="empty history"):
        select_model(history, "max-val-bacc")


def test_conf_weight_one_matches_baseline_history():
    # floor 1 forces every sample weight to exactly 1, so the trajectory
    # must be the baseline one bit for bit
    cfg = tiny_config()
    split = tiny_split(cfg)
    base = train(cfg, split, seed=0)
    spec = LossSpec.from_dict({"strategy": "confidence_weight", "weight_floor": 1.0})
    weighted = train(cfg, split, seed=0, spec=spec)
    assert [e.__dict__ for e in weighted.entries] == [e.__dict__ for e in base.entries]


def test_train_records_best_per_criterion():
    cfg = tiny_config(epochs=3)
    history = train(cfg, tiny_split(cfg), seed=0)
    assert len(history.entries) == 3
    for criterion in ("max-val-bacc", "min-val-ece"):
        entry, params = select_model(history, criterion)
        assert params is not None
        stored = history.best[criterion]
        assert stored["epoch"] == entry.epoch


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_abort_keeps_partial_history():
    cfg = tiny_config()
    history = train(cfg, tiny_split(cfg), seed=0,
                    spec=LossSpec.from_dict(dict(EXPLODING)))
    assert history.failed
    assert "non-finite" in history.failure
    assert isinstance(history.entries, list)


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
    by_bacc, params_bacc = select_model(h, "max-val-bacc")
    by_ece, params_ece = select_model(h, "min-val-ece")
    assert by_bacc.epoch == 0
    assert by_ece.epoch == 1
    assert params_bacc["w"][0] != params_ece["w"][0]


def test_selection_ties_go_to_earliest_epoch():
    h = EpochHistory()
    for epoch in range(3):
        h.record(EpochEntry(epoch, 1.0, 0.8, 0.1), lambda: {})
    for criterion in ("max-val-bacc", "min-val-ece"):
        entry, params = select_model(h, criterion)
        assert entry.epoch == 0
        assert params is not None


def test_select_model_rejects_unknown_criterion():
    with pytest.raises(ValueError, match="criterion"):
        select_model(crossed_history(), "max-test-acc")


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
    cfg = tiny_config(seeds=[0, 1], suite=[dict(s) for s in SMALL_SUITE],
                      out_dir=str(tmp_path / "run"))
    result = run_suite(cfg)
    assert result.ok
    assert len(result.cells) == 4

    out = result.out_dir
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
    out = str(tmp_path / "run")
    run_suite(tiny_config(suite=[{"strategy": "baseline"}, {"strategy": "avuc"}], out_dir=out))
    result = run_suite(tiny_config(suite=[{"strategy": "baseline"}], out_dir=out))
    assert (result.out_dir / "history" / "avuc_seed0.csv").exists()   # left by the first run
    reports = json.loads((result.out_dir / "manifest.json").read_text())["reports"]
    assert reports == sorted(reports)
    assert not [rel for rel in reports if "avuc" in rel or rel == "mcnemar_vs_baseline.csv"]
    assert "history/baseline_seed0.csv" in reports


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_suite_records_failure_without_aborting(tmp_path):
    cfg = tiny_config(suite=[{"strategy": "baseline"}, dict(EXPLODING)],
                      out_dir=str(tmp_path / "run"))
    result = run_suite(cfg)
    assert not multiprocessing.active_children()
    assert not result.ok
    by_strategy = {c.strategy: c for c in result.cells}
    assert not by_strategy["baseline"].failed
    assert by_strategy["mmce"].failed
    assert "non-finite" in by_strategy["mmce"].failure
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    flags = {c["strategy"]: c["failed"] for c in manifest["cells"]}
    assert flags == {"baseline": False, "mmce": True}


def test_suite_evaluates_each_selected_epoch_once(tmp_path, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[2])
        return uncertainty_records(*args, **kwargs)

    monkeypatch.setattr("calibtrain.harness.suite.uncertainty_records", counting)
    # at 3 epochs, mmce seed 2 selects different epochs under the two
    # criteria, and the other cells select one epoch under both
    cfg = tiny_config(epochs=3, seeds=[0, 2],
                      suite=[{"strategy": "baseline"}, {"strategy": "mmce"}],
                      out_dir=str(tmp_path / "run"))
    result = run_suite(cfg)
    assert result.ok
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    distinct = [len(set(c["selected_epoch"].values())) for c in manifest["cells"]]
    assert sorted(set(distinct)) == [1, 2]
    assert len(calls) == 2 * sum(distinct)
    assert calls.count("epistemic") == calls.count("aleatoric")

    for cell in result.cells:
        bacc, ece_ = (cell.selected_epoch[c] for c in ("max-val-bacc", "min-val-ece"))
        if bacc != ece_:
            continue
        assert cell.metrics["max-val-bacc"] == cell.metrics["min-val-ece"]
        a, b = cell.test_records["max-val-bacc"], cell.test_records["min-val-ece"]
        for field in ("conf", "predicted", "g", "correct", "probs"):
            assert np.array_equal(getattr(a, field), getattr(b, field))


def test_suite_rerun_byte_identical(tmp_path, monkeypatch):
    cfg = tiny_config(seeds=[0, 1], suite=[dict(s) for s in SMALL_SUITE],
                      out_dir="run")
    # the first run in this process, the second on every CPU
    with monkeypatch.context() as m:
        m.setattr(pool, "available_cpus", lambda: 1)
        a = run_suite(cfg, out_override=str(tmp_path / "a"))
    b = run_suite(cfg, out_override=str(tmp_path / "b"))
    assert not multiprocessing.active_children()
    names = sorted(str(p.relative_to(a.out_dir))
                   for p in a.out_dir.rglob("*") if p.is_file())
    assert names == sorted(str(p.relative_to(b.out_dir))
                           for p in b.out_dir.rglob("*") if p.is_file())
    for name in names:
        assert (a.out_dir / name).read_bytes() == (b.out_dir / name).read_bytes(), name


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
    cfg = tiny_config(epochs=1, seeds=[0, 1], suite=[dict(s) for s in SMALL_SUITE],
                      out_dir=str(tmp_path / "run"))
    result = run_suite(cfg)
    assert not multiprocessing.active_children()
    assert not result.ok
    failed = {(c.strategy, c.seed): c.failure for c in result.cells if c.failed}
    assert {("soft_ece", 0), ("soft_ece", 1)} <= failed.keys()
    assert all(f.startswith("BrokenProcessPool: ") for f in failed.values())
    manifest = json.loads((result.out_dir / "manifest.json").read_text())
    assert [c["failed"] for c in manifest["cells"]] == [c.failed for c in result.cells]
    assert (result.out_dir / "metrics_softmax.csv").exists()


def test_suite_failed_report_write_leaves_no_manifest(tmp_path, monkeypatch):
    cfg = tiny_config(epochs=1, suite=[{"strategy": "baseline"}],
                      out_dir=str(tmp_path / "run"))
    out = run_suite(cfg).out_dir
    assert (out / "manifest.json").exists()
    render = suite.write_reliability_svg

    def failing(table, path, title):
        if path.name == "baseline_adaptive.svg":   # the last report written
            raise OSError("disk full")
        render(table, path, title)

    monkeypatch.setattr(suite, "write_reliability_svg", failing)
    with pytest.raises(OSError, match="disk full"):
        run_suite(cfg)
    # the earlier run's manifest no longer vouches for the directory
    assert [p.name for p in out.iterdir() if "manifest" in p.name] == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_generate_data(tmp_path):
    out = tmp_path / "data"
    code = main(["generate-data", "--out", str(out),
                 "--set", "sizes=[60,30,30]"])
    assert code == 0
    for name in ("train.csv", "validation.csv", "test.csv", "manifest.json"):
        assert (out / name).exists()


def test_cli_train_and_checkpoints(tmp_path, capsys):
    out = tmp_path / "train"
    code = main(["train", "--out", str(out), "--set", "sizes=[80,40,40]",
                 "--epochs", "2", "--batch-size", "20", "--seeds", "0",
                 "--strategy", "probability"])
    assert code == 0
    history = (out / "history.csv").read_text().splitlines()
    assert history[0] == "epoch,train_loss,val_bacc,val_ece"
    assert len(history) == 3
    for criterion in ("max-val-bacc", "min-val-ece"):
        assert (out / "checkpoints" / criterion / "params.bin").exists()
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


def test_cli_bad_inputs(tmp_path, capsys):
    assert main(["report", str(tmp_path / "missing")]) == 1
    assert main(["generate-data", "--set", "badformat"]) == 2
    assert main(["generate-data", "--set", "epochz=3"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,problem", [
    (["suite", "--seeds", "-1"], "seeds must be non-negative"),
    (["suite", "--seeds", "1,1"], "seeds must be distinct"),
    (["suite", "--data-seed", "-1"], "data_seed must be non-negative"),
    (["suite", "--seeds", "1,x"], "--seeds expects comma-separated integers"),
    (["train", "--seed", "-1"], "--seed must be non-negative"),
])
def test_cli_rejects_bad_seeds_before_training(tmp_path, capsys, argv, problem):
    out = tmp_path / "run"
    assert main(argv + ["--out", str(out), "--epochs", "1"]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and problem in err[0]
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
        cfg = tiny_config(epochs=1, seeds=[0], out_dir=str(tmp_path / "run"),
                          suite=[{"strategy": "baseline"}, {"strategy": "confidence_weight"}])
        result = run_suite(cfg)
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
