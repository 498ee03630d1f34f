"""Self-tests of the benchmark's correctness checks and span recorder.

    python3 -m pytest bench/test_checks.py

Each check must pass on the program's real outputs and fail on a copy
corrupted on purpose.
"""

import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
from calibtrain.data import FeatureScaler, features, generate_gaussian_mixture, labels  # noqa: E402
from calibtrain.harness import cli, training  # noqa: E402
from calibtrain.harness.config import DEFAULT_SUITE, ExperimentConfig  # noqa: E402
from calibtrain.losses import LossSpec  # noqa: E402
from calibtrain.metrics import ece, records_from_probs  # noqa: E402
from calibtrain.model import VaeClassifier  # noqa: E402
from calibtrain.uncertainty import epistemic_batch  # noqa: E402

SIZES = [600, 300, 300]
SEEDS = [0, 1]


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("suite") / "run"
    rc = cli.main(["suite", "--out", str(run), "--epochs", "3", "--seeds", "0,1",
                   "--set", f"sizes={SIZES}", "--set", "n_uncertainty=3"])
    assert rc == 0
    return run


@pytest.fixture
def run_copy(suite_run, tmp_path):
    return Path(shutil.copytree(suite_run, tmp_path / "run"))


def suite_problems(run):
    return checks.check_suite_reports(run, SIZES[2], SEEDS, "max-val-bacc")


def svgs(run):
    return {p.name: p.read_bytes() for p in (run / "reliability").glob("*.svg")}


def rewrite_csv(path, edit):
    rows = [line.split(",") for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


# ---------------------------------------------------------------------------
# suite reports
# ---------------------------------------------------------------------------

def test_suite_reports_pass(suite_run):
    assert suite_problems(suite_run) == []


def test_swapped_ece_and_mce_columns_fail(run_copy):
    path = run_copy / "metrics_softmax.csv"
    rows = checks.read_csv(path)
    assert any(float(r["ece_mean"]) < float(r["mce_mean"]) for r in rows)

    def swap(rows):
        header = rows[0]
        for a, b in (("ece_mean", "mce_mean"), ("ece_std", "mce_std")):
            i, j = header.index(a), header.index(b)
            for row in rows[1:]:
                row[i], row[j] = row[j], row[i]

    rewrite_csv(path, swap)
    problems = checks.check_metric_tables(run_copy)
    assert any("out of order" in p for p in problems)
    assert checks.check_softmax_means(run_copy, SEEDS)


@pytest.mark.parametrize("scheme", ["equal_width", "adaptive"])
def test_bin_count_off_by_one_fails(run_copy, scheme):
    path = run_copy / "reliability" / f"baseline_{scheme}.csv"

    def bump(rows):
        col = rows[0].index("count")
        row = next(r for r in rows[1:] if int(r[col]) > 0)
        row[col] = str(int(row[col]) + 1)

    rewrite_csv(path, bump)
    problems = checks.check_reliability_tables(run_copy, SIZES[2], SEEDS[0], "max-val-bacc")
    assert any(path.name in p and "sum to" in p for p in problems)


def test_equal_width_table_ece_must_match_test_ece(run_copy):
    path = run_copy / "selection_comparison.csv"

    def nudge(rows):
        col = rows[0].index("bacc_test_ece")
        rows[1][col] = repr(float(rows[1][col]) + 1e-6)

    rewrite_csv(path, nudge)
    problems = checks.check_reliability_tables(run_copy, SIZES[2], SEEDS[0], "max-val-bacc")
    assert any("table ECE" in p for p in problems)
    assert checks.check_softmax_means(run_copy, SEEDS)


def test_adaptive_confidences_must_not_decrease(run_copy):
    path = run_copy / "reliability" / "baseline_adaptive.csv"

    def reverse(rows):
        col = rows[0].index("conf")
        confs = [r[col] for r in rows[1:]][::-1]
        for row, conf in zip(rows[1:], confs):
            row[col] = conf

    rewrite_csv(path, reverse)
    problems = checks.check_reliability_tables(run_copy, SIZES[2], SEEDS[0], "max-val-bacc")
    assert any("decrease" in p for p in problems)


def test_mcnemar_counts_beyond_test_size_fail(run_copy):
    path = run_copy / "mcnemar_vs_baseline.csv"

    def inflate(rows):
        rows[1][rows[0].index("b")] = str(SIZES[2] + 1)

    rewrite_csv(path, inflate)
    assert checks.check_mcnemar(run_copy, SIZES[2])


def test_plot_rerenders_svgs_byte_for_byte(run_copy):
    before = svgs(run_copy)
    assert cli.main(["plot", str(run_copy)]) == 0
    assert checks.check_same_bytes(before, svgs(run_copy), "plot SVG") == []


def test_edited_svg_byte_fails(run_copy):
    path = sorted((run_copy / "reliability").glob("*.svg"))[0]
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))
    before = svgs(run_copy)
    assert cli.main(["plot", str(run_copy)]) == 0
    assert checks.check_same_bytes(before, svgs(run_copy), "plot SVG") == [
        f"plot SVG {path.name} changed"]


# ---------------------------------------------------------------------------
# training outputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def split():
    return generate_gaussian_mixture(sizes=(400, 200, 200), seed=3)


@pytest.mark.parametrize("entry", DEFAULT_SUITE, ids=lambda e: e["strategy"])
def test_gradient_check_catches_changed_component(split, entry):
    spec = LossSpec.from_dict(dict(entry))
    x = FeatureScaler().fit_transform(features(split.train))[:25]
    g = labels(split.train)[:25]
    model = VaeClassifier(d=8, seed=5)
    model.params["clf.w2"].value = np.random.default_rng(6).standard_normal((32, 2))
    conf = None
    if spec.strategy == "confidence_weight":
        conf = epistemic_batch(model, x, n=5, rng=np.random.default_rng(7))
    grads, loss_at = checks.gradient_probe(model, x, g, spec, (1, 8), conf)
    coords = checks.sample_coords({k: v.shape for k, v in grads.items()},
                                  np.random.default_rng(9), 3)
    assert checks.check_gradient(loss_at, grads, coords) == []

    name, idx = coords[-1]
    grads[name][idx] += 1e-3 * max(1.0, abs(grads[name][idx]))
    problems = checks.check_gradient(loss_at, grads, coords)
    assert len(problems) == 1 and problems[0].startswith(f"gradient {name}")


def test_ece15_matches_binning_convention():
    rng = np.random.default_rng(0)
    p = np.concatenate([rng.random(500), np.arange(16) / 15])   # include bin edges
    probs = np.stack([1 - p, p], axis=1)
    g = rng.integers(0, 2, len(p))
    assert math.isclose(checks.ece15(probs, g), ece(records_from_probs(probs, g)),
                        rel_tol=0, abs_tol=1e-12)


def test_val_ece_check_fails_on_other_value():
    probs = np.array([[0.2, 0.8], [0.6, 0.4], [0.1, 0.9]])
    g = np.array([1, 1, 1])
    own = checks.ece15(probs, g)
    assert checks.check_val_ece(probs, g, own) == []
    assert checks.check_val_ece(probs, g, own + 1e-9)


def test_accuracy_check_bounds():
    g = np.array([0, 1] * 500)

    def predicting(n_right):
        pred = np.where(np.arange(1000) < n_right, g, 1 - g)
        return np.stack([1.0 - pred, pred], axis=1).astype(np.float64)

    posterior = np.full(1000, 0.8)
    assert checks.check_accuracy(predicting(750), g, posterior) == []
    assert checks.check_accuracy(predicting(540), g, posterior)            # near chance
    assert checks.check_accuracy(predicting(750), g, np.full(1000, 0.6))   # beats Bayes


def test_steps_check_off_by_one():
    assert checks.check_steps(480, 3, 4000, 25) == []
    assert checks.check_steps(479, 3, 4000, 25)


# ---------------------------------------------------------------------------
# span recorder
# ---------------------------------------------------------------------------

def test_tracer_counts_steps_and_restores(split):
    config = ExperimentConfig(sizes=(400, 200, 200), epochs=2, batch_size=30)
    original = training.train, training.backward, VaeClassifier.forward
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.round = 0
        training.train(config, split, 0, LossSpec(strategy="baseline"))
    finally:
        tracer.restore()
    assert (training.train, training.backward, VaeClassifier.forward) == original
    [(strategy, steps)] = tracer.steps_per_train()
    assert strategy == "baseline" and steps == 2 * math.ceil(400 / 30)
    values = tracer.metrics(1, ["baseline"], 1.0)
    assert values["harness.training.steps.baseline"] == steps
    assert values["autodiff.nodes_per_step"] > 0
    assert 0 < values["harness.training.train_self_s"] < values["harness.training.train_s"]
