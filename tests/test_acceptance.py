"""Acceptance gate: nine end-to-end criteria, one summary line each.

Criteria 6 and 9 share a module-scoped full default-preset suite run, and
criterion 9 runs it once more, so this file takes about two minutes on 2
CPUs; everything else is seconds.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import conftest
from calibtrain.autodiff import backward
from calibtrain.data import FeatureScaler, features, generate_gaussian_mixture
from calibtrain.harness import (
    EpochEntry,
    EpochHistory,
    ExperimentConfig,
    train,
)
from calibtrain.harness.suite import run_suite
from calibtrain.losses import (
    LossSpec,
    confidence_weights,
    make_batch_view,
    paired_confidence_loss,
    soft_ece_loss,
    total_loss,
)
from calibtrain.metrics import (
    aece,
    brier,
    classification_metrics,
    ece,
    mce,
    mcnemar,
    oe,
    records_from_probs,
)
from calibtrain.model import VaeClassifier
from calibtrain.uncertainty import uncertainty_records
from oracles import (
    FD_STEP,
    FixedDraw,
    brute_brier,
    brute_classification,
    brute_ece,
    brute_mce,
    brute_mcnemar,
    brute_oe,
    rel_error,
)


@contextmanager
def criterion(num: int, name: str):
    info = {"detail": ""}
    try:
        yield info
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"criterion {num} ({name}): FAIL")
        raise
    line = f"criterion {num} ({name}): PASS"
    if info["detail"]:
        line += f" - {info['detail']}"
    conftest.ACCEPTANCE_LINES.append(line)


# ---------------------------------------------------------------------------
# 1. metric oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_1_metric_oracle_equivalence():
    with criterion(1, "metric oracle equivalence") as info:
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        worst = 0.0

        def track(got, want):
            nonlocal worst
            if got is None or want is None:
                assert got is None and want is None
                return
            worst = max(worst, abs(got - want))

        for _ in range(1000):
            n = int(rng.integers(1, 501))
            p1 = rng.uniform(0.001, 0.999, n)
            gs = rng.integers(0, 2, n)
            records = records_from_probs(np.stack([1.0 - p1, p1], axis=1), gs)
            m = int(rng.integers(1, 21))
            rs = records.conf.tolist()
            corrects = records.correct.tolist()

            track(ece(records, m), brute_ece(rs, corrects, m))
            track(aece(records, m), brute_ece(rs, corrects, m, adaptive=True))
            track(mce(records, m), brute_mce(rs, corrects, m))
            track(oe(records, m), brute_oe(rs, corrects, m))
            track(brier(records),
                  brute_brier(records.probs.tolist(), records.g.tolist()))
            cls = classification_metrics(records)
            sen, spe, bacc = brute_classification(records.predicted.tolist(),
                                                  records.g.tolist())
            track(cls["sensitivity"], sen)
            track(cls["specificity"], spe)
            track(cls["bacc"], bacc)

            # paired comparison against a second classifier, same labels
            q1 = rng.uniform(0.001, 0.999, n)
            records_b = records_from_probs(np.stack([1.0 - q1, q1], axis=1), gs)
            got = mcnemar(records, records_b)
            stat, p = brute_mcnemar(corrects, records_b.correct.tolist())
            track(got["statistic"], stat)
            track(got["p_value"], p)

        elapsed = time.perf_counter() - t0
        assert worst < 1e-10
        assert elapsed < 30.0
        info["detail"] = f"1000 record sets, max |delta| {worst:.2e}, {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. gradient integrity of the composite losses
# ---------------------------------------------------------------------------

FD_SPECS = [
    LossSpec(strategy="baseline", lambda_kl=0.01, lambda_c=2.0),
    LossSpec(strategy="paired_confidence", lambda_kl=0.01, lambda_c=2.0,
             lambda_n=0.7, margin=0.6),
    LossSpec(strategy="probability", lambda_kl=0.01, lambda_c=2.0, lambda_n=0.7),
    LossSpec(strategy="avuc", lambda_kl=0.01, lambda_c=2.0, lambda_n=0.7),
    LossSpec(strategy="soft_ece", lambda_kl=0.01, lambda_c=2.0, lambda_n=0.7,
             temperature=0.1),
    LossSpec(strategy="mmce", lambda_kl=0.01, lambda_c=2.0, lambda_n=0.7),
]


def _composite(model, x, g, spec, latent):
    out = model.forward(x, latent)
    loss, _ = total_loss(x, out, g, spec)
    return loss


def test_criterion_2_gradient_integrity():
    with criterion(2, "gradient integrity") as info:
        t0 = time.perf_counter()
        worst = 0.0
        g = np.array([0, 1, 0, 1, 1, 0])
        for si, spec in enumerate(FD_SPECS):
            for draw in range(100):
                rng = np.random.default_rng((202, si, draw))
                model = VaeClassifier(d=4, hidden=6, latent=3, seed=draw)
                # move off the symmetric init so every head has signal
                for _, node in model.params.items():
                    node.value += rng.normal(0.0, 0.2, node.value.shape)
                x = rng.uniform(0.05, 0.95, (6, 4))
                # one latent draw for the gradient and both shifted losses
                latent = FixedDraw(np.random.default_rng((202, si, draw, 1))
                                   .standard_normal((6, 3)))

                loss = _composite(model, x, g, spec, latent)
                model.params.zero_grad()
                backward(loss)
                names = model.params.names()
                grads = {nm: np.array(model.params[nm].grad, copy=True)
                         for nm in names}

                for _ in range(3):
                    nm = names[int(rng.integers(len(names)))]
                    arr = model.params[nm].value
                    idx = int(rng.integers(arr.size))
                    orig = arr.flat[idx]
                    arr.flat[idx] = orig + FD_STEP
                    up = float(_composite(model, x, g, spec, latent).value)
                    arr.flat[idx] = orig - FD_STEP
                    dn = float(_composite(model, x, g, spec, latent).value)
                    arr.flat[idx] = orig
                    fd = (up - dn) / (2.0 * FD_STEP)
                    worst = max(worst, rel_error(fd, grads[nm].flat[idx]))
        elapsed = time.perf_counter() - t0
        assert worst < 1e-4
        assert elapsed < 120.0
        info["detail"] = (f"6 losses x 100 draws, max rel err {worst:.2e}, "
                          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. calibration consistency on sampled and constructed sets
# ---------------------------------------------------------------------------

def test_criterion_3_calibration_consistency():
    with criterion(3, "calibration consistency") as info:
        rng = np.random.default_rng(303)
        n = 100_000
        conf = rng.uniform(0.5, 1.0, n)
        hit = rng.random(n) < conf       # P(correct | r) = r by construction
        gs = np.where(hit, 1, 0)
        records = records_from_probs(np.stack([1.0 - conf, conf], axis=1), gs)
        sampled_ece = ece(records, 15)
        sampled_oe = oe(records, 15)
        assert sampled_ece < 0.01
        assert sampled_oe < 0.005

        # each populated bin exactly 0.2 overconfident: 1500 records at the
        # bin center, accuracy center - 0.2
        probs, gs = [], []
        centers = [(m + 0.5) / 15.0 for m in range(8, 15)]
        oe_true = 0.0
        for m, c in zip(range(8, 15), centers):
            k = 100 * m - 250            # (c - 0.2) * 1500, an integer
            probs.extend([[1.0 - c, c]] * 1500)
            gs.extend([1] * k + [0] * (1500 - k))
            oe_true += (1500.0 / 10500.0) * c * 0.2
        over = records_from_probs(np.array(probs), np.array(gs))
        over_ece = ece(over, 15)
        over_oe = oe(over, 15)
        assert abs(over_ece - 0.2) <= 0.01
        assert abs(over_oe - oe_true) <= 1e-10
        info["detail"] = (f"sampled ECE {sampled_ece:.4f} OE {sampled_oe:.4f}; "
                          f"constructed ECE {over_ece:.4f} "
                          f"OE |delta| {abs(over_oe - oe_true):.1e}")


# ---------------------------------------------------------------------------
# 4. hand-value fixtures
# ---------------------------------------------------------------------------

def _two_class_view(prob_pos, labels, epi=None):
    p = np.asarray(prob_pos, dtype=np.float64)
    probs = np.stack([1.0 - p, p], axis=1)
    return make_batch_view(probs, np.asarray(labels), epistemic_conf=epi)


def test_criterion_4_hand_value_fixtures():
    with criterion(4, "hand-value fixtures") as info:
        # pair term: false positive at 0.9 vs true positive at 0.8, margin 0.6
        pair = paired_confidence_loss(_two_class_view([0.9, 0.8], [0, 1]), 0.6)
        assert abs(pair.value - 0.7) <= 1e-12

        # sample weight: g=0, C=0.7, floor 0.5
        bw = _two_class_view([0.2], [0], epi=np.array([0.7]))
        w = confidence_weights(bw, 0.5)
        assert abs(w[0] - 0.85) <= 1e-12

        # single-bin ECE: r = {0.8, 0.9, 0.7, 0.6}, two correct
        recs = records_from_probs(
            np.array([[0.2, 0.8], [0.1, 0.9], [0.3, 0.7], [0.4, 0.6]]),
            np.array([1, 1, 0, 0]))
        assert abs(ece(recs, 1) - 0.25) <= 1e-12

        # single-bin OE: conf 0.9, acc 0.5
        recs = records_from_probs(np.array([[0.1, 0.9], [0.1, 0.9]]),
                                  np.array([1, 0]))
        assert abs(oe(recs, 1) - 0.36) <= 1e-12
        info["detail"] = "pair 0.7, weight 0.85, ECE 0.25, OE 0.36"


# ---------------------------------------------------------------------------
# 5. degeneracy equivalences
# ---------------------------------------------------------------------------

def test_criterion_5_degeneracy_equivalences():
    with criterion(5, "degeneracy equivalences") as info:
        # (a) weight floor 1 reproduces the baseline trajectory
        cfg = ExperimentConfig(sizes=(200, 100, 100), epochs=3, batch_size=25,
                               seeds=[0], n_uncertainty=5)
        split = generate_gaussian_mixture(sizes=cfg.sizes, d=cfg.d,
                                          separation=cfg.separation,
                                          noise_rate=cfg.noise_rate,
                                          positive_fraction=cfg.positive_fraction,
                                          seed=cfg.data_seed)
        base = train(cfg, split, seed=0)
        unit = train(cfg, split, seed=0, spec=LossSpec.from_dict(
            {"strategy": "confidence_weight", "weight_floor": 1.0}))
        assert len(base.entries) == len(unit.entries) == 3
        for eb, eu in zip(base.entries, unit.entries):
            assert abs(eb.train_loss - eu.train_loss) <= 1e-12
            assert abs(eb.val_bacc - eu.val_bacc) <= 1e-12
            assert abs(eb.val_ece - eu.val_ece) <= 1e-12

        # (b) a zero penalty coefficient gives the unregularized loss exactly
        rng = np.random.default_rng(505)
        model = VaeClassifier(d=4, hidden=6, latent=3, seed=9)
        for _, node in model.params.items():
            node.value += rng.normal(0.0, 0.2, node.value.shape)
        x = rng.uniform(0.05, 0.95, (10, 4))
        g = np.array([0, 1] * 5)
        latent = FixedDraw(np.random.default_rng(506).standard_normal((10, 3)))
        out = model.forward(x, latent)
        base_loss, _ = total_loss(x, out, g, LossSpec(
            strategy="baseline", lambda_kl=0.01, lambda_c=2.0))
        for strategy in ("paired_confidence", "probability", "avuc",
                         "soft_ece", "mmce"):
            out_s = model.forward(x, latent)
            loss, _ = total_loss(x, out_s, g, LossSpec(
                strategy=strategy, lambda_kl=0.01, lambda_c=2.0, lambda_n=0.0))
            assert loss.value == base_loss.value, strategy

        # (c) near-hard temperature at order 1 matches the hard ECE
        p1 = rng.uniform(0.02, 0.98, 200)
        conf = np.maximum(p1, 1.0 - p1)
        edges = np.arange(16) / 15.0
        safe = np.abs(conf[:, None] - edges[None, :]).min(axis=1) > 1e-3
        p1, gs = p1[safe][:60], rng.integers(0, 2, safe.sum())[:60]
        view = _two_class_view(p1, gs)
        soft = soft_ece_loss(view, n_bins=15, temperature=1e-6, norm_order=1.0)
        hard = ece(records_from_probs(np.stack([1.0 - p1, p1], axis=1), gs), 15)
        assert abs(soft.value - hard) < 1e-6
        info["detail"] = (f"trajectory equal over 3 epochs; zero-penalty exact; "
                          f"soft-hard |delta| {abs(soft.value - hard):.1e}")


# ---------------------------------------------------------------------------
# 6 + 9. full default-preset suite: headline direction and reproducibility
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def default_suite(tmp_path_factory):
    cfg = ExperimentConfig()
    out = tmp_path_factory.mktemp("acc") / "run"
    t0 = time.perf_counter()
    result = run_suite(cfg, out)
    return cfg, out, result, time.perf_counter() - t0


def _strategy_means(cells, criterion_name):
    table = {}
    for cell in cells:
        m = cell.metrics[criterion_name]["softmax"]
        table.setdefault(cell.strategy, []).append((m["ece"], m["bacc"]))
    return {s: (float(np.mean([e for e, _ in v])), float(np.mean([b for _, b in v])))
            for s, v in table.items()}


def test_criterion_6_directional_reproduction(default_suite):
    with criterion(6, "directional ECE reduction") as info:
        cfg, _, result, elapsed = default_suite
        assert result.ok, [c.failure for c in result.cells if c.failed]
        assert cfg.noise_rate == 0.15
        assert len(cfg.seeds) == 3
        means = _strategy_means(result.cells, cfg.criterion)
        base_ece, base_bacc = means["baseline"]
        winners = []
        for strategy, (s_ece, s_bacc) in means.items():
            if strategy == "baseline":
                continue
            if s_ece <= 0.9 * base_ece and abs(s_bacc - base_bacc) <= 0.02:
                winners.append((strategy, (base_ece - s_ece) / base_ece))
        assert winners, means
        assert elapsed < 600.0
        best = max(winners, key=lambda t: t[1])
        info["detail"] = (f"{best[0]} cuts mean test ECE by {best[1]:.0%} "
                          f"(baseline {base_ece:.4f}) with BACC within 2pp; "
                          f"suite {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. model-selection study
# ---------------------------------------------------------------------------

def test_criterion_7_model_selection_study(tmp_path):
    with criterion(7, "model-selection study") as info:
        # crossed rankings: epoch 0 wins BACC, epoch 1 wins ECE
        h = EpochHistory()
        h.record(EpochEntry(0, 1.0, 0.90, 0.30), lambda: {"tag": np.array([0.0])})
        h.record(EpochEntry(1, 0.9, 0.70, 0.05), lambda: {"tag": np.array([1.0])})
        by_bacc, by_ece = h.best["max-val-bacc"], h.best["min-val-ece"]
        assert by_bacc["epoch"] == 0 and by_ece["epoch"] == 1
        assert by_bacc["params"]["tag"][0] != by_ece["params"]["tag"][0]

        # the suite reports every strategy under both criteria
        cfg = ExperimentConfig(
            sizes=(80, 40, 40), epochs=3, batch_size=20, seeds=[0],
            n_uncertainty=5,
            suite=[{"strategy": "baseline"},
                   {"strategy": "soft_ece", "lambda_n": 1.0, "temperature": 0.1}])
        out = tmp_path / "run"
        assert run_suite(cfg, out).ok
        lines = (out / "metrics_softmax.csv").read_text().splitlines()
        pairs = {tuple(line.split(",")[:2]) for line in lines[1:]}
        assert pairs == {(s, c) for s in ("baseline", "soft_ece")
                         for c in ("max-val-bacc", "min-val-ece")}
        sel = (out / "selection_comparison.csv").read_text().splitlines()
        header = sel[0].split(",")
        for col in ("bacc_epoch", "bacc_test_bacc", "bacc_test_ece",
                    "ece_epoch", "ece_test_bacc", "ece_test_ece"):
            assert col in header
        assert all(cell != "" for row in sel[1:] for cell in row.split(","))
        info["detail"] = "crossed history selects epochs 0/1; both criteria reported"


# ---------------------------------------------------------------------------
# 8. uncertainty estimators
# ---------------------------------------------------------------------------

def test_criterion_8_uncertainty_estimators():
    with criterion(8, "uncertainty estimators") as info:
        cfg = ExperimentConfig(sizes=(600, 200, 200), epochs=12, batch_size=25,
                               seeds=[0])
        split = generate_gaussian_mixture(sizes=cfg.sizes, d=cfg.d,
                                          separation=cfg.separation,
                                          noise_rate=cfg.noise_rate,
                                          positive_fraction=cfg.positive_fraction,
                                          seed=cfg.data_seed)
        history = train(cfg, split, seed=0)
        model = VaeClassifier(d=cfg.d, hidden=cfg.hidden, latent=cfg.latent, seed=0)
        model.params.load_values(history.best["max-val-bacc"]["params"])
        scaler = FeatureScaler().fit(features(split.train))

        def share(i, n, stream):
            sample = split.test.take(slice(i, i + 1))
            recs = uncertainty_records(model, sample, "epistemic", scaler=scaler, n=n,
                                       base_seed=(stream, i))
            return recs.probs[0, 1]

        deltas = [abs(share(i, 20, 71) - share(i, 200, 72)) for i in range(100)]
        mean_delta = float(np.mean(deltas))
        assert mean_delta < 0.1

        recs = uncertainty_records(model, split.test.take(slice(0, 100)), "aleatoric",
                                   scaler=scaler, n=10, sigma=0.0, base_seed=(73,))
        votes = recs.probs[:, 1].tolist()
        assert all(v in (0.0, 1.0) for v in votes)
        info["detail"] = (f"20 vs 200 draws mean |delta c| {mean_delta:.3f}; "
                          f"sigma=0 votes unanimous on {len(votes)} samples")


def test_criterion_9_reproducibility(default_suite, tmp_path):
    with criterion(9, "byte-identical reruns") as info:
        # the rerun goes to another directory: no report, the manifest
        # included, may depend on where a run is written
        cfg, first, _, _ = default_suite
        second = tmp_path / "rerun"
        assert run_suite(cfg, second).ok
        csvs = sorted(str(p.relative_to(first)) for p in first.rglob("*.csv"))
        assert csvs == sorted(str(p.relative_to(second)) for p in second.rglob("*.csv"))
        for rel in csvs:
            a = (first / rel).read_bytes()
            b = (second / rel).read_bytes()
            assert a == b, rel
        same_manifest = ((first / "manifest.json").read_bytes()
                         == (second / "manifest.json").read_bytes())
        assert same_manifest
        info["detail"] = f"{len(csvs)} CSV reports byte-identical across reruns"
