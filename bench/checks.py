"""Correctness checks the benchmark applies to calibtrain's outputs.

Each ``check_*`` function returns a list of problems, empty when the outputs
pass. The checks recompute what they can with code of their own (ECE by
vectorised binning, gradients by central differences) and otherwise test
properties the method must have. ``calibtrain`` must be importable.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from calibtrain.autodiff import backward
from calibtrain.losses import total_loss

TOL = 1e-12          # float noise allowed where two computations should agree
ACC_MARGIN = 0.05    # validation accuracy must beat the majority class by this
CRITERIA = ("max-val-bacc", "min-val-ece")


def ece15(probs: np.ndarray, labels: np.ndarray, m: int = 15) -> float:
    """Equal-width ECE: bin i holds confidences in (i/m, (i+1)/m], the first
    bin closed at 0."""
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    idx = np.clip(np.ceil(conf * m).astype(np.int64) - 1, 0, m - 1)
    counts = np.bincount(idx, minlength=m)
    conf_sum = np.bincount(idx, weights=conf, minlength=m)
    acc_sum = np.bincount(idx, weights=correct.astype(np.float64), minlength=m)
    filled = counts > 0
    gaps = np.abs(acc_sum[filled] - conf_sum[filled]) / counts[filled]
    return float(np.sum(counts[filled] / len(labels) * gaps))


# ---------------------------------------------------------------------------
# training outputs
# ---------------------------------------------------------------------------

def sample_coords(shapes: dict, rng: np.random.Generator, per_param: int) -> list:
    """``per_param`` distinct coordinates of every parameter, drawn from ``rng``."""
    coords = []
    for name, shape in shapes.items():
        size = int(np.prod(shape))
        for flat in rng.choice(size, size=min(per_param, size), replace=False):
            coords.append((name, np.unravel_index(int(flat), shape)))
    return coords


def gradient_probe(model, xb, gb, spec, latent_seed, conf=None):
    """Autodiff gradient of ``total_loss`` on one batch, and a function giving
    the loss with one coordinate shifted. The latent noise (drawn from
    ``latent_seed``) and the epistemic confidences stay fixed."""
    def loss_node():
        out = model.forward(xb, rng=np.random.default_rng(latent_seed), sample_latent=True)
        return total_loss(xb, out, gb, spec, epistemic_conf=conf)[0]

    model.params.zero_grad()
    backward(loss_node())
    grads = {name: node.grad.copy() for name, node in model.params.items()}

    def loss_at(name, idx, delta):
        value = model.params[name].value
        old = value[idx]
        value[idx] = old + delta
        try:
            return float(loss_node().value)
        finally:
            value[idx] = old

    return grads, loss_at


def check_gradient(loss_at, grads: dict, coords: list, steps=(1e-5, 1e-6, 1e-7, 1e-8),
                   rtol: float = 1e-5, atol: float = 1e-7) -> list[str]:
    """Compare each sampled gradient component with central differences.

    A component passes if it agrees at any step. The smaller steps are for
    coordinates whose larger step crosses a kink (relu, clamp, arg-max, the
    |r_i - r_j| of the MMCE kernel), where a step too large disagrees with
    the true derivative. At batch 250 two confidences can lie 3e-7 apart,
    so a step of 1e-6 already crosses. Rounding stays below the tolerance
    down to 1e-8.
    """
    problems = []
    for name, idx in coords:
        analytic = float(grads[name][idx])
        diffs = []
        for h in steps:
            fd = (loss_at(name, idx, h) - loss_at(name, idx, -h)) / (2 * h)
            diffs.append(fd)
            if abs(fd - analytic) <= atol + rtol * max(abs(fd), abs(analytic)):
                break
        else:
            problems.append(f"gradient {name}{list(map(int, idx))}: autodiff {analytic!r}, "
                            f"central differences {diffs}")
    return problems


def check_val_ece(probs, labels, recorded: float) -> list[str]:
    own = ece15(probs, labels)
    if abs(own - recorded) > TOL:
        return [f"validation ECE {own!r} recomputed, {recorded!r} in the history"]
    return []


def check_accuracy(probs, labels, posterior) -> list[str]:
    """Above the majority class by ACC_MARGIN, and not above the Bayes
    accuracy mean(max(p*, 1 - p*)) by more than three standard errors."""
    n = len(labels)
    acc = float(np.mean(probs.argmax(axis=1) == labels))
    chance = max(float(np.mean(labels)), 1.0 - float(np.mean(labels)))
    bayes = float(np.mean(np.maximum(posterior, 1.0 - posterior)))
    slack = 3.0 * math.sqrt(bayes * (1.0 - bayes) / n)
    problems = []
    if acc <= chance + ACC_MARGIN:
        problems.append(f"validation accuracy {acc:.4f} not above chance {chance:.4f} "
                        f"by {ACC_MARGIN}")
    if acc > bayes + slack:
        problems.append(f"validation accuracy {acc:.4f} above the Bayes accuracy "
                        f"{bayes:.4f} + {slack:.4f}")
    return problems


def check_steps(steps: int, epochs: int, n_train: int, batch_size: int) -> list[str]:
    expected = epochs * math.ceil(n_train / batch_size)
    if steps != expected:
        return [f"{steps} optimiser steps traced, expected {epochs} x "
                f"ceil({n_train} / {batch_size}) = {expected}"]
    return []


# ---------------------------------------------------------------------------
# suite reports
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _num(row: dict, key: str):
    cell = row.get(key)
    return None if cell in (None, "") else float(cell)


def _close(a, b) -> bool:
    return a is not None and b is not None and abs(a - b) <= TOL


def check_metric_tables(run: Path) -> list[str]:
    """OE <= ECE <= MCE, Brier in [0, 2] and bacc = (sen + spe) / 2 on every
    row of every metrics_*.csv."""
    problems = []
    for path in sorted(run.glob("metrics_*.csv")):
        for row in read_csv(path):
            where = f"{path.name} {row['strategy']} {row['criterion']}"
            oe, ece, mce = (_num(row, f"{k}_mean") for k in ("oe", "ece", "mce"))
            bs, sen, spe, bacc = (_num(row, f"{k}_mean") for k in ("bs", "sen", "spe", "bacc"))
            if None in (oe, ece, mce, bs, sen, spe, bacc):
                problems.append(f"{where}: missing values")
                continue
            if not (oe <= ece + TOL and ece <= mce + TOL):
                problems.append(f"{where}: OE {oe!r}, ECE {ece!r}, MCE {mce!r} out of order")
            if not 0.0 <= bs <= 2.0:
                problems.append(f"{where}: Brier score {bs!r} outside [0, 2]")
            if not _close(bacc, (sen + spe) / 2):
                problems.append(f"{where}: bacc {bacc!r} != (sen + spe) / 2")
    return problems


def check_softmax_means(run: Path, seeds: list[int]) -> list[str]:
    """metrics_softmax.csv means equal the means of selection_comparison.csv."""
    per_seed = {}
    for row in read_csv(run / "selection_comparison.csv"):
        per_seed.setdefault(row["strategy"], []).append(row)
    problems = []
    for row in read_csv(run / "metrics_softmax.csv"):
        rows = per_seed.get(row["strategy"], [])
        prefix = "bacc" if row["criterion"] == "max-val-bacc" else "ece"
        if len(rows) != len(seeds):
            problems.append(f"selection_comparison.csv has {len(rows)} rows for "
                            f"{row['strategy']}, expected {len(seeds)}")
            continue
        for col in ("bacc", "ece"):
            values = [_num(r, f"{prefix}_test_{col}") for r in rows]
            mean = _num(row, f"{col}_mean")
            if None in values or not _close(mean, float(np.mean(values))):
                problems.append(f"metrics_softmax.csv {row['strategy']} {row['criterion']}: "
                                f"{col}_mean {mean!r}, per-seed values {values}")
    return problems


def check_reliability_tables(run: Path, n_test: int, first_seed: int,
                             criterion: str) -> list[str]:
    """Bin counts sum to the test size; equal-width confidences lie within
    their edges and the table's ECE equals the first seed's test ECE;
    adaptive counts differ by at most one and confidences never decrease."""
    prefix = "bacc" if criterion == "max-val-bacc" else "ece"
    test_ece = {r["strategy"]: _num(r, f"{prefix}_test_ece")
                for r in read_csv(run / "selection_comparison.csv")
                if int(r["seed"]) == first_seed}
    problems = []
    tables = sorted((run / "reliability").glob("*.csv"))
    if not tables:
        problems.append("no reliability tables")
    for path in tables:
        rows = read_csv(path)
        counts = [int(r["count"]) for r in rows]
        filled = [r for r in rows if int(r["count"]) > 0]
        if sum(counts) != n_test:
            problems.append(f"{path.name}: bin counts sum to {sum(counts)}, test size {n_test}")
        if path.stem.endswith("_equal_width"):
            for r in filled:
                if not _num(r, "lower") - TOL <= _num(r, "conf") <= _num(r, "upper") + TOL:
                    problems.append(f"{path.name} bin {r['bin']}: confidence {r['conf']} "
                                    f"outside ({r['lower']}, {r['upper']}]")
            ece = sum(int(r["count"]) / sum(counts) * abs(_num(r, "acc") - _num(r, "conf"))
                      for r in filled) if sum(counts) else None
            strategy = path.stem[: -len("_equal_width")]
            if not _close(ece, test_ece.get(strategy)):
                problems.append(f"{path.name}: table ECE {ece!r}, seed {first_seed} test ECE "
                                f"{test_ece.get(strategy)!r}")
        else:
            if max(counts) - min(counts) > 1:
                problems.append(f"{path.name}: adaptive bin counts range "
                                f"{min(counts)}..{max(counts)}")
            confs = [_num(r, "conf") for r in filled]
            if any(b < a - TOL for a, b in zip(confs, confs[1:])):
                problems.append(f"{path.name}: adaptive bin confidences decrease")
    return problems


def check_mcnemar(run: Path, n_test: int) -> list[str]:
    problems = []
    for row in read_csv(run / "mcnemar_vs_baseline.csv"):
        b, c, p = _num(row, "b"), _num(row, "c"), _num(row, "p_value")
        where = f"mcnemar_vs_baseline.csv {row['strategy']} seed {row['seed']}"
        if None in (b, c, p):
            problems.append(f"{where}: missing values")
        elif not (b >= 0 and c >= 0 and b + c <= n_test and 0.0 <= p <= 1.0):
            problems.append(f"{where}: b {b:g}, c {c:g}, p {p!r} (test size {n_test})")
    return problems


def check_suite_reports(run: Path, n_test: int, seeds: list[int], criterion: str) -> list[str]:
    return (check_metric_tables(run) + check_softmax_means(run, seeds)
            + check_reliability_tables(run, n_test, seeds[0], criterion)
            + check_mcnemar(run, n_test))


def check_same_bytes(before: dict, after: dict, what: str) -> list[str]:
    """Every file of ``before`` is present in ``after`` with the same bytes."""
    problems = [f"{what} {name} changed" for name in sorted(before)
                if after.get(name) != before[name]]
    problems += [f"{what} {name} appeared" for name in sorted(set(after) - set(before))]
    if not before:
        problems.append(f"no {what} files")
    return problems
