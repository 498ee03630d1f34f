"""Evaluation-side calibration and classification metrics.

All functions here are non-differentiable reporting code. They take one
``Predictions`` value: arrays of the class probabilities, the predicted
label, the true label, the confidence and the correctness of every record.
Binning conventions, pinned once for every consumer (M = ``BINS`` by default):

* equal-width: bin m covers (m/M, (m+1)/M], first bin closed at 0, so the
  index of confidence r is ceil(r*M) - 1 clamped to [0, M-1];
* adaptive: records sorted by confidence (ties broken by original position)
  and split into M contiguous groups, the first n % M groups one larger.

Each bin is reduced with ``np.mean`` over its records, in record order for
equal-width bins and in sorted order for adaptive bins; Python loops run over
the M bins only. Empty bins contribute 0 to ECE/OE, are skipped by MCE, and
appear in reliability tables with count 0 and absent accuracy/confidence.

Brier score uses the two-class summed convention, so its range is [0, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BINS = 15   # the bin count of every reported metric and table, and of soft-ECE


@dataclass(frozen=True, eq=False)
class Predictions:
    """Per-record predictions as read-only arrays; build with ``of``."""

    probs: np.ndarray      # (n, 2): [P(g=0), P(g=1)]
    predicted: np.ndarray  # (n,) int64
    g: np.ndarray          # (n,) int64
    conf: np.ndarray       # (n,) confidence, max(probs)
    correct: np.ndarray    # (n,) bool, predicted == g

    @classmethod
    def of(cls, probs: np.ndarray, predicted: np.ndarray, g: np.ndarray) -> "Predictions":
        out = cls(probs, predicted, g, probs.max(axis=1), predicted == g)
        for values in (out.probs, out.predicted, out.g, out.conf, out.correct):
            values.flags.writeable = False
        return out

    def __len__(self) -> int:
        return len(self.g)


def records_from_probs(probs: np.ndarray, labels: np.ndarray) -> Predictions:
    """Predictions from an (n, 2) probability array; ties predict class 0."""
    probs = np.array(probs, dtype=np.float64)   # a copy: the result holds it
    labels = np.asarray(labels)
    if probs.ndim != 2 or probs.shape[1] != 2:
        raise ValueError(f"expected probs of shape (n, 2), got {probs.shape}")
    if probs.shape[0] != labels.shape[0]:
        raise ValueError(f"{probs.shape[0]} probability rows but {labels.shape[0]} labels")
    if probs.min() < 0 or not np.allclose(probs.sum(axis=1), 1.0, atol=1e-9):
        raise ValueError("probability rows must be nonnegative and sum to 1")
    bad = (labels != 0) & (labels != 1)
    if bad.any():
        raise ValueError(f"labels must be 0 or 1, got {labels[np.argmax(bad)]!r}")
    return Predictions.of(probs, np.argmax(probs, axis=1), labels.astype(np.int64))


# ---------------------------------------------------------------------------
# binning
# ---------------------------------------------------------------------------

@dataclass
class Bin:
    lower: float | None   # edges for equal-width bins, None for adaptive
    upper: float | None
    count: int
    conf: float | None    # None when the bin is empty
    acc: float | None


@dataclass
class BinTable:
    scheme: str           # "equal_width" | "adaptive"
    m: int
    n: int
    bins: list[Bin]

    def rows(self) -> list[dict]:
        out = []
        for i, b in enumerate(self.bins):
            out.append({"bin": i, "lower": b.lower, "upper": b.upper,
                        "count": b.count, "conf": b.conf, "acc": b.acc})
        return out


def equal_width_index(r, m: int):
    """Equal-width bin of confidence r: one index, or an index array."""
    return np.clip(np.ceil(np.multiply(r, m)).astype(np.int64) - 1, 0, m - 1)


def reliability_table(preds: Predictions, scheme: str = "equal_width",
                      m: int = BINS) -> BinTable:
    """Bin the records under ``scheme`` into m bins (conventions above)."""
    if m < 1:
        raise ValueError(f"number of bins must be >= 1, got {m}")
    if not len(preds):
        raise ValueError("need at least one record to bin")
    if scheme == "equal_width":
        index = equal_width_index(preds.conf, m)
        order = np.argsort(index, kind="stable")   # record order within a bin
        counts = np.bincount(index, minlength=m).tolist()
    elif scheme == "adaptive":
        order = np.argsort(preds.conf, kind="stable")   # ties by original position
        base, rem = divmod(len(preds), m)
        counts = [base + 1] * rem + [base] * (m - rem)
    else:
        raise ValueError(f"unknown binning scheme {scheme!r}")
    bins = []
    pos = 0
    for i, count in enumerate(counts):
        members = order[pos:pos + count]
        pos += count
        conf = acc = None
        if count:
            conf = float(np.mean(preds.conf[members]))
            acc = float(np.mean(preds.correct[members]))
        lower, upper = (i / m, (i + 1) / m) if scheme == "equal_width" else (None, None)
        bins.append(Bin(lower=lower, upper=upper, count=count, conf=conf, acc=acc))
    return BinTable(scheme=scheme, m=m, n=len(preds), bins=bins)


# ---------------------------------------------------------------------------
# calibration metrics
# ---------------------------------------------------------------------------

def _ece_of(table: BinTable) -> float:
    total = 0.0
    for b in table.bins:
        if b.count:
            total += (b.count / table.n) * abs(b.acc - b.conf)
    return total


def ece(preds: Predictions, m: int = BINS) -> float:
    return _ece_of(reliability_table(preds, "equal_width", m))


def aece(preds: Predictions, m: int = BINS) -> float:
    return _ece_of(reliability_table(preds, "adaptive", m))


def mce(preds: Predictions, m: int = BINS) -> float:
    table = reliability_table(preds, "equal_width", m)
    worst = 0.0
    for b in table.bins:
        if b.count:
            worst = max(worst, abs(b.acc - b.conf))
    return worst


def oe(preds: Predictions, m: int = BINS) -> float:
    """Overconfidence error: confidence-weighted hinge on conf - acc per bin."""
    table = reliability_table(preds, "equal_width", m)
    total = 0.0
    for b in table.bins:
        if b.count:
            total += (b.count / table.n) * (b.conf * max(b.conf - b.acc, 0.0))
    return total


def brier(preds: Predictions) -> float:
    """Mean squared distance to the one-hot label. Each record's term is the
    BLAS dot of its difference row with itself (a fused multiply-add there
    can differ from ``(diff * diff).sum``); the terms are summed in order."""
    if not len(preds):
        raise ValueError("need at least one record")
    diff = preds.probs - np.eye(2)[preds.g]
    per_record = np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]
    return float(np.cumsum(per_record)[-1]) / len(preds)


# ---------------------------------------------------------------------------
# classification metrics and paired test
# ---------------------------------------------------------------------------

def classification_metrics(preds: Predictions) -> dict:
    """Sensitivity, specificity, and their mean; None where a class is absent."""
    if not len(preds):
        raise ValueError("need at least one record")
    positive = preds.g == 1
    tp = int(np.count_nonzero(positive & preds.correct))
    fn = int(np.count_nonzero(positive & ~preds.correct))
    tn = int(np.count_nonzero(~positive & preds.correct))
    fp = int(np.count_nonzero(~positive & ~preds.correct))
    sen = tp / (tp + fn) if (tp + fn) else None
    spe = tn / (tn + fp) if (tn + fp) else None
    bacc = (sen + spe) / 2 if (sen is not None and spe is not None) else None
    return {"sensitivity": sen, "specificity": spe, "bacc": bacc}


def mcnemar(preds_a: Predictions, preds_b: Predictions) -> dict:
    """Continuity-corrected chi-squared test on paired disagreements (1 dof)."""
    if len(preds_a) != len(preds_b):
        raise ValueError(f"paired test needs equal lengths, got {len(preds_a)} and {len(preds_b)}")
    mismatched = preds_a.g != preds_b.g
    if mismatched.any():
        raise ValueError(f"record {int(np.argmax(mismatched))} has mismatched labels; "
                         "the test sets differ")
    b = int(np.count_nonzero(preds_a.correct & ~preds_b.correct))
    c = int(np.count_nonzero(~preds_a.correct & preds_b.correct))
    if b + c == 0:
        return {"statistic": 0.0, "p_value": 1.0, "b": 0, "c": 0}
    stat = (abs(b - c) - 1) ** 2 / (b + c)
    p = math.erfc(math.sqrt(stat / 2.0))
    return {"statistic": float(stat), "p_value": float(p), "b": b, "c": c}
