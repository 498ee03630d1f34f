"""Evaluation-side calibration and classification metrics.

All functions here are non-differentiable reporting code operating on
PredictionRecord lists. Binning conventions, pinned once for every consumer:

* equal-width: bin m covers (m/M, (m+1)/M], first bin closed at 0, so the
  index of confidence r is ceil(r*M) - 1 clamped to [0, M-1];
* adaptive: records sorted by confidence (ties broken by original position)
  and split into M contiguous groups, the first n % M groups one larger.

Empty bins contribute 0 to ECE/OE, are skipped by MCE, and appear in
reliability tables with count 0 and absent accuracy/confidence.

Brier score uses the two-class summed convention, so its range is [0, 2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class PredictionRecord:
    probs: np.ndarray  # [P(g=0), P(g=1)]
    r: float           # confidence, max(probs)
    predicted: int
    g: int
    correct: bool


def records_from_probs(probs: np.ndarray, labels: np.ndarray) -> list[PredictionRecord]:
    """Build records from an (n, 2) probability array; ties predict class 0."""
    probs = np.array(probs, dtype=np.float64)   # a copy: records hold its rows
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
    predicted = np.argmax(probs, axis=1).tolist()
    return [PredictionRecord(probs=row, r=r, predicted=pred, g=g, correct=pred == g)
            for row, r, pred, g in zip(probs, probs.max(axis=1).tolist(), predicted,
                                       labels.astype(np.int64).tolist())]


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


def _check_bin_args(records, m):
    if m < 1:
        raise ValueError(f"number of bins must be >= 1, got {m}")
    if not records:
        raise ValueError("need at least one record to bin")


def equal_width_index(r: float, m: int) -> int:
    idx = math.ceil(r * m) - 1
    return min(max(idx, 0), m - 1)


def bin_equal_width(records: list[PredictionRecord], m: int = 15) -> BinTable:
    _check_bin_args(records, m)
    groups: list[list[PredictionRecord]] = [[] for _ in range(m)]
    for rec in records:
        groups[equal_width_index(rec.r, m)].append(rec)
    bins = []
    for i, grp in enumerate(groups):
        if grp:
            conf = float(np.mean([x.r for x in grp]))
            acc = float(np.mean([x.correct for x in grp]))
        else:
            conf = acc = None
        bins.append(Bin(lower=i / m, upper=(i + 1) / m, count=len(grp),
                        conf=conf, acc=acc))
    return BinTable(scheme="equal_width", m=m, n=len(records), bins=bins)


def bin_adaptive(records: list[PredictionRecord], m: int = 15) -> BinTable:
    _check_bin_args(records, m)
    order = sorted(range(len(records)), key=lambda i: (records[i].r, i))
    base, rem = divmod(len(records), m)
    bins = []
    pos = 0
    for i in range(m):
        size = base + (1 if i < rem else 0)
        grp = [records[j] for j in order[pos:pos + size]]
        pos += size
        if grp:
            conf = float(np.mean([x.r for x in grp]))
            acc = float(np.mean([x.correct for x in grp]))
        else:
            conf = acc = None
        bins.append(Bin(lower=None, upper=None, count=len(grp), conf=conf, acc=acc))
    return BinTable(scheme="adaptive", m=m, n=len(records), bins=bins)


def reliability_table(records: list[PredictionRecord], scheme: str = "equal_width",
                      m: int = 15) -> BinTable:
    if scheme == "equal_width":
        return bin_equal_width(records, m)
    if scheme == "adaptive":
        return bin_adaptive(records, m)
    raise ValueError(f"unknown binning scheme {scheme!r}")


# ---------------------------------------------------------------------------
# calibration metrics
# ---------------------------------------------------------------------------

def _ece_of(table: BinTable) -> float:
    total = 0.0
    for b in table.bins:
        if b.count:
            total += (b.count / table.n) * abs(b.acc - b.conf)
    return total


def ece(records: list[PredictionRecord], m: int = 15) -> float:
    return _ece_of(bin_equal_width(records, m))


def aece(records: list[PredictionRecord], m: int = 15) -> float:
    return _ece_of(bin_adaptive(records, m))


def mce(records: list[PredictionRecord], m: int = 15, scheme: str = "equal_width") -> float:
    table = reliability_table(records, scheme, m)
    worst = 0.0
    for b in table.bins:
        if b.count:
            worst = max(worst, abs(b.acc - b.conf))
    return worst


def oe(records: list[PredictionRecord], m: int = 15, scheme: str = "equal_width") -> float:
    """Overconfidence error: confidence-weighted hinge on conf - acc per bin."""
    table = reliability_table(records, scheme, m)
    total = 0.0
    for b in table.bins:
        if b.count:
            total += (b.count / table.n) * (b.conf * max(b.conf - b.acc, 0.0))
    return total


def brier(records: list[PredictionRecord]) -> float:
    if not records:
        raise ValueError("need at least one record")
    total = 0.0
    for rec in records:
        onehot = np.zeros(2)
        onehot[rec.g] = 1.0
        diff = rec.probs - onehot
        total += float(diff @ diff)
    return total / len(records)


# ---------------------------------------------------------------------------
# classification metrics and paired test
# ---------------------------------------------------------------------------

# Reference operating point of a full-scale clinical run of the plain
# cross-entropy baseline (percent). Kept for report footnotes; the
# desk-scale runs here are not expected to reproduce it.
REFERENCE_FULL_SCALE_BASELINE = {"sensitivity": 73.3, "specificity": 64.3, "bacc": 68.8}


def classification_metrics(records: list[PredictionRecord]) -> dict:
    """Sensitivity, specificity, and their mean; None where a class is absent."""
    if not records:
        raise ValueError("need at least one record")
    tp = sum(1 for r in records if r.g == 1 and r.predicted == 1)
    fn = sum(1 for r in records if r.g == 1 and r.predicted == 0)
    tn = sum(1 for r in records if r.g == 0 and r.predicted == 0)
    fp = sum(1 for r in records if r.g == 0 and r.predicted == 1)
    sen = tp / (tp + fn) if (tp + fn) else None
    spe = tn / (tn + fp) if (tn + fp) else None
    bacc = (sen + spe) / 2 if (sen is not None and spe is not None) else None
    return {"sensitivity": sen, "specificity": spe, "bacc": bacc}


def mcnemar(records_a: list[PredictionRecord],
            records_b: list[PredictionRecord]) -> dict:
    """Continuity-corrected chi-squared test on paired disagreements (1 dof)."""
    if len(records_a) != len(records_b):
        raise ValueError(f"paired test needs equal lengths, got {len(records_a)} and {len(records_b)}")
    for i, (ra, rb) in enumerate(zip(records_a, records_b)):
        if ra.g != rb.g:
            raise ValueError(f"record {i} has mismatched labels; the test sets differ")
    b = sum(1 for ra, rb in zip(records_a, records_b) if ra.correct and not rb.correct)
    c = sum(1 for ra, rb in zip(records_a, records_b) if not ra.correct and rb.correct)
    if b + c == 0:
        return {"statistic": 0.0, "p_value": 1.0, "b": 0, "c": 0}
    stat = (abs(b - c) - 1) ** 2 / (b + c)
    p = math.erfc(math.sqrt(stat / 2.0))
    return {"statistic": float(stat), "p_value": float(p), "b": b, "c": c}
