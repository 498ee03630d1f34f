"""Differentiable batch losses: baseline composite plus six uncertainty-aware
training strategies.

Every strategy produces a scalar loss

    L = L_RE + lambda_kl * L_KL + lambda_c * L_C (+ lambda_n * L_N)

where L_N is the strategy-specific regularizer; the confidence-weight strategy
instead replaces L_C with a per-sample weighted cross-entropy and has no
lambda_n term. ``STRATEGIES`` holds one row per strategy: the ``LossSpec``
fields it reads and its change to the baseline loss. AvUC's threshold is
training state, an argument of ``total_loss``. Coefficients that are exactly
0.0 short-circuit their term, so the remaining loss (and its gradients)
matches the reduced loss bitwise.

Confidence r_i is the probability of the arg-max class; the arg-max itself is
treated as locally constant, so gradients flow through the selected entries
only. Epistemic confidences C_i and the certain/uncertain partition are
stop-gradient constants.

Each term returns its value and a hand-written vector-Jacobian product
(VJP). The tests keep an op-by-op autodiff graph of every term as the
reference. Each VJP repeats that graph's arithmetic operand for operand,
sums the cotangents of a shared intermediate (r, the soft-bin counts, the
MMCE kernel) in the order that graph's backward walk would, and returns its
parts in the order the graph adds them to the input. ``total_loss`` sums the
probabilities' parts left to right, classifier term first, and hands the
cotangents to ``VaeClassifier.backward``. Values and gradients are
therefore bitwise those of the reference.

The pair-based terms cost n^2 per batch and keep their n x n arrays few.
The paired-confidence hinge works on each side's incorrect rows alone, as
(incorrect x n) arrays, and fills one n x n matrix only for its value's
sum. MMCE builds its kernel in place and its kernel cotangent in two
n x n buffers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .model import ForwardResult, _in_order

EPS = 1e-12   # floor for logs, denominators and fractional-power bases


class Strategy(NamedTuple):
    """A row of STRATEGIES: the LossSpec fields a strategy reads beyond
    strategy, lambda_kl and lambda_c, and what it does to the baseline loss.
    It adds ``lambda_n * regularizer(batch, spec, avuc_threshold)``, or
    (``weighted``) weights L_C per sample by the batch's epistemic
    confidences, which training must then supply."""

    reads: tuple[str, ...] = ()
    regularizer: Callable | None = None
    weighted: bool = False

    @property
    def fields(self) -> set[str]:
        """Every LossSpec field the strategy reads, the shared ones included."""
        return {"strategy", "lambda_kl", "lambda_c", *self.reads}


STRATEGIES = {
    "baseline": Strategy(),
    "paired_confidence": Strategy(("lambda_n", "margin"),
                                  lambda b, s, t: paired_confidence_loss(b, s.margin)),
    "probability": Strategy(("lambda_n",), lambda b, s, t: probability_loss(b)),
    "confidence_weight": Strategy(("weight_floor",), weighted=True),
    "avuc": Strategy(("lambda_n",), lambda b, s, t: avuc_loss(b, t)),
    "soft_ece": Strategy(("lambda_n", "temperature", "n_bins", "norm_order"),
                         lambda b, s, t: soft_ece_loss(b, s.n_bins, s.temperature,
                                                       s.norm_order)),
    "mmce": Strategy(("lambda_n", "kernel_width"),
                     lambda b, s, t: mmce_loss(b, s.kernel_width)),
}


def checked_int(name: str, value) -> int:
    """``value`` as an int: an integer, or a float with an integral value.
    Bools, strings and fractions are a ValueError naming the field."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def check_number(name: str, value) -> None:
    """A ValueError naming the field unless ``value`` is a finite real number
    (not a bool); a NaN would pass every range check written as ``x <= 0``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass
class LossSpec:
    """Strategy tag plus every tunable the strategies read.

    Defaults are single-task starting points; per-task sweeps are expected
    to re-tune them. weight_floor values above 1 are permitted: tuned optima
    have landed at w = 2 even though weights then exceed 1, and w = 1 makes
    the weighting constant (identical to baseline).
    """

    strategy: str
    lambda_kl: float = 0.001
    lambda_c: float = 3.0
    lambda_n: float = 1.0
    margin: float = 0.6
    weight_floor: float = 1.0
    temperature: float = 0.1
    n_bins: int = 15
    norm_order: float = 2.0
    kernel_width: float = 0.4

    def __post_init__(self):
        if not isinstance(self.strategy, str) or self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}; expected one of {list(STRATEGIES)}")
        for name in ("lambda_kl", "lambda_c", "lambda_n", "margin", "weight_floor",
                     "temperature", "norm_order", "kernel_width"):
            check_number(name, getattr(self, name))
        self.n_bins = checked_int("n_bins", self.n_bins)
        for name in ("lambda_kl", "lambda_c", "lambda_n"):
            v = getattr(self, name)
            if v < 0:
                raise ValueError(f"{name} must be >= 0, got {v}")
        if not (0.0 <= self.margin <= 1.0):
            raise ValueError(f"margin must lie in [0, 1], got {self.margin}")
        if self.weight_floor < 0:
            raise ValueError(f"weight_floor must be >= 0, got {self.weight_floor}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be > 0, got {self.temperature}")
        if self.n_bins < 2:
            raise ValueError(f"n_bins must be >= 2, got {self.n_bins}")
        if self.norm_order < 1:
            raise ValueError(f"norm_order must be >= 1, got {self.norm_order}")
        if self.kernel_width <= 0:
            raise ValueError(f"kernel_width must be > 0, got {self.kernel_width}")

    @classmethod
    def from_dict(cls, d: dict) -> "LossSpec":
        """Parse a config mapping. Every key is checked, whether or not the
        strategy reads it; one it does not read has no effect."""
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown loss config keys: {sorted(unknown)}")
        strategy = d.get("strategy")
        if not isinstance(strategy, str):
            raise ValueError(f"loss config must name a strategy as a string, got {strategy!r}")
        return cls(**d)


class Term(NamedTuple):
    """A loss term's value and VJP: ``vjp(g)`` returns the parts of its
    input's cotangent, in the order they are summed; for a term over the
    class probabilities, a list of (n, 2) arrays."""

    value: np.float64
    vjp: Callable


@dataclass
class Loss:
    """The scalar batch loss, and the schedule that adds its gradient into
    the model's parameter gradients; ``autodiff.backward`` runs it once."""

    value: np.float64
    schedule: Callable[[], None]
    backward_done: bool = False
    parents = ()   # walked by bench/spans.count_graph_nodes until ROADMAP item 1 retires it


_ZERO = Term(np.float64(0.0), lambda g: [])   # a degenerate batch: no gradient

_POS = np.array([0.0, 1.0])   # selects the P(g=1) column
_NEG = np.array([1.0, 0.0])   # selects the P(g=0) column


@dataclass
class BatchView:
    """Per-batch classifier outputs with the derived constants the losses need.

    The column accessors return (n, 1) arrays; a loss that reads a column
    hands its cotangent back to ``probs`` through that column's mask.
    """

    probs: np.ndarray                 # (n, 2)
    labels: np.ndarray                # (n,) ints in {0, 1}
    predicted: np.ndarray             # (n,) arg-max of probs
    correct: np.ndarray               # (n,) bools
    epistemic_conf: np.ndarray | None = None  # C_i, stop-gradient

    @property
    def n(self) -> int:
        return len(self.labels)

    def _onehot(self, cols: np.ndarray) -> np.ndarray:
        onehot = np.zeros((self.n, 2))
        onehot[np.arange(self.n), cols] = 1.0
        return onehot

    def _pick(self, cols: np.ndarray) -> np.ndarray:
        return self.probs[np.arange(self.n), cols][:, None]

    def r(self) -> np.ndarray:
        """(n, 1) confidence of the predicted class."""
        return self._pick(self.predicted)

    def prob_pos(self) -> np.ndarray:
        return self.probs[:, 1:]

    def prob_neg(self) -> np.ndarray:
        return self.probs[:, :1]

    def true_prob(self) -> np.ndarray:
        """(n, 1) probability assigned to the true class."""
        return self._pick(self.labels)


def make_batch_view(probs: np.ndarray, labels: np.ndarray,
                    epistemic_conf: np.ndarray | None = None) -> BatchView:
    labels = np.asarray(labels, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[1] != 2:
        raise ValueError(f"expected (n, 2) probabilities, got {probs.shape}")
    if labels.shape[0] != probs.shape[0]:
        raise ValueError("labels and probabilities disagree on batch size")
    predicted = np.argmax(probs, axis=1)
    if epistemic_conf is not None:
        epistemic_conf = np.asarray(epistemic_conf, dtype=np.float64)
        if epistemic_conf.shape != labels.shape:
            raise ValueError("epistemic confidences must be one scalar per sample")
    return BatchView(probs=probs, labels=labels, predicted=predicted,
                     correct=predicted == labels, epistemic_conf=epistemic_conf)


def _column_sum(g: np.ndarray) -> np.ndarray:
    """Cotangent of an (n, 1) column broadcast against a (n, m) operand."""
    return g.sum(axis=(1,), keepdims=True)


def _row_sum(g: np.ndarray) -> np.ndarray:
    """Cotangent of a (1, n) row broadcast against a (n, n) operand."""
    return g.sum(axis=(0,), keepdims=True)


def _sum_as_rows(values: np.ndarray, rows: np.ndarray, n: int) -> np.float64:
    """The sum of an n-row matrix that holds ``values`` in ``rows`` and
    zeros elsewhere: numpy's pairwise order over the full matrix, so the
    bits of summing that matrix."""
    full = np.zeros((n, values.shape[1]))
    full[rows] = values
    return full.sum()


def _outer_sum(factors) -> np.ndarray:
    """col @ row.T summed over (col, row) pairs of (n, 1) arrays, left to
    right, in two (n, n) buffers. A broadcast product equals the K=1 matrix
    product; the two differ at most in the sign of a zero."""
    total = part = None
    for col, row in factors:
        if total is None:
            total = col * row.T
        else:
            part = np.multiply(col, row.T, out=part)
            total += part
    return total


def _softmax_values(x: np.ndarray) -> np.ndarray:
    """Row softmax over the last axis; rows sum to 1 within 1e-12."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _mean(a: np.ndarray):
    """``a.mean()`` to the bit (numpy divides the same sum by the count),
    without the Python-level wrapper around it."""
    return a.sum() / a.size


def _floored_log(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(max(a, EPS)), and its derivative with zero below the floor."""
    floored = np.maximum(a, EPS)
    return np.log(floored), np.where(a > EPS, 1.0 / floored, 0.0)


# ---------------------------------------------------------------------------
# the VAE terms: reconstruction and KL
# ---------------------------------------------------------------------------

def reconstruction_loss(x: np.ndarray, xhat: np.ndarray) -> Term:
    """Mean per-coordinate binary cross-entropy against targets in [0, 1].
    The VJP returns the reconstruction's cotangent."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != xhat.shape:
        raise ValueError(f"target shape {x.shape} != reconstruction shape {xhat.shape}")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValueError("reconstruction targets must lie in [0, 1]; scale features first")
    log_p, dlog_p = _floored_log(xhat)
    log_q, dlog_q = _floored_log(1.0 - xhat)
    x_neg = 1.0 - x
    per_entry = x * log_p + x_neg * log_q

    def vjp(g):
        g_entry = -g / per_entry.size
        return (g_entry * x) * dlog_p + (-((g_entry * x_neg) * dlog_q))

    return Term(-_mean(per_entry), vjp)


def kl_loss(mu: np.ndarray, logvar: np.ndarray) -> Term:
    """KL(q(z|x) || N(0, I)), summed over latent dims, averaged over the batch.
    The VJP returns (mu's parts, logvar's parts), two of each."""
    e = np.exp(logvar)
    per_sample = ((1.0 + logvar - mu * mu) - e).sum(axis=1, keepdims=True)
    scale = -0.5 / per_sample.size

    def vjp(g):
        g_inner = g * scale
        to_mu = -g_inner * mu             # once for each factor of mu * mu
        return (to_mu, to_mu), (np.full(logvar.shape, g_inner), -g_inner * e)

    return Term(per_sample.sum() * scale, vjp)


# ---------------------------------------------------------------------------
# classifier cross-entropy (the L_C term)
# ---------------------------------------------------------------------------

def _cross_entropy(batch: BatchView, weights: np.ndarray | None) -> Term:
    """-mean(w * log p_true), with w = 1 when ``weights`` is None."""
    log_t, dlog_t = _floored_log(batch.true_prob())
    per_sample = log_t if weights is None else weights * log_t

    def vjp(g):
        g_sample = -g / per_sample.size
        g_log = g_sample if weights is None else g_sample * weights
        return [(g_log * dlog_t) * batch._onehot(batch.labels)]

    return Term(-_mean(per_sample), vjp)


def classifier_bce(batch: BatchView) -> Term:
    return _cross_entropy(batch, None)


# ---------------------------------------------------------------------------
# strategy regularizers
# ---------------------------------------------------------------------------

def paired_confidence_loss(batch: BatchView, margin: float) -> Term:
    """Hinge on confidence gaps between incorrect and correct predictions,
    separately within the predicted-positive and predicted-negative sides.

    Each side sums max(P_i - P_j + margin, 0) over (i incorrect, j correct)
    pairs and divides by its incorrect count alone (not the pair count).
    A side with no incorrect or no correct members contributes 0.

    Only a side's incorrect rows hold pairs, so its hinge, mask and
    cotangent are (incorrect x n) arrays. The value alone is summed over the
    full n x n matrix, zero outside those rows, and each row and column sum
    of the cotangent still runs over the same entries in the same order, so
    every bit is that of the n x n reference.
    """
    n = batch.n
    sides = []
    for side_prob, select, side_mask in ((batch.prob_pos(), _POS, batch.predicted == 1),
                                         (batch.prob_neg(), _NEG, batch.predicted == 0)):
        rows = np.flatnonzero(side_mask & ~batch.correct)
        cor = (side_mask & batch.correct).astype(np.float64)[None, :]   # (1, n)
        if rows.size == 0 or not cor.any():
            continue
        hinge_in = (side_prob[rows] - side_prob.T) + margin   # [a, j] = P_rows[a] - P_j + margin
        active = hinge_in > 0
        np.maximum(hinge_in, 0.0, out=hinge_in)
        hinge_in *= cor
        scale = 1.0 / rows.size
        sides.append((_sum_as_rows(hinge_in, rows, n) * scale, select, rows, cor, active, scale))
    if not sides:
        return _ZERO
    value = _in_order([side[0] for side in sides])

    def vjp(g):
        parts = []
        for _, select, rows, cor, active, scale in sides:
            g_rows = ((g * scale) * cor) * active                  # the incorrect rows
            g_side = np.zeros((n, 1))    # a row without pairs: numpy sums its zeros to +0.0
            g_side[rows] = _column_sum(g_rows)
            g_side += (-_row_sum(g_rows)).T
            parts.append(g_side * select)
        return parts

    return Term(value, vjp)


def probability_loss(batch: BatchView) -> Term:
    """Mean wrong-side probability, averaged per true class then summed."""
    pos = (batch.labels == 1).astype(np.float64)[:, None]
    neg = (batch.labels == 0).astype(np.float64)[:, None]
    terms = []
    if pos.sum() > 0:
        terms.append((batch.prob_neg(), pos, 1.0 / pos.sum(), _NEG))
    if neg.sum() > 0:
        terms.append((batch.prob_pos(), neg, 1.0 / neg.sum(), _POS))
    if not terms:
        return _ZERO
    value = _in_order([(col * mask).sum() * scale for col, mask, scale, _ in terms])

    def vjp(g):
        return [((g * scale) * mask) * select for _, mask, scale, select in terms]

    return Term(value, vjp)


def confidence_weights(batch: BatchView, weight_floor: float) -> np.ndarray:
    """Per-sample floored weights from epistemic positive-vote fractions C_i.

    W_i = g_i (1 - C_i) + (1 - g_i) C_i, then W_S = (1 - w) W + w. Constants:
    no gradient flows back into the sampling that produced C_i.
    """
    if batch.epistemic_conf is None:
        raise ValueError("confidence weighting needs epistemic confidences on the batch")
    c = batch.epistemic_conf
    g = batch.labels.astype(np.float64)
    w_raw = g * (1.0 - c) + (1.0 - g) * c
    return (1.0 - weight_floor) * w_raw + weight_floor


def weighted_classifier_loss(batch: BatchView, weight_floor: float) -> Term:
    weights = confidence_weights(batch, weight_floor)[:, None]
    return _cross_entropy(batch, weights)


def avuc_loss(batch: BatchView, threshold: float) -> Term:
    """Log-ratio of miscalibrated to calibrated soft counts.

    u_i is the entropy of the predictive distribution normalized to [0, 1];
    u_i < threshold marks a sample certain. Counts pair correctness with
    certainty: accurate-certain r(1 - tanh u), accurate-uncertain r tanh u,
    inaccurate-certain (1 - r)(1 - tanh u), inaccurate-uncertain
    (1 - r) tanh u.
    """
    p = batch.probs
    r = batch.r()
    log_p, dlog_p = _floored_log(p)
    u = -(p * log_p).sum(axis=1, keepdims=True) * (1.0 / math.log(2.0))
    tu = np.tanh(u)
    certain = (u < threshold).astype(np.float64)
    acc = batch.correct.astype(np.float64)[:, None]
    m_ac = acc * certain
    m_au = acc * (1.0 - certain)
    m_ic = (1.0 - acc) * certain
    m_iu = (1.0 - acc) * (1.0 - certain)
    not_tu = 1.0 - tu
    not_r = 1.0 - r
    ac, au, ic, iu = m_ac * r, m_au * r, m_ic * not_r, m_iu * not_r
    n_ac = (ac * not_tu).sum()
    n_iu = (iu * tu).sum()
    num = (au * tu).sum() + (ic * not_tu).sum()
    den = n_ac + n_iu + EPS
    log_out, dlog_out = _floored_log(1.0 + num / den)

    def vjp(g):
        g_ratio = g * dlog_out
        g_num = g_ratio / den
        g_den = -g_ratio * num / (den * den)
        # r and tanh u each meet four cotangents, summed in the graph's order:
        # accurate-uncertain, inaccurate-certain, accurate-certain,
        # inaccurate-uncertain
        g_r = (((g_num * tu) * m_au + (-((g_num * not_tu) * m_ic)))
               + (g_den * not_tu) * m_ac + (-((g_den * tu) * m_iu)))
        g_tu = ((g_num * au + (-(g_num * ic))) + (-(g_den * ac))) + g_den * iu
        g_sum = -((g_tu * (1.0 - tu * tu)) * (1.0 / math.log(2.0)))
        return [g_r * batch._onehot(batch.predicted), g_sum * log_p, (g_sum * p) * dlog_p]

    return Term(log_out, vjp)


def soft_ece_loss(batch: BatchView, n_bins: int, temperature: float,
                  norm_order: float) -> Term:
    """Soft-binned expected calibration error.

    Membership of sample i in bin m is a softmax over -(r_i - c_m)^2 / T with
    centers c_m = (m + 0.5)/M; as T -> 0 membership hardens to the nearest
    center, which coincides with equal-width binning away from boundaries.
    """
    r = batch.r()
    centers = (np.arange(n_bins) + 0.5) / n_bins
    diff = r - centers[None, :]                          # (n, M)
    membership = _softmax_values(diff * diff * (-1.0 / temperature))
    acc = batch.correct.astype(np.float64)[:, None]
    b = membership.sum(axis=0, keepdims=True)            # (1, M) soft counts
    denom = b + EPS
    acc_sum = (membership * acc).sum(axis=0, keepdims=True)
    conf_sum = (membership * r).sum(axis=0, keepdims=True)
    gap = acc_sum / denom - conf_sum / denom
    weights = b * (1.0 / batch.n)
    order = float(norm_order)
    gap_pow = np.abs(gap) ** order
    inner = (weights * gap_pow).sum()
    q = float(1.0 / norm_order)

    def vjp(g):
        # d(inner ** q); below q = 1 the base is floored at EPS
        base = np.maximum(inner, EPS) if q < 1.0 else inner
        g_inner = g * q * base ** (q - 1.0)
        g_gap = ((g_inner * weights) * order) * np.abs(gap) ** (order - 1.0) * np.sign(gap)
        g_denom = -g_gap * acc_sum / (denom * denom) + g_gap * conf_sum / (denom * denom)
        g_b = (g_inner * gap_pow) * (1.0 / batch.n) + g_denom
        g_acc, g_conf = g_gap / denom, -g_gap / denom
        g_membership = ((g_acc * acc) + (g_conf * r)) + g_b
        dot = (g_membership * membership).sum(axis=-1, keepdims=True)
        g_sq = (membership * (g_membership - dot)) * (-1.0 / temperature)
        g_diff = g_sq * diff + g_sq * diff
        g_r = _column_sum(g_conf * membership) + _column_sum(g_diff)
        return [g_r * batch._onehot(batch.predicted)]

    return Term(inner ** q, vjp)


def mmce_loss(batch: BatchView, kernel_width: float) -> Term:
    """Kernel-embedding calibration error with a Laplacian kernel.

    Quadratic forms over the kernel matrix: incorrect pairs weighted r_i r_j,
    correct pairs weighted (1 - r_i)(1 - r_j), minus twice the cross term,
    each normalized by its own pair count. Missing sides contribute 0.

    The kernel is built in place, and the VJP forms its outer products by
    broadcasting, summing and scaling them in two n x n buffers.
    """
    r = batch.r()
    dist = r - r.T
    k = np.abs(dist)
    k *= -1.0 / kernel_width
    np.exp(k, out=k)                                     # (n, n) kernel
    cor = batch.correct.astype(np.float64)[:, None]
    inc = 1.0 - cor
    m = cor.sum()
    n_inc = inc.sum()
    u = r * inc
    v = (1.0 - r) * cor
    ku = k @ u if n_inc > 0 else None
    kv = k @ v if m > 0 else None
    total = None
    if n_inc > 0:
        total = (u * ku).sum() * (1.0 / n_inc ** 2)
    if m > 0:
        term = (v * kv).sum() * (1.0 / m ** 2)
        total = term if total is None else total + term
    if m > 0 and n_inc > 0:
        total = total + (v * ku).sum() * (-2.0 / (m * n_inc))
    assert total is not None
    clipped = np.where(total > 0, total, 0.0)

    def vjp(g):
        g_total = (g * 0.5 * np.maximum(clipped, EPS) ** (0.5 - 1.0)) * (total > 0)
        # the kernel and r gather cotangents from up to three quadratic forms;
        # the kernel's are outer products, kept as (column, row) factors
        outers, g_r = [], []
        if n_inc > 0:
            g_s = g_total * (1.0 / n_inc ** 2)
            g_ku = g_s * u
            outers.append((g_ku, u))
            g_r.append(((g_s * ku) + k.T @ g_ku) * inc)
        if m > 0:
            g_s = g_total * (1.0 / m ** 2)
            g_kv = g_s * v
            outers.append((g_kv, v))
            g_r.append(-(((g_s * kv) + k.T @ g_kv) * cor))
        if m > 0 and n_inc > 0:
            g_s = g_total * (-2.0 / (m * n_inc))
            g_kuu = g_s * v
            outers.append((g_kuu, u))
            g_r.append(-((g_s * ku) * cor))
            g_r.append((k.T @ g_kuu) * inc)
        g_k = _outer_sum(outers)
        g_k *= k
        g_k *= -1.0 / kernel_width
        # dist is read nowhere else, so its sign may overwrite it (sign is
        # idempotent: a second call finds the same values)
        g_k *= np.sign(dist, out=dist)                   # the cotangent of r_i - r_j
        via_kernel = [_column_sum(g_k), (-_row_sum(g_k)).T]
        # the graph delivers r's parts through the kernel first when it holds
        # one form, and just before the cross form's u part when it holds three
        if len(g_r) == 4:
            g_r[3:3] = via_kernel
        else:
            g_r[0:0] = via_kernel
        return [_in_order(g_r) * batch._onehot(batch.predicted)]

    return Term(clipped ** 0.5, vjp)


# ---------------------------------------------------------------------------
# the composite
# ---------------------------------------------------------------------------

def total_loss(x: np.ndarray, result: ForwardResult, labels: np.ndarray,
               spec: LossSpec, epistemic_conf: np.ndarray | None = None,
               avuc_threshold: float = 1.0) -> tuple[Loss, BatchView]:
    """Assemble the full training loss for one batch, as the strategy's row
    of STRATEGIES says. ``avuc_threshold`` is training state: the entropy
    below which AvUC counts a prediction as certain.

    Terms with a coefficient of exactly 0.0 are omitted, so dropping a term
    and zeroing its coefficient are indistinguishable, down to the
    gradients. The value adds reconstruction, KL, classifier and
    regularizer, in that order, left to right.
    """
    batch = make_batch_view(result.probs, labels, epistemic_conf)
    recon = reconstruction_loss(x, result.xhat)
    kl = kl_loss(result.mu_z, result.logvar_z) if spec.lambda_kl != 0.0 else None
    row = STRATEGIES[spec.strategy]
    on_probs = []                     # (term, weight) pairs reading the probabilities
    if spec.lambda_c != 0.0:
        on_probs.append((weighted_classifier_loss(batch, spec.weight_floor) if row.weighted
                         else classifier_bce(batch), spec.lambda_c))
    if row.regularizer is not None and spec.lambda_n != 0.0:
        on_probs.append((row.regularizer(batch, spec, avuc_threshold), spec.lambda_n))

    value = recon.value
    if kl is not None:
        value = value + kl.value * spec.lambda_kl
    for term, weight in on_probs:
        value = value + term.value * weight

    def schedule():
        g_probs = _in_order([part for term, weight in on_probs for part in term.vjp(weight)])
        result.model.backward(result, recon.vjp(1.0), g_probs,
                              kl.vjp(spec.lambda_kl) if kl is not None else None)

    return Loss(value, schedule), batch
