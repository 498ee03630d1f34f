"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive (plain loops, no code shared with the
package) so it can serve as an oracle for the real implementations. The one
exception is the graph-built VAE at the end, which composes the package's
autodiff ops, whose gradients the op-level tests check on their own.
"""

from __future__ import annotations

import math

import numpy as np

from calibtrain import autodiff as ad
from calibtrain.model import LOGVAR_MAX, LOGVAR_MIN, ForwardResult

FD_STEP = 1e-5


def fd_directional(f, x: np.ndarray, v: np.ndarray, h: float = FD_STEP) -> float:
    """Central finite-difference directional derivative of f at x along v."""
    return (f(x + h * v) - f(x - h * v)) / (2.0 * h)


def fd_coordinate(f, x: np.ndarray, idx: int, h: float = FD_STEP) -> float:
    """Central finite-difference partial derivative along one coordinate."""
    e = np.zeros_like(x)
    e.flat[idx] = 1.0
    return fd_directional(f, x, e, h)


def rel_error(approx: float, exact: float, floor: float = 1e-8) -> float:
    return abs(approx - exact) / max(abs(approx), abs(exact), floor)


# ---------------------------------------------------------------------------
# brute-force calibration metrics over (prob_pos_class_0?, ...) records
# Records here are plain tuples: (probs: list[2], r: float, pred: int, g: int)
# ---------------------------------------------------------------------------

def equal_width_bin_index(r: float, n_bins: int) -> int:
    """Bin m covers (m/M, (m+1)/M]; the first bin is closed at 0."""
    if r <= 0.0:
        return 0
    idx = math.ceil(r * n_bins) - 1
    return min(max(idx, 0), n_bins - 1)


def group_equal_width(rs, n_bins):
    groups = [[] for _ in range(n_bins)]
    for i, r in enumerate(rs):
        groups[equal_width_bin_index(r, n_bins)].append(i)
    return groups


def group_adaptive(rs, n_bins):
    """Sort by confidence (stable on input order) and cut into n_bins
    contiguous groups whose sizes differ by at most one; earlier groups get
    the extra member."""
    order = sorted(range(len(rs)), key=lambda i: (rs[i], i))
    n = len(rs)
    q, rem = divmod(n, n_bins)
    groups, start = [], 0
    for m in range(n_bins):
        size = q + (1 if m < rem else 0)
        groups.append(order[start:start + size])
        start += size
    return groups


def _bin_stats(group, rs, corrects):
    conf = sum(rs[i] for i in group) / len(group)
    acc = sum(1.0 for i in group if corrects[i]) / len(group)
    return conf, acc


def brute_ece(rs, corrects, n_bins, adaptive=False) -> float:
    n = len(rs)
    groups = group_adaptive(rs, n_bins) if adaptive else group_equal_width(rs, n_bins)
    total = 0.0
    for group in groups:
        if not group:
            continue
        conf, acc = _bin_stats(group, rs, corrects)
        total += (len(group) / n) * abs(acc - conf)
    return total


def brute_mce(rs, corrects, n_bins, adaptive=False) -> float:
    groups = group_adaptive(rs, n_bins) if adaptive else group_equal_width(rs, n_bins)
    worst = 0.0
    for group in groups:
        if not group:
            continue
        conf, acc = _bin_stats(group, rs, corrects)
        worst = max(worst, abs(acc - conf))
    return worst


def brute_oe(rs, corrects, n_bins, adaptive=False) -> float:
    n = len(rs)
    groups = group_adaptive(rs, n_bins) if adaptive else group_equal_width(rs, n_bins)
    total = 0.0
    for group in groups:
        if not group:
            continue
        conf, acc = _bin_stats(group, rs, corrects)
        total += (len(group) / n) * conf * max(conf - acc, 0.0)
    return total


def brute_brier(probs, labels) -> float:
    """Two-class summed convention: ||p - onehot(g)||^2 averaged over samples."""
    total = 0.0
    for p, g in zip(probs, labels):
        onehot = [0.0, 0.0]
        onehot[g] = 1.0
        total += sum((pi - oi) ** 2 for pi, oi in zip(p, onehot))
    return total / len(probs)


def brute_classification(preds, labels):
    tp = sum(1 for p, g in zip(preds, labels) if g == 1 and p == 1)
    fn = sum(1 for p, g in zip(preds, labels) if g == 1 and p == 0)
    tn = sum(1 for p, g in zip(preds, labels) if g == 0 and p == 0)
    fp = sum(1 for p, g in zip(preds, labels) if g == 0 and p == 1)
    sen = tp / (tp + fn) if (tp + fn) > 0 else None
    spe = tn / (tn + fp) if (tn + fp) > 0 else None
    bacc = (sen + spe) / 2.0 if sen is not None and spe is not None else None
    return sen, spe, bacc


def brute_mcnemar(correct_a, correct_b):
    b = sum(1 for ca, cb in zip(correct_a, correct_b) if ca and not cb)
    c = sum(1 for ca, cb in zip(correct_a, correct_b) if not ca and cb)
    if b + c == 0:
        return 0.0, 1.0
    stat = (abs(b - c) - 1.0) ** 2 / (b + c)
    p = math.erfc(math.sqrt(stat / 2.0))
    return stat, p


# ---------------------------------------------------------------------------
# brute-force loss values on plain floats
# ---------------------------------------------------------------------------

def brute_paired_confidence(prob_pos, preds, labels, margin) -> float:
    """Eq-by-hand pair sum over both prediction sides."""
    total = 0.0
    for side in (1, 0):
        p_side = [p if side == 1 else 1.0 - p for p in prob_pos]
        incorrect = [i for i, (pr, g) in enumerate(zip(preds, labels))
                     if pr == side and pr != g]
        correct = [i for i, (pr, g) in enumerate(zip(preds, labels))
                   if pr == side and pr == g]
        if not incorrect or not correct:
            continue
        s = 0.0
        for i in incorrect:
            for j in correct:
                s += max(p_side[i] - p_side[j] + margin, 0.0)
        total += s / len(incorrect)
    return total


def brute_probability_loss(prob_pos, labels) -> float:
    pos = [i for i, g in enumerate(labels) if g == 1]
    negatives = [i for i, g in enumerate(labels) if g == 0]
    total = 0.0
    if pos:
        total += sum(1.0 - prob_pos[i] for i in pos) / len(pos)
    if negatives:
        total += sum(prob_pos[i] for i in negatives) / len(negatives)
    return total


def brute_mmce(rs, corrects, width) -> float:
    n = len(rs)
    m = sum(1 for c in corrects if c)
    k = lambda a, b: math.exp(-abs(a - b) / width)
    t1 = t2 = t3 = 0.0
    inc = [i for i in range(n) if not corrects[i]]
    cor = [i for i in range(n) if corrects[i]]
    if inc:
        t1 = sum(rs[i] * rs[j] * k(rs[i], rs[j]) for i in inc for j in inc) / (n - m) ** 2
    if cor:
        t2 = sum((1 - rs[i]) * (1 - rs[j]) * k(rs[i], rs[j]) for i in cor for j in cor) / m ** 2
    if inc and cor:
        t3 = -2.0 * sum((1 - rs[i]) * rs[j] * k(rs[i], rs[j])
                        for i in cor for j in inc) / (m * (n - m))
    return math.sqrt(max(t1 + t2 + t3, 0.0))


def brute_soft_ece(rs, corrects, n_bins, temperature, order) -> float:
    """Soft-binned calibration error with softmax memberships over bin centres."""
    n = len(rs)
    centres = [(m + 0.5) / n_bins for m in range(n_bins)]
    members = []
    for r in rs:
        logits = [-((r - c) ** 2) / temperature for c in centres]
        mx = max(logits)
        es = [math.exp(l - mx) for l in logits]
        z = sum(es)
        members.append([e / z for e in es])
    total = 0.0
    for m in range(n_bins):
        mass = sum(members[i][m] for i in range(n))
        acc_num = sum(members[i][m] * (1.0 if corrects[i] else 0.0) for i in range(n))
        conf_num = sum(members[i][m] * rs[i] for i in range(n))
        a = acc_num / (mass + 1e-12)
        r_bar = conf_num / (mass + 1e-12)
        total += (mass / n) * abs(a - r_bar) ** order
    return total ** (1.0 / order)


# ---------------------------------------------------------------------------
# the VAE built op by op as an autodiff graph
# ---------------------------------------------------------------------------
# The model used to train through this graph: one node per matmul, bias add,
# nonlinearity and clamp step. It is the reference that the fused layers of
# calibtrain.model, with their hand-written backward passes, must match
# bitwise, forward values and parameter gradients alike. The parameter nodes
# are the model's own, so ``backward`` fills the model's gradient buffer.

def _graph_encode(params, x):
    h = ad.tanh(x @ params["enc.w1"] + params["enc.b1"])
    mu = h @ params["enc.w_mu"] + params["enc.b_mu"]
    lv = ad.clamp(h @ params["enc.w_lv"] + params["enc.b_lv"], LOGVAR_MIN, LOGVAR_MAX)
    return mu, lv


def _graph_decode(params, z):
    h = ad.tanh(z @ params["dec.w1"] + params["dec.b1"])
    return ad.sigmoid(h @ params["dec.w2"] + params["dec.b2"])


def _graph_classify(params, z):
    h = ad.tanh(z @ params["clf.w1"] + params["clf.b1"])
    return ad.softmax(h @ params["clf.w2"] + params["clf.b2"])


def graph_vae_forward(model, x, rng=None, sample_latent=False):
    """``model.forward`` as one autodiff node per operation."""
    mu, lv = _graph_encode(model.params, ad.constant(np.asarray(x, dtype=np.float64)))
    if sample_latent:
        eps = ad.constant(rng.standard_normal(mu.value.shape))
        z = mu + ad.exp(lv * 0.5) * eps
    else:
        z = mu
    return ForwardResult(xhat=_graph_decode(model.params, z), mu_z=mu, logvar_z=lv,
                         z=z, probs=_graph_classify(model.params, z))
