"""Independent reference implementations used only by the test suite.

Everything here is deliberately naive (plain loops, no code shared with the
package) so it can serve as an oracle for the real implementations. The
per-record metrics are the package's former metric code, one object per
record, which the array metrics must match bitwise, and ``perturb`` is the
former per-sample input noise. The other exceptions are the last four
sections: the reverse-mode autodiff engine the package used to train
through, the single graph ops built on it (the op-level tests check the
engine and the ops against finite differences), and the VAE and the loss
heads built from them one node per operation, which the package's layer and
loss-term backward passes must match bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from calibtrain.autodiff import Param, ShapeMismatch
from calibtrain.data import Subset
from calibtrain.losses import (EPS, MMCE_KERNEL_WIDTH, SOFT_ECE_NORM_ORDER, BatchView,
                               confidence_weights, make_batch_view)
from calibtrain.metrics import BINS
from calibtrain.model import LOGVAR_MAX, LOGVAR_MIN

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
# per-record metrics: the bitwise reference for the array metrics
# ---------------------------------------------------------------------------
# One object per record and Python loops over the records, as the package
# computed its metrics before they took arrays. The per-bin means use
# np.mean over each bin's records, in record order for equal-width bins and
# in sorted order for adaptive bins, and the Brier terms are summed left to
# right, so the array metrics must equal these exactly, not just closely.

@dataclass
class Record:
    probs: np.ndarray  # [P(g=0), P(g=1)]
    r: float           # confidence, max(probs)
    predicted: int
    g: int
    correct: bool


def ref_records_from_probs(probs, labels) -> list[Record]:
    """Softmax records; ties predict class 0."""
    probs = np.array(probs, dtype=np.float64)
    predicted = np.argmax(probs, axis=1).tolist()
    return [Record(probs=row, r=r, predicted=pred, g=g, correct=pred == g)
            for row, r, pred, g in zip(probs, probs.max(axis=1).tolist(), predicted,
                                       np.asarray(labels).astype(np.int64).tolist())]


def ref_records_from_shares(shares, labels) -> list[Record]:
    """Vote records from positive-vote shares; a tie at 0.5 predicts positive."""
    records = []
    for c, g in zip(np.asarray(shares, dtype=np.float64).tolist(), labels):
        predicted = 1 if c >= 0.5 else 0
        records.append(Record(probs=np.array([1.0 - c, c]), r=max(c, 1.0 - c),
                              predicted=predicted, g=int(g), correct=predicted == int(g)))
    return records


def _ref_bin(i, grp, edges):
    conf = acc = None
    if grp:
        conf = float(np.mean([x.r for x in grp]))
        acc = float(np.mean([x.correct for x in grp]))
    lower, upper = edges if edges else (None, None)
    return {"bin": i, "lower": lower, "upper": upper, "count": len(grp),
            "conf": conf, "acc": acc}


def ref_reliability_rows(records, scheme="equal_width", m=15) -> list[dict]:
    """Reliability-table rows, as ``BinTable.rows()`` gives them."""
    if scheme == "equal_width":
        groups = [[] for _ in range(m)]
        for rec in records:
            groups[min(max(math.ceil(rec.r * m) - 1, 0), m - 1)].append(rec)
        return [_ref_bin(i, grp, (i / m, (i + 1) / m)) for i, grp in enumerate(groups)]
    order = sorted(range(len(records)), key=lambda i: (records[i].r, i))
    base, rem = divmod(len(records), m)
    rows, pos = [], 0
    for i in range(m):
        size = base + (1 if i < rem else 0)
        rows.append(_ref_bin(i, [records[j] for j in order[pos:pos + size]], None))
        pos += size
    return rows


def ref_ece(records, m=15, scheme="equal_width") -> float:
    total = 0.0
    for b in ref_reliability_rows(records, scheme, m):
        if b["count"]:
            total += (b["count"] / len(records)) * abs(b["acc"] - b["conf"])
    return total


def ref_mce(records, m=15) -> float:
    worst = 0.0
    for b in ref_reliability_rows(records, "equal_width", m):
        if b["count"]:
            worst = max(worst, abs(b["acc"] - b["conf"]))
    return worst


def ref_oe(records, m=15) -> float:
    total = 0.0
    for b in ref_reliability_rows(records, "equal_width", m):
        if b["count"]:
            total += (b["count"] / len(records)) * (b["conf"] * max(b["conf"] - b["acc"], 0.0))
    return total


def ref_brier(records) -> float:
    total = 0.0
    for rec in records:
        onehot = np.zeros(2)
        onehot[rec.g] = 1.0
        diff = rec.probs - onehot
        total += float(diff @ diff)
    return total / len(records)


def ref_classification(records) -> dict:
    tp = sum(1 for r in records if r.g == 1 and r.predicted == 1)
    fn = sum(1 for r in records if r.g == 1 and r.predicted == 0)
    tn = sum(1 for r in records if r.g == 0 and r.predicted == 0)
    fp = sum(1 for r in records if r.g == 0 and r.predicted == 1)
    sen = tp / (tp + fn) if (tp + fn) else None
    spe = tn / (tn + fp) if (tn + fp) else None
    bacc = (sen + spe) / 2 if (sen is not None and spe is not None) else None
    return {"sensitivity": sen, "specificity": spe, "bacc": bacc}


def ref_metric_row(records, m=15) -> dict:
    """The per-record counterpart of ``harness.suite.metric_row``."""
    cls = ref_classification(records)
    return {"ece": ref_ece(records, m), "aece": ref_ece(records, m, "adaptive"),
            "oe": ref_oe(records, m), "mce": ref_mce(records, m), "bs": ref_brier(records),
            "sen": cls["sensitivity"], "spe": cls["specificity"], "bacc": cls["bacc"]}


def ref_mcnemar(records_a, records_b) -> dict:
    b = sum(1 for ra, rb in zip(records_a, records_b) if ra.correct and not rb.correct)
    c = sum(1 for ra, rb in zip(records_a, records_b) if not ra.correct and rb.correct)
    if b + c == 0:
        return {"statistic": 0.0, "p_value": 1.0, "b": 0, "c": 0}
    stat = (abs(b - c) - 1) ** 2 / (b + c)
    p = math.erfc(math.sqrt(stat / 2.0))
    return {"statistic": float(stat), "p_value": float(p), "b": b, "c": c}


def perturb(part: Subset, sigma: float, rng: np.random.Generator) -> Subset:
    """Additive Gaussian input noise; labels and recorded posteriors unchanged."""
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    if sigma == 0:
        return Subset(part.x.copy(), part.g, part.posterior)
    return Subset(part.x + rng.standard_normal(part.x.shape) * sigma, part.g, part.posterior)


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
# the reverse-mode autodiff engine
# ---------------------------------------------------------------------------
# Nodes form an acyclic computation graph; ``backward`` walks it once in
# reverse topological order and accumulates gradients into every reachable
# node that depends on a trainable leaf. Constants, and subgraphs built from
# constants alone, get no gradient and are not visited. The package trained
# through this engine until its step became one fixed backward schedule.

def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


class Node:
    """One value in the computation graph.

    ``parents`` holds the input nodes and ``_vjps`` the matching
    vector-Jacobian closures used by ``backward``. A closure returns the
    parent's gradient contribution, or None when it has added that
    contribution itself.
    ``requires_grad`` marks trainable leaves and every node computed from
    one; ``backward`` skips the rest. ``grad`` has the shape of ``value``:
    it is allocated when the first contribution arrives and reads as zeros
    before then.
    """

    __slots__ = ("value", "_grad", "op", "parents", "_vjps", "requires_grad",
                 "_backward_done")

    def __init__(self, value, op: str = "leaf", parents: tuple = (),
                 vjps: tuple = (), requires_grad: bool | None = None):
        self.value = _as_array(value)
        self._grad = None
        self.op = op
        self.parents = parents
        self._vjps = vjps
        if requires_grad is None:
            requires_grad = False
            for parent in parents:
                if parent.requires_grad:
                    requires_grad = True
                    break
        self.requires_grad = requires_grad
        self._backward_done = False

    @property
    def grad(self) -> np.ndarray:
        return np.zeros_like(self.value) if self._grad is None else self._grad

    def _accumulate(self, contribution: np.ndarray) -> None:
        self._grad = contribution if self._grad is None else self._grad + contribution

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"

    # operator sugar; plain numbers/arrays are lifted to constants
    def __add__(self, other):
        return add(self, _lift(other))

    def __radd__(self, other):
        return add(_lift(other), self)

    def __sub__(self, other):
        return add(self, neg(_lift(other)))

    def __rsub__(self, other):
        return add(_lift(other), neg(self))

    def __mul__(self, other):
        return mul(self, _lift(other))

    def __rmul__(self, other):
        return mul(_lift(other), self)

    def __neg__(self):
        return neg(self)


def constant(x) -> Node:
    """Leaf node that never receives a gradient."""
    return Node(x, op="const")


def _lift(x) -> Node:
    return x if isinstance(x, Node) else constant(x)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` back down to ``shape`` after numpy broadcasting."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _check_broadcast(a: Node, b: Node, opname: str):
    if a.value.shape == b.value.shape:
        return
    try:
        np.broadcast_shapes(a.value.shape, b.value.shape)
    except ValueError:
        raise ShapeMismatch(
            f"{opname}: shapes {a.value.shape} and {b.value.shape} do not conform"
        ) from None


def add(a: Node, b: Node) -> Node:
    _check_broadcast(a, b, "add")
    out = a.value + b.value
    return Node(out, op="add", parents=(a, b), vjps=(
        lambda g: _unbroadcast(g, a.value.shape),
        lambda g: _unbroadcast(g, b.value.shape),
    ))


def neg(a: Node) -> Node:
    return Node(-a.value, op="neg", parents=(a,), vjps=(lambda g: -g,))


def mul(a: Node, b: Node) -> Node:
    _check_broadcast(a, b, "mul")
    out = a.value * b.value
    return Node(out, op="mul", parents=(a, b), vjps=(
        lambda g: _unbroadcast(g * b.value, a.value.shape),
        lambda g: _unbroadcast(g * a.value, b.value.shape),
    ))


def _topo_order(root: Node) -> list[Node]:
    """Nodes that require a gradient, parents before children."""
    order: list[Node] = []
    seen: set[Node] = set()      # nodes hash by identity
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for parent in node.parents:
            if parent.requires_grad and parent not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Node) -> None:
    """Accumulate ``grad`` on every node reachable from ``loss`` that
    requires one.

    ``loss`` must be scalar. A second call on the same node is rejected;
    rebuild the graph (or reset gradients) between steps instead. A node
    with several children sums their contributions in reverse topological
    order, so a graph of the same shape always rounds the same way.
    """
    if loss.value.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
    if loss._backward_done:
        raise RuntimeError("backward already called on this node; rebuild the graph")
    loss._backward_done = True
    if not loss.requires_grad:
        return

    order = _topo_order(loss)
    loss._grad = np.ones_like(loss.value)
    for node in reversed(order):
        g = node._grad
        if g is None:
            continue
        for parent, vjp in zip(node.parents, node._vjps):
            if parent.requires_grad:
                contribution = vjp(g)
                if contribution is not None:
                    parent._accumulate(contribution)


# ---------------------------------------------------------------------------
# graph ops: one autodiff node per operation
# ---------------------------------------------------------------------------
# The single operations the reference graphs below are made of.

def param(x) -> Node:
    """Trainable leaf node; ``backward`` accumulates into its ``grad``."""
    return Node(x, op="param", requires_grad=True)


class ParamLeaf(Node):
    """Trainable leaf over a package :class:`Param`: its value and grad are
    the parameter's views, and ``backward`` adds into the grad in place."""

    __slots__ = ()

    def __init__(self, p: Param):
        super().__init__(p.value, op="param", requires_grad=True)
        self._grad = p.grad

    def _accumulate(self, contribution: np.ndarray) -> None:
        np.add(self._grad, contribution, out=self._grad)


def div(a: Node, b: Node) -> Node:
    _check_broadcast(a, b, "div")
    out = a.value / b.value
    return Node(out, op="div", parents=(a, b), vjps=(
        lambda g: _unbroadcast(g / b.value, a.value.shape),
        lambda g: _unbroadcast(-g * a.value / (b.value * b.value), b.value.shape),
    ))


def matmul(a: Node, b: Node) -> Node:
    if a.value.ndim != 2 or b.value.ndim != 2 or a.value.shape[1] != b.value.shape[0]:
        raise ShapeMismatch(
            f"matmul: shapes {a.value.shape} and {b.value.shape} do not conform"
        )
    out = a.value @ b.value
    return Node(out, op="matmul", parents=(a, b), vjps=(
        lambda g: g @ b.value.T,
        lambda g: a.value.T @ g,
    ))


def transpose(a: Node) -> Node:
    return Node(a.value.T, op="transpose", parents=(a,), vjps=(lambda g: g.T,))


def relu(a: Node) -> Node:
    """max(x, 0); subgradient 0 at the kink."""
    mask = a.value > 0
    return Node(np.where(mask, a.value, 0.0), op="relu", parents=(a,),
                vjps=(lambda g: g * mask,))


def absolute(a: Node) -> Node:
    """|x|; subgradient 0 at the kink."""
    sign = np.sign(a.value)
    return Node(np.abs(a.value), op="abs", parents=(a,),
                vjps=(lambda g: g * sign,))


def ref_sigmoid(x: np.ndarray) -> np.ndarray:
    """The package's former sigmoid: the two overflow-safe branches computed
    on boolean-mask gathers and scattered back."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ref_softmax(x: np.ndarray) -> np.ndarray:
    """Row softmax by reductions over the last axis, as the package computed
    the classifier head before it took the head's two columns apart."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def ref_softmax_backward(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """s * (g - <g, s>), the dot reduced over the last axis."""
    dot = (g * s).sum(axis=-1, keepdims=True)
    return s * (g - dot)


def sigmoid(a: Node) -> Node:
    s = ref_sigmoid(a.value)
    return Node(s, op="sigmoid", parents=(a,), vjps=(lambda g: g * s * (1.0 - s),))


def tanh(a: Node) -> Node:
    t = np.tanh(a.value)
    return Node(t, op="tanh", parents=(a,), vjps=(lambda g: g * (1.0 - t * t),))


def exp(a: Node) -> Node:
    e = np.exp(a.value)
    return Node(e, op="exp", parents=(a,), vjps=(lambda g: g * e,))


def log(a: Node) -> Node:
    """log with an input floor of EPS; zero gradient below the floor."""
    floored = np.maximum(a.value, EPS)
    above = a.value > EPS
    return Node(np.log(floored), op="log", parents=(a,),
                vjps=(lambda g: g * np.where(above, 1.0 / floored, 0.0),))


def power(a: Node, exponent: float) -> Node:
    """Elementwise x**q for a fixed scalar exponent.

    For q < 1 the gradient denominator is floored at EPS so the derivative
    stays finite when the base touches zero (forward values are exact).
    """
    q = float(exponent)
    out = a.value ** q
    if q < 1.0:
        def vjp(g):
            base = np.maximum(a.value, EPS)
            return g * q * base ** (q - 1.0)
    else:
        def vjp(g):
            return g * q * a.value ** (q - 1.0)
    return Node(out, op="power", parents=(a,), vjps=(vjp,))


def softmax(a: Node) -> Node:
    """Row softmax over the last axis; rows sum to 1 within 1e-12."""
    s = ref_softmax(a.value)
    return Node(s, op="softmax", parents=(a,), vjps=(lambda g: ref_softmax_backward(g, s),))


def _spread(g: np.ndarray, shape: tuple) -> np.ndarray:
    """A new array of ``shape`` holding ``g`` broadcast over it."""
    out = np.empty(shape)
    out[...] = g
    return out


def nsum(a: Node, axis: int | None = None) -> Node:
    """Sum to a scalar, or along axis 0/1 with keepdims."""
    out = a.value.sum() if axis is None else a.value.sum(axis=axis, keepdims=True)
    return Node(out, op="sum", parents=(a,),
                vjps=(lambda g: _spread(g, a.value.shape),))


def mean(a: Node) -> Node:
    n = a.value.size
    out = a.value.mean()
    return Node(out, op="mean", parents=(a,),
                vjps=(lambda g: _spread(g / n, a.value.shape),))


def maximum(a: Node, b: Node) -> Node:
    """Elementwise max via b + relu(a - b); ties take the b branch."""
    return add(b, relu(add(a, neg(b))))


def clamp(a: Node, lo: float, hi: float) -> Node:
    """Piecewise-linear clamp to [lo, hi] with unit gradient inside."""
    return constant(lo) + relu(a - lo) - relu(a - hi)


# ---------------------------------------------------------------------------
# the VAE built op by op as an autodiff graph
# ---------------------------------------------------------------------------
# The model used to train through this graph: one node per matmul, bias add,
# nonlinearity and clamp step. It is the reference that the layers of
# calibtrain.model, with their hand-written backward passes, must match
# bitwise, forward values and parameter gradients alike. The parameter leaves
# stand on the model's own parameters, so ``backward`` fills the model's
# gradient buffer.

@dataclass
class GraphForward:
    """``model.forward``'s outputs as graph nodes."""

    xhat: Node
    mu_z: Node
    logvar_z: Node
    z: Node
    probs: Node


def _graph_encode(params, x):
    h = tanh(matmul(x, params["enc.w1"]) + params["enc.b1"])
    mu = matmul(h, params["enc.w_mu"]) + params["enc.b_mu"]
    lv = clamp(matmul(h, params["enc.w_lv"]) + params["enc.b_lv"], LOGVAR_MIN, LOGVAR_MAX)
    return mu, lv


def _graph_decode(params, z):
    h = tanh(matmul(z, params["dec.w1"]) + params["dec.b1"])
    return sigmoid(matmul(h, params["dec.w2"]) + params["dec.b2"])


def _graph_classify(params, z):
    h = tanh(matmul(z, params["clf.w1"]) + params["clf.b1"])
    return softmax(matmul(h, params["clf.w2"]) + params["clf.b2"])


def graph_vae_forward(model, x, rng=None) -> GraphForward:
    """``model.forward`` as one autodiff node per operation, the latent drawn
    from ``rng``. Without an rng, the graph of the evaluation pass at z = mu,
    which ``predict_probs`` and ``encode_values`` must match."""
    params = {name: ParamLeaf(p) for name, p in model.params.items()}
    mu, lv = _graph_encode(params, constant(np.asarray(x, dtype=np.float64)))
    if rng is not None:
        eps = constant(rng.standard_normal(mu.value.shape))
        z = mu + exp(lv * 0.5) * eps
    else:
        z = mu
    return GraphForward(xhat=_graph_decode(params, z), mu_z=mu, logvar_z=lv,
                        z=z, probs=_graph_classify(params, z))


class FixedDraw:
    """Stands in for a Generator, replaying one fixed standard-normal draw.
    ``FixedDraw(0.0)`` draws zeros of any shape, which puts the training
    forward's latent z = mu + sigma * eps at its mean."""

    def __init__(self, draw):
        self.draw = np.asarray(draw, dtype=np.float64)

    def standard_normal(self, shape):
        assert self.draw.ndim == 0 or shape == self.draw.shape
        return np.broadcast_to(self.draw, shape).copy()


def latent_rng(draw: str, seed: int):
    """What a bitwise check's training forward draws its latent from: a
    seeded Generator for ``"sampled"``, and for ``"mean"`` a zero draw, where
    the latent's cotangent reaches logvar as signed zeros."""
    return np.random.default_rng(seed) if draw == "sampled" else FixedDraw(0.0)


# ---------------------------------------------------------------------------
# the loss heads built op by op as an autodiff graph
# ---------------------------------------------------------------------------
# The training losses used to be built from these graphs. They are the
# reference that the fused loss heads of calibtrain.losses and
# calibtrain.model must match bitwise, in value and in every gradient.

class GraphBatchView(BatchView):
    """A batch view whose probability columns are graph nodes, one per
    column kind, cached so that every use of a column shares its node."""

    def _col(self, key: str, mask: np.ndarray) -> Node:
        cache = self.__dict__.setdefault("_cache", {})
        if key not in cache:
            cache[key] = nsum(self.probs * constant(mask), axis=1)
        return cache[key]

    def r(self) -> Node:
        onehot = np.zeros((self.n, 2))
        onehot[np.arange(self.n), self.predicted] = 1.0
        return self._col("r", onehot)

    def prob_pos(self) -> Node:
        return self._col("pos", np.broadcast_to([0.0, 1.0], (self.n, 2)).copy())

    def prob_neg(self) -> Node:
        return self._col("neg", np.broadcast_to([1.0, 0.0], (self.n, 2)).copy())

    def true_prob(self) -> Node:
        onehot = np.zeros((self.n, 2))
        onehot[np.arange(self.n), self.labels] = 1.0
        return self._col("true", onehot)


def graph_batch_view(probs: Node, labels, epistemic_conf=None) -> GraphBatchView:
    """The package's batch view of ``probs.value``, with ``probs`` the node."""
    batch = make_batch_view(probs.value, labels, epistemic_conf)
    return GraphBatchView(probs=probs, labels=batch.labels, predicted=batch.predicted,
                          correct=batch.correct, epistemic_conf=batch.epistemic_conf)


def graph_reconstruction_loss(x, xhat: Node) -> Node:
    x = np.asarray(x, dtype=np.float64)
    xc = constant(x)
    per_entry = xc * log(xhat) + (constant(1.0 - x)) * log(constant(1.0) - xhat)
    return -mean(per_entry)


def graph_kl_loss(mu: Node, logvar: Node) -> Node:
    inner = constant(1.0) + logvar - mu * mu - exp(logvar)
    per_sample = nsum(inner, axis=1)
    n = per_sample.value.size
    return nsum(per_sample) * (-0.5 / n)


def graph_classifier_bce(batch: GraphBatchView) -> Node:
    return -mean(log(batch.true_prob()))


def graph_weighted_classifier_loss(batch: GraphBatchView, weight_floor: float) -> Node:
    weights = confidence_weights(batch, weight_floor)[:, None]
    return -mean(constant(weights) * log(batch.true_prob()))


def graph_paired_confidence_loss(batch: GraphBatchView, margin: float) -> Node:
    total: Node | None = None
    for side_prob, side_mask in ((batch.prob_pos(), batch.predicted == 1),
                                 (batch.prob_neg(), batch.predicted == 0)):
        inc = (side_mask & ~batch.correct).astype(np.float64)[:, None]
        cor = (side_mask & batch.correct).astype(np.float64)[:, None]
        n_inc = inc.sum()
        if n_inc == 0 or cor.sum() == 0:
            continue
        diff = side_prob - transpose(side_prob)          # diff[i, j] = P_i - P_j
        hinge = relu(diff + margin)
        pair_mask = constant(inc @ cor.T)                # 1 where (i inc, j cor)
        side = nsum(hinge * pair_mask) * (1.0 / n_inc)
        total = side if total is None else total + side
    return total if total is not None else constant(0.0)


def graph_probability_loss(batch: GraphBatchView) -> Node:
    pos = (batch.labels == 1).astype(np.float64)[:, None]
    neg_ = (batch.labels == 0).astype(np.float64)[:, None]
    total: Node | None = None
    if pos.sum() > 0:
        total = nsum(batch.prob_neg() * constant(pos)) * (1.0 / pos.sum())
    if neg_.sum() > 0:
        term = nsum(batch.prob_pos() * constant(neg_)) * (1.0 / neg_.sum())
        total = term if total is None else total + term
    return total if total is not None else constant(0.0)


def graph_avuc_loss(batch: GraphBatchView, threshold: float) -> Node:
    r = batch.r()
    ent = -nsum(batch.probs * log(batch.probs), axis=1)
    u = ent * (1.0 / math.log(2.0))
    tu = tanh(u)
    certain = (u.value < threshold).astype(np.float64)
    acc = batch.correct.astype(np.float64)[:, None]
    m_ac = constant(acc * certain)
    m_au = constant(acc * (1.0 - certain))
    m_ic = constant((1.0 - acc) * certain)
    m_iu = constant((1.0 - acc) * (1.0 - certain))
    one = constant(1.0)
    n_ac = nsum(m_ac * r * (one - tu))
    n_au = nsum(m_au * r * tu)
    n_ic = nsum(m_ic * (one - r) * (one - tu))
    n_iu = nsum(m_iu * (one - r) * tu)
    ratio = div(n_au + n_ic, n_ac + n_iu + EPS)
    return log(one + ratio)


def graph_soft_ece_loss(batch: GraphBatchView, n_bins: int, temperature: float,
                        norm_order: float) -> Node:
    r = batch.r()
    centers = (np.arange(n_bins) + 0.5) / n_bins
    diff = r - constant(centers[None, :])                # (n, M)
    membership = softmax(diff * diff * (-1.0 / temperature))
    acc = constant(batch.correct.astype(np.float64)[:, None])
    b = nsum(membership, axis=0)                         # (1, M) soft counts
    denom = b + EPS
    a_m = div(nsum(membership * acc, axis=0), denom)
    r_m = div(nsum(membership * r, axis=0), denom)
    weights = b * (1.0 / batch.n)
    inner = nsum(weights * power(absolute(a_m - r_m), norm_order))
    return power(inner, 1.0 / norm_order)


def graph_mmce_loss(batch: GraphBatchView, kernel_width: float) -> Node:
    r = batch.r()
    k = exp(absolute(r - transpose(r)) * (-1.0 / kernel_width))   # (n, n)
    cor = batch.correct.astype(np.float64)[:, None]
    inc = 1.0 - cor
    m = cor.sum()
    n_inc = inc.sum()
    total: Node | None = None
    if n_inc > 0:
        u = r * constant(inc)
        total = nsum(u * matmul(k, u)) * (1.0 / n_inc ** 2)
    if m > 0:
        v = (constant(1.0) - r) * constant(cor)
        term = nsum(v * matmul(k, v)) * (1.0 / m ** 2)
        total = term if total is None else total + term
    if m > 0 and n_inc > 0:
        u = r * constant(inc)
        v = (constant(1.0) - r) * constant(cor)
        total = total + nsum(v * matmul(k, u)) * (-2.0 / (m * n_inc))
    assert total is not None
    return power(relu(total), 0.5)


def graph_regularizer(batch: GraphBatchView, spec, avuc_threshold) -> Node:
    if spec.strategy == "paired_confidence":
        return graph_paired_confidence_loss(batch, spec.margin)
    if spec.strategy == "probability":
        return graph_probability_loss(batch)
    if spec.strategy == "avuc":
        return graph_avuc_loss(batch, avuc_threshold)
    if spec.strategy == "soft_ece":
        return graph_soft_ece_loss(batch, BINS, spec.temperature, SOFT_ECE_NORM_ORDER)
    return graph_mmce_loss(batch, MMCE_KERNEL_WIDTH)


def graph_total_loss(x, result: GraphForward, labels, spec, epistemic_conf=None,
                     avuc_threshold=1.0):
    """``losses.total_loss`` as one autodiff node per operation."""
    batch = graph_batch_view(result.probs, labels, epistemic_conf)
    loss = graph_reconstruction_loss(x, result.xhat)
    if spec.lambda_kl != 0.0:
        loss = loss + graph_kl_loss(result.mu_z, result.logvar_z) * spec.lambda_kl
    if spec.lambda_c != 0.0:
        if spec.strategy == "confidence_weight":
            loss = loss + graph_weighted_classifier_loss(batch, spec.weight_floor) * spec.lambda_c
        else:
            loss = loss + graph_classifier_bce(batch) * spec.lambda_c
    if spec.strategy not in ("baseline", "confidence_weight") and spec.lambda_n != 0.0:
        loss = loss + graph_regularizer(batch, spec, avuc_threshold) * spec.lambda_n
    return loss, batch
