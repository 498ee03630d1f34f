"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Nodes form an acyclic computation graph; ``backward`` walks it once in
reverse topological order and accumulates gradients into every reachable
node that depends on a trainable leaf. Constants, and subgraphs built from
constants alone, get no gradient and are not visited. Only the operations
needed by the training losses are provided: matmul, broadcast add/mul/div,
relu (max with zero), sigmoid, tanh, exp, floored log, row softmax,
sum/mean, absolute value, scalar power and transpose. Everything is float64
and single-threaded, so identical seeds give bitwise-identical trajectories.

Trainable values live in a :class:`ParamSet`: one contiguous float64 buffer
with a named view per parameter, and a gradient buffer of the same layout,
so :class:`Adam` updates every parameter with a handful of vector ops.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

EPS = 1e-12


class ShapeMismatch(ValueError):
    """Operand shapes do not conform for the requested operation."""


class NonFiniteGradient(RuntimeError):
    """A parameter gradient contains NaN or inf; carries the parameter name."""


def _as_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    return a


class Node:
    """One value in the computation graph.

    ``parents`` holds the input nodes and ``_vjps`` the matching
    vector-Jacobian closures used by ``backward``. A closure returns the
    parent's gradient contribution, or None when it has written that
    contribution itself (fused layers write into a parameter buffer).
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

    def __truediv__(self, other):
        return div(self, _lift(other))

    def __rtruediv__(self, other):
        return div(_lift(other), self)

    def __matmul__(self, other):
        return matmul(self, _lift(other))

    def __rmatmul__(self, other):
        return matmul(_lift(other), self)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __neg__(self):
        return neg(self)


def constant(x) -> Node:
    """Leaf node that never receives a gradient."""
    return Node(x, op="const")


def param(x) -> Node:
    """Trainable leaf node; ``backward`` accumulates into its ``grad``."""
    return Node(x, op="param", requires_grad=True)


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


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# elementwise nonlinearities
# ---------------------------------------------------------------------------

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


def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a: Node) -> Node:
    s = _sigmoid_values(a.value)
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


def _softmax_values(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a: Node) -> Node:
    """Row softmax over the last axis; rows sum to 1 within 1e-12."""
    s = _softmax_values(a.value)

    def vjp(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return s * (g - dot)

    return Node(s, op="softmax", parents=(a,), vjps=(vjp,))


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

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
# backward
# ---------------------------------------------------------------------------

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
# parameters and the optimiser
# ---------------------------------------------------------------------------

class Param(Node):
    """A trainable leaf whose ``value`` and ``grad`` are views into its
    :class:`ParamSet`'s buffers. In-place writes to either reach the
    buffer; assigning either copies into the view."""

    __slots__ = ("_value",)

    def __init__(self, value: np.ndarray, grad: np.ndarray):
        self._value = value
        self._grad = grad
        self.op = "param"
        self.parents = ()
        self._vjps = ()
        self.requires_grad = True
        self._backward_done = False

    @property
    def value(self) -> np.ndarray:
        return self._value

    @value.setter
    def value(self, new) -> None:
        self._value[...] = _conforming(new, self._value.shape, "value")

    @property
    def grad(self) -> np.ndarray:
        return self._grad

    @grad.setter
    def grad(self, new) -> None:
        self._grad[...] = _conforming(new, self._grad.shape, "grad")

    def _accumulate(self, contribution: np.ndarray) -> None:
        np.add(self._grad, contribution, out=self._grad)


def _conforming(new, shape: tuple, what: str) -> np.ndarray:
    new = _as_array(new)
    if new.shape != shape:
        raise ShapeMismatch(f"parameter {what} of shape {new.shape} for a parameter "
                            f"of shape {shape}")
    return new


class ParamSet:
    """Named trainable arrays with deterministic iteration order.

    Values live in one contiguous float64 buffer, ``flat``, in insertion
    order; gradients in ``grad``, with the same layout. ``node`` is a graph
    leaf standing for the whole set: a fused layer names it as a parent and
    writes its parameter gradients straight into ``grad``. Adding a
    parameter reallocates both buffers, so build the optimiser last.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}
        self._slices: dict[str, slice] = {}
        self._shapes: dict[str, tuple] = {}
        self.flat = np.zeros(0)
        self.grad = np.zeros(0)
        self.node = Node(self.flat, op="params", requires_grad=True)

    def add(self, name: str, value) -> Param:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        value = _as_array(value)
        start = self.flat.size
        self._slices[name] = slice(start, start + value.size)
        self._shapes[name] = value.shape
        self.flat = np.concatenate([self.flat, value.ravel()])
        self.grad = np.concatenate([self.grad, np.zeros(value.size)])
        self.node = Node(self.flat, op="params", requires_grad=True)
        for key, span in self._slices.items():
            shape = self._shapes[key]
            views = self.flat[span].reshape(shape), self.grad[span].reshape(shape)
            if key in self._params:
                self._params[key]._value, self._params[key]._grad = views
            else:
                self._params[key] = Param(*views)
        return self._params[name]

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self) -> Iterator[tuple[str, Param]]:
        return iter(self._params.items())

    def slices(self) -> Iterator[tuple[str, slice]]:
        """Each parameter's span of ``flat`` and ``grad``."""
        return iter(self._slices.items())

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def copy_values(self) -> dict[str, np.ndarray]:
        """A snapshot: views into one copy of the value buffer."""
        flat = self.flat.copy()
        return {k: flat[span].reshape(self._shapes[k]) for k, span in self._slices.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for k, node in self._params.items():
            src = np.asarray(values[k], dtype=np.float64)
            if src.shape != node.value.shape:
                raise ShapeMismatch(
                    f"parameter {k!r}: stored shape {src.shape} vs model shape {node.value.shape}"
                )
            node.value[...] = src
        self.zero_grad()


class Adam:
    """Adam update (beta1=0.9, beta2=0.999, eps=1e-8); zeroes grads after a step.

    ``lr_overrides`` maps parameter-name prefixes to rates; the longest
    matching prefix wins, so heads of one model can train at different speeds.
    The moments and the per-element rates span the whole parameter buffer,
    and every operation is elementwise, so one vector update gives the same
    bits as updating each parameter on its own.
    """

    def __init__(self, params: ParamSet, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8,
                 lr_overrides: dict[str, float] | None = None):
        self.params = params
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.lr_overrides = dict(lr_overrides or {})
        self.t = 0
        self._m = np.zeros_like(params.flat)
        self._v = np.zeros_like(params.flat)
        self._rates = np.empty_like(params.flat)
        for name, span in params.slices():
            self._rates[span] = self._rate(name)

    def _rate(self, name: str) -> float:
        best, rate = -1, self.lr
        for prefix, lr in self.lr_overrides.items():
            if name.startswith(prefix) and len(prefix) > best:
                best, rate = len(prefix), lr
        return rate

    def step(self) -> None:
        g = self.params.grad
        finite = np.isfinite(g)
        if not finite.all():
            bad = int(np.argmin(finite))
            name = next(k for k, span in self.params.slices() if span.start <= bad < span.stop)
            raise NonFiniteGradient(f"non-finite gradient in parameter {name!r}")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        m, v = self._m, self._v
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        self.params.flat -= self._rates * m_hat / (np.sqrt(v_hat) + self.eps)
        self.params.zero_grad()
