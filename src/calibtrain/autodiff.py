"""Minimal reverse-mode automatic differentiation over dense float64 arrays.

Nodes form an acyclic computation graph; ``backward`` walks it once in
reverse topological order and accumulates gradients into every reachable
node that depends on a trainable leaf. Constants, and subgraphs built from
constants alone, get no gradient and are not visited. Everything is float64
and single-threaded, so identical seeds give bitwise-identical trajectories.

A training step is made of fused nodes: each VAE layer (``model``) and each
loss term (``losses``) is one node that computes its value in numpy and has
a hand-written vector-Jacobian product. The graph keeps only the points where
cotangents meet (the layer outputs, the class probabilities), so ``backward``
sums them in a fixed order. The engine itself provides only broadcast add,
negation and multiplication, with operator sugar, to combine nodes.

Trainable values live in a :class:`ParamSet`: one contiguous float64 buffer
with a named view per parameter, and a gradient buffer of the same layout,
so :class:`Adam` updates every parameter with a handful of vector ops.
"""

from __future__ import annotations

from typing import Iterator

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
    contribution itself: fused layers write into a parameter buffer, and a
    fused loss term that feeds one parent several times adds each part in
    turn, in the order the op-by-op graph of that term would.
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
