"""Trainable parameters, the optimiser, and the entry point of the backward pass.

A training step has one fixed backward schedule: ``losses.total_loss``
returns a :class:`~calibtrain.losses.Loss` that knows which terms it holds,
and :func:`backward` runs its schedule once. The schedule applies each loss
term's and each VAE layer's hand-written vector-Jacobian product in a fixed
order and adds the results into the parameter gradients. Everything is
float64 and single-threaded, so identical seeds give bitwise-identical
trajectories.

Trainable values live in a :class:`ParamSet`: one contiguous float64 buffer
with a named view per parameter, and a gradient buffer of the same layout,
so :class:`Adam` updates every parameter with a handful of vector ops.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


class ShapeMismatch(ValueError):
    """Operand shapes do not conform for the requested operation."""


class NonFiniteGradient(RuntimeError):
    """A parameter gradient contains NaN or inf; carries the parameter name."""


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def backward(loss) -> None:
    """Add the gradient of ``loss`` into every parameter's ``grad``.

    ``loss`` is the loss object ``losses.total_loss`` returns. A second call
    on the same loss is rejected; compute the loss again for the next step.
    """
    if loss.backward_done:
        raise RuntimeError("backward already called on this loss; compute it again")
    loss.backward_done = True
    loss.schedule()


# ---------------------------------------------------------------------------
# parameters and the optimiser
# ---------------------------------------------------------------------------

class Param:
    """A trainable array whose ``value`` and ``grad`` are views into its
    :class:`ParamSet`'s buffers. In-place writes to either reach the
    buffer; assigning either copies into the view."""

    __slots__ = ("_value", "_grad")

    def __init__(self, value: np.ndarray, grad: np.ndarray):
        self._value = value
        self._grad = grad

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


def _conforming(new, shape: tuple, what: str) -> np.ndarray:
    new = _as_array(new)
    if new.shape != shape:
        raise ShapeMismatch(f"parameter {what} of shape {new.shape} for a parameter "
                            f"of shape {shape}")
    return new


class ParamSet:
    """Named trainable arrays with deterministic iteration order.

    Values live in one contiguous float64 buffer, ``flat``, in insertion
    order; gradients in ``grad``, with the same layout. The layers' backward
    passes add their parameter gradients straight into ``grad``. Adding a
    parameter reallocates both buffers, so build the optimiser last.
    """

    def __init__(self):
        self._params: dict[str, Param] = {}
        self._slices: dict[str, slice] = {}
        self._shapes: dict[str, tuple] = {}
        self.flat = np.zeros(0)
        self.grad = np.zeros(0)

    def add(self, name: str, value) -> Param:
        if name in self._params:
            raise ValueError(f"duplicate parameter name {name!r}")
        value = _as_array(value)
        start = self.flat.size
        self._slices[name] = slice(start, start + value.size)
        self._shapes[name] = value.shape
        self.flat = np.concatenate([self.flat, value.ravel()])
        self.grad = np.concatenate([self.grad, np.zeros(value.size)])
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
        for k, param in self._params.items():
            src = np.asarray(values[k], dtype=np.float64)
            if src.shape != param.value.shape:
                raise ShapeMismatch(
                    f"parameter {k!r}: stored shape {src.shape} vs model shape {param.value.shape}"
                )
            param.value[...] = src
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
