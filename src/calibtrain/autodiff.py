"""Trainable parameters, the optimiser, and the entry point of the backward pass.

A training step has one fixed backward schedule: ``losses.total_loss``
returns a :class:`~calibtrain.losses.Loss` that knows which terms it holds,
and :func:`backward` runs its schedule once. The schedule applies each loss
term's and each VAE layer's hand-written vector-Jacobian product in a fixed
order and adds the results into the parameter gradients. Everything is
float64 and single-threaded, so identical seeds give bitwise-identical
trajectories.

Trainable values live in a :class:`ParamSet`, laid out once from one ordered
mapping: one contiguous float64 buffer with a named view per parameter, and a
gradient buffer of the same layout, so :class:`Adam` updates every parameter
with a handful of vector ops.
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
    buffer; assigning ``value`` copies into its view, and ``grad`` cannot
    be assigned."""

    __slots__ = ("_value", "_grad")

    def __init__(self, value: np.ndarray, grad: np.ndarray):
        self._value = value
        self._grad = grad

    @property
    def value(self) -> np.ndarray:
        return self._value

    @value.setter
    def value(self, new) -> None:
        new = _as_array(new)
        if new.shape != self._value.shape:
            raise ShapeMismatch(f"parameter value of shape {new.shape} for a parameter "
                                f"of shape {self._value.shape}")
        self._value[...] = new

    @property
    def grad(self) -> np.ndarray:
        return self._grad


class ParamSet:
    """Named trainable arrays, laid out once, in the order of one mapping.

    ``ParamSet(values)`` concatenates the mapping's arrays into one
    contiguous float64 buffer, ``flat``, and makes each name's views once;
    gradients live in ``grad``, with the same layout. The layers' backward
    passes add their parameter gradients straight into ``grad``.
    """

    def __init__(self, values: dict[str, np.ndarray]):
        arrays = {name: _as_array(value) for name, value in values.items()}
        self.flat = np.concatenate([a.ravel() for a in arrays.values()])
        self.grad = np.zeros_like(self.flat)
        self._params: dict[str, Param] = {}
        self._slices: dict[str, slice] = {}
        start = 0
        for name, a in arrays.items():
            span = self._slices[name] = slice(start, start + a.size)
            self._params[name] = Param(self.flat[span].reshape(a.shape),
                                       self.grad[span].reshape(a.shape))
            start = span.stop

    def __getitem__(self, name: str) -> Param:
        return self._params[name]

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
        return {k: flat[span].reshape(self._params[k].value.shape)
                for k, span in self._slices.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for k, param in self._params.items():
            src = np.asarray(values[k], dtype=np.float64)
            if src.shape != param.value.shape:
                raise ShapeMismatch(
                    f"parameter {k!r}: stored shape {src.shape} vs model shape {param.value.shape}"
                )
            param.value[...] = src
        self.zero_grad()


BETA1, BETA2, EPS = 0.9, 0.999, 1e-8   # Adam's moment decays and denominator floor


class Adam:
    """Adam update (``BETA1``, ``BETA2``, ``EPS``); zeroes grads after a step.

    ``lr_overrides`` maps parameter-name prefixes to rates; the longest
    matching prefix wins, so heads of one model can train at different speeds.
    The moments and the per-element rates span the whole parameter buffer,
    and every operation is elementwise, so one vector update gives the same
    bits as updating each parameter on its own.
    """

    def __init__(self, params: ParamSet, lr: float = 1e-3,
                 lr_overrides: dict[str, float] | None = None):
        self.params = params
        self.lr = float(lr)
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
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - BETA2 ** self.t
        m, v = self._m, self._v
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        self.params.flat -= self._rates * m_hat / (np.sqrt(v_hat) + EPS)
        self.params.zero_grad()
