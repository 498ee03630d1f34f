"""Fully connected VAE with a latent-space classifier head.

Three heads share one latent code: the encoder maps a feature vector to a
diagonal Gaussian (mu, logvar), the decoder reconstructs the (min-max scaled)
input from a latent sample through a sigmoid, and the classifier maps the
latent to two softmax probabilities. Evaluation-time point predictions use
the deterministic latent z = mu; sampling is reserved for training and for
uncertainty estimation.

Class probability columns follow the label encoding: column 0 is P(g=0),
column 1 is P(g=1), so probs[:, g] reads off the true-class probability and
argmax over columns is the predicted label.

The layers are plain numpy, and each layer's forward arithmetic exists once:
training (``forward``) and evaluation (``predict_probs``, ``encode_values``,
``classify_values``) call the same functions. ``forward`` keeps the
activations the backward pass needs and returns autodiff nodes for the loss
head to build on, one fused node per layer: encoder hidden, mu, logvar,
latent sample, decoder and classifier. Each has a hand-written backward pass
that writes its parameter gradients straight into the flat gradient buffer.
The backward passes repeat, operand for operand, what an autodiff graph with
one node per matmul, bias add and nonlinearity would compute, and the
fusion keeps the points where cotangents meet (mu, logvar, the hidden layer,
z) as graph nodes, so the engine sums them in the same order as that graph.
The gradients are therefore bitwise those of the op-by-op graph, which the
tests keep as the reference.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import (
    Node,
    Param,
    ParamSet,
    _sigmoid_values,
    _softmax_values,
    constant,
    exp,
    log,
    mean,
    nsum,
)

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0


class NonFiniteActivation(RuntimeError):
    pass


def _check_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteActivation(f"non-finite values in layer {name!r}")


@dataclass
class ForwardResult:
    xhat: Node
    mu_z: Node
    logvar_z: Node
    z: Node
    probs: Node


# ---------------------------------------------------------------------------
# layers: forward arithmetic and hand-written backward passes
# ---------------------------------------------------------------------------

def _affine(a: np.ndarray, w: Param, b: Param) -> np.ndarray:
    return a @ w.value + b.value


def _tanh_affine(a: np.ndarray, w: Param, b: Param, name: str) -> np.ndarray:
    h = np.tanh(_affine(a, w, b))
    _check_finite(name, h)
    return h


def _clamp_logvar(raw: np.ndarray) -> np.ndarray:
    """Piecewise-linear clamp to [LOGVAR_MIN, LOGVAR_MAX], unit slope inside."""
    return (LOGVAR_MIN + np.maximum(raw - LOGVAR_MIN, 0.0)
            - np.maximum(raw - LOGVAR_MAX, 0.0))


def _affine_backward(g: np.ndarray, a: np.ndarray, w: Param, b: Param,
                     to_input: bool = True) -> np.ndarray | None:
    """Accumulate the gradients of ``a @ w + b``; return the input's cotangent."""
    b._accumulate(g.sum(axis=0))
    w._accumulate(a.T @ g)
    return g @ w.value.T if to_input else None


def _tanh_backward(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    return g * (1.0 - t * t)


def _layer_node(op: str, value: np.ndarray, params: ParamSet, inp: Node | None,
                backward) -> Node:
    """Graph node for one fused layer reading ``inp`` (None for the input
    features, which get no node). ``backward(g)`` accumulates the layer's
    parameter gradients and returns the cotangent of ``inp``; it runs once,
    at whichever of the node's two edges ``backward`` walks first."""
    done = []

    def run(g):
        if not done:
            done.append(backward(g))
        return done[0]

    def to_params(g):
        run(g)
        return None

    if inp is None:
        return Node(value, op=op, parents=(params.node,), vjps=(to_params,))
    return Node(value, op=op, parents=(inp, params.node), vjps=(run, to_params))


class VaeClassifier:
    """Encoder x -> hidden -> (mu, logvar); decoder and classifier read z.

    The classifier output layer starts at zero so an untrained model emits
    exactly [0.5, 0.5]; everything else gets Glorot-scaled normal draws from
    substream (seed, 0).
    """

    def __init__(self, d: int, hidden: int = 32, latent: int = 8, seed: int = 0):
        if d < 1 or hidden < 1 or latent < 1:
            raise ValueError(f"dims must be positive, got d={d} hidden={hidden} latent={latent}")
        self.d = int(d)
        self.hidden = int(hidden)
        self.latent = int(latent)
        self.seed = int(seed)
        rng = np.random.default_rng((seed, 0))

        def glorot(fan_in, fan_out):
            scale = np.sqrt(2.0 / (fan_in + fan_out))
            return rng.standard_normal((fan_in, fan_out)) * scale

        p = ParamSet()
        p.add("enc.w1", glorot(d, hidden))
        p.add("enc.b1", np.zeros(hidden))
        p.add("enc.w_mu", glorot(hidden, latent))
        p.add("enc.b_mu", np.zeros(latent))
        p.add("enc.w_lv", glorot(hidden, latent))
        p.add("enc.b_lv", np.zeros(latent))
        p.add("dec.w1", glorot(latent, hidden))
        p.add("dec.b1", np.zeros(hidden))
        p.add("dec.w2", glorot(hidden, d))
        p.add("dec.b2", np.zeros(d))
        p.add("clf.w1", glorot(latent, hidden))
        p.add("clf.b1", np.zeros(hidden))
        p.add("clf.w2", np.zeros((hidden, 2)))
        p.add("clf.b2", np.zeros(2))
        self.params = p

    # -- layer stacks -------------------------------------------------------

    def _encode(self, x: np.ndarray):
        """Hidden layer, mu, and logvar before and after the clamp."""
        p = self.params
        h = _tanh_affine(x, p["enc.w1"], p["enc.b1"], "enc.hidden")
        mu = _affine(h, p["enc.w_mu"], p["enc.b_mu"])
        _check_finite("enc.mu", mu)
        raw = _affine(h, p["enc.w_lv"], p["enc.b_lv"])
        lv = _clamp_logvar(raw)
        _check_finite("enc.logvar", lv)
        return h, mu, raw, lv

    def _decode(self, z: np.ndarray):
        p = self.params
        h = _tanh_affine(z, p["dec.w1"], p["dec.b1"], "dec.hidden")
        xhat = _sigmoid_values(_affine(h, p["dec.w2"], p["dec.b2"]))
        _check_finite("dec.out", xhat)
        return h, xhat

    def _classify(self, z: np.ndarray):
        p = self.params
        h = _tanh_affine(z, p["clf.w1"], p["clf.b1"], "clf.hidden")
        probs = _softmax_values(_affine(h, p["clf.w2"], p["clf.b2"]))
        _check_finite("clf.out", probs)
        return h, probs

    # -- training -----------------------------------------------------------

    def forward(self, x: np.ndarray, rng: np.random.Generator | None = None,
                sample_latent: bool = False) -> ForwardResult:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ValueError(f"expected input of shape (n, {self.d}), got {x.shape}")
        if sample_latent and rng is None:
            raise ValueError("sample_latent=True requires an rng")
        p = self.params

        h, mu, raw, lv = self._encode(x)
        h_node = _layer_node("enc.hidden", h, p, None, lambda g: _affine_backward(
            _tanh_backward(g, h), x, p["enc.w1"], p["enc.b1"], to_input=False))
        mu_node = _layer_node("enc.mu", mu, p, h_node, lambda g: _affine_backward(
            g, h, p["enc.w_mu"], p["enc.b_mu"]))
        # raw > bound has the sign of raw - bound: the difference is exact
        # near the bound (Sterbenz), so these are the clamp's relu masks
        above_min, above_max = raw > LOGVAR_MIN, raw > LOGVAR_MAX
        lv_node = _layer_node("enc.logvar", lv, p, h_node, lambda g: _affine_backward(
            g * above_min + (-g) * above_max, h, p["enc.w_lv"], p["enc.b_lv"]))

        if sample_latent:
            eps = rng.standard_normal(mu.shape)
            sigma = np.exp(lv * 0.5)
            z = mu + sigma * eps
            z_node = Node(z, op="latent", parents=(mu_node, lv_node),
                          vjps=(lambda g: g, lambda g: g * eps * sigma * 0.5))
        else:
            z, z_node = mu, mu_node

        hd, xhat = self._decode(z)

        def decoder_backward(g):
            g_hd = _affine_backward(g * xhat * (1.0 - xhat), hd, p["dec.w2"], p["dec.b2"])
            return _affine_backward(_tanh_backward(g_hd, hd), z, p["dec.w1"], p["dec.b1"])

        hc, probs = self._classify(z)

        def classifier_backward(g):
            dot = (g * probs).sum(axis=-1, keepdims=True)
            g_hc = _affine_backward(probs * (g - dot), hc, p["clf.w2"], p["clf.b2"])
            return _affine_backward(_tanh_backward(g_hc, hc), z, p["clf.w1"], p["clf.b1"])

        return ForwardResult(
            xhat=_layer_node("decoder", xhat, p, z_node, decoder_backward),
            mu_z=mu_node, logvar_z=lv_node, z=z_node,
            probs=_layer_node("classifier", probs, p, z_node, classifier_backward))

    # -- evaluation / sampling ----------------------------------------------

    def encode_values(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        _, mu, _, lv = self._encode(x)
        return mu, lv

    def classify_values(self, z: np.ndarray) -> np.ndarray:
        return self._classify(z)[1]

    def predict_probs(self, x: np.ndarray) -> np.ndarray:
        """Deterministic class probabilities (z = mu), shape (n, 2)."""
        mu, _ = self.encode_values(np.asarray(x, dtype=np.float64))
        return self.classify_values(mu)


# ---------------------------------------------------------------------------
# losses on the VAE heads
# ---------------------------------------------------------------------------

def reconstruction_loss(x: np.ndarray, xhat: Node) -> Node:
    """Mean per-coordinate binary cross-entropy against targets in [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != xhat.value.shape:
        raise ValueError(f"target shape {x.shape} != reconstruction shape {xhat.value.shape}")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValueError("reconstruction targets must lie in [0, 1]; scale features first")
    xc = constant(x)
    per_entry = xc * log(xhat) + (constant(1.0 - x)) * log(constant(1.0) - xhat)
    return -mean(per_entry)


def kl_loss(mu: Node, logvar: Node) -> Node:
    """KL(q(z|x) || N(0, I)), summed over latent dims, averaged over the batch."""
    inner = constant(1.0) + logvar - mu * mu - exp(logvar)
    per_sample = nsum(inner, axis=1)
    n = per_sample.value.size
    return nsum(per_sample) * (-0.5 / n)


# ---------------------------------------------------------------------------
# checkpoints: JSON manifest + little-endian float64 blob
# ---------------------------------------------------------------------------

def _write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` beside ``path``, flush it to disk, then rename it into
    place, so a crash leaves the old file or the new one, never a mix."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(model: VaeClassifier, out_dir: str | Path, epoch: int,
                    extra: dict | None = None) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    order = model.params.names()
    manifest = {
        "dims": {"d": model.d, "hidden": model.hidden, "latent": model.latent},
        "epoch": int(epoch),
        "seed": model.seed,
        "param_order": order,
        "param_shapes": {n: list(model.params[n].value.shape) for n in order},
    }
    if extra:
        manifest["extra"] = extra
    # the blob is the parameter buffer itself, in param_order; it goes first,
    # so a manifest never describes a blob that is not yet in place
    _write_atomic(out / "params.bin", model.params.flat.astype("<f8").tobytes())
    _write_atomic(out / "manifest.json",
                  (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def load_checkpoint(in_dir: str | Path) -> tuple[VaeClassifier, dict]:
    src = Path(in_dir)
    manifest = json.loads((src / "manifest.json").read_text())
    dims = manifest["dims"]
    model = VaeClassifier(d=dims["d"], hidden=dims["hidden"], latent=dims["latent"],
                          seed=manifest["seed"])
    shapes = [tuple(manifest["param_shapes"][name]) for name in manifest["param_order"]]
    expected = sum(int(np.prod(shape)) for shape in shapes)
    raw = (src / "params.bin").read_bytes()
    if len(raw) != 8 * expected:
        raise ValueError(f"parameter blob {src / 'params.bin'} holds {len(raw) / 8:g} "
                         f"float64 values, manifest declares {expected}")
    flat = np.frombuffer(raw, dtype="<f8")
    values = {}
    pos = 0
    for name, shape in zip(manifest["param_order"], shapes):
        size = int(np.prod(shape))
        values[name] = flat[pos:pos + size].reshape(shape).copy()
        pos += size
    model.params.load_values(values)
    return model, manifest
