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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import (
    Node,
    ParamSet,
    _sigmoid_values,
    _softmax_values,
    backward,
    clamp,
    constant,
    exp,
    log,
    mean,
    nsum,
    sigmoid,
    softmax,
    tanh,
)

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0


class NonFiniteActivation(RuntimeError):
    pass


def _check_finite(name: str, values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise NonFiniteActivation(f"non-finite values in layer {name!r}")


@dataclass
class ForwardResult:
    xhat: Node
    mu_z: Node
    logvar_z: Node
    z: Node
    probs: Node


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

    # -- graph path (training) ------------------------------------------

    def encode(self, x: Node) -> tuple[Node, Node]:
        p = self.params
        h = tanh(x @ p["enc.w1"] + p["enc.b1"])
        _check_finite("enc.hidden", h.value)
        mu = h @ p["enc.w_mu"] + p["enc.b_mu"]
        _check_finite("enc.mu", mu.value)
        lv = clamp(h @ p["enc.w_lv"] + p["enc.b_lv"], LOGVAR_MIN, LOGVAR_MAX)
        _check_finite("enc.logvar", lv.value)
        return mu, lv

    def decode(self, z: Node) -> Node:
        p = self.params
        h = tanh(z @ p["dec.w1"] + p["dec.b1"])
        _check_finite("dec.hidden", h.value)
        xhat = sigmoid(h @ p["dec.w2"] + p["dec.b2"])
        _check_finite("dec.out", xhat.value)
        return xhat

    def classify(self, z: Node) -> Node:
        p = self.params
        h = tanh(z @ p["clf.w1"] + p["clf.b1"])
        _check_finite("clf.hidden", h.value)
        probs = softmax(h @ p["clf.w2"] + p["clf.b2"])
        _check_finite("clf.out", probs.value)
        return probs

    def forward(self, x: np.ndarray, rng: np.random.Generator | None = None,
                sample_latent: bool = False) -> ForwardResult:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ValueError(f"expected input of shape (n, {self.d}), got {x.shape}")
        xn = constant(x)
        mu, lv = self.encode(xn)
        if sample_latent:
            if rng is None:
                raise ValueError("sample_latent=True requires an rng")
            eps = constant(rng.standard_normal(mu.value.shape))
            z = mu + exp(lv * 0.5) * eps
        else:
            z = mu
        xhat = self.decode(z)
        probs = self.classify(z)
        return ForwardResult(xhat=xhat, mu_z=mu, logvar_z=lv, z=z, probs=probs)

    # -- numpy path (evaluation / sampling) ------------------------------
    # Mirrors the graph expressions op for op so values agree bitwise.

    def encode_values(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        p = self.params
        h = np.tanh(x @ p["enc.w1"].value + p["enc.b1"].value)
        _check_finite("enc.hidden", h)
        mu = h @ p["enc.w_mu"].value + p["enc.b_mu"].value
        raw = h @ p["enc.w_lv"].value + p["enc.b_lv"].value
        lv = (LOGVAR_MIN + np.maximum(raw - LOGVAR_MIN, 0.0)
              - np.maximum(raw - LOGVAR_MAX, 0.0))
        _check_finite("enc.logvar", lv)
        return mu, lv

    def classify_values(self, z: np.ndarray) -> np.ndarray:
        p = self.params
        h = np.tanh(z @ p["clf.w1"].value + p["clf.b1"].value)
        _check_finite("clf.hidden", h)
        probs = _softmax_values(h @ p["clf.w2"].value + p["clf.b2"].value)
        _check_finite("clf.out", probs)
        return probs

    def decode_values(self, z: np.ndarray) -> np.ndarray:
        p = self.params
        h = np.tanh(z @ p["dec.w1"].value + p["dec.b1"].value)
        _check_finite("dec.hidden", h)
        xhat = _sigmoid_values(h @ p["dec.w2"].value + p["dec.b2"].value)
        _check_finite("dec.out", xhat)
        return xhat

    def predict_probs(self, x: np.ndarray) -> np.ndarray:
        """Deterministic class probabilities (z = mu), shape (n, 2)."""
        x = np.asarray(x, dtype=np.float64)
        mu, _ = self.encode_values(x)
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
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    blob = np.concatenate([model.params[n].value.ravel() for n in order])
    (out / "params.bin").write_bytes(blob.astype("<f8").tobytes())


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
