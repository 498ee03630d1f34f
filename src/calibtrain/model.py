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
``classify_values``) call the same functions. ``forward`` returns plain
arrays and keeps the activations the backward pass reads. ``backward`` takes
the cotangents a loss hands the reconstruction, the class probabilities and
the latent moments, applies each layer's hand-written vector-Jacobian
product in one fixed order, and adds the parameter gradients straight into
the flat gradient buffer. The products repeat, operand for operand, what an
autodiff graph with one node per matmul, bias add and nonlinearity would
compute, and where cotangents meet (mu, logvar, the hidden layer, z) they
are summed in that graph's order. The gradients are therefore bitwise those
of the op-by-op graph, which the tests keep as the reference.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import Param, ParamSet

LOGVAR_MIN = -10.0
LOGVAR_MAX = 10.0


class NonFiniteActivation(RuntimeError):
    pass


def _check_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise NonFiniteActivation(f"non-finite values in layer {name!r}")


@dataclass
class ForwardResult:
    """One training forward pass: the outputs a loss reads, then the
    activations ``VaeClassifier.backward`` reads."""

    xhat: np.ndarray
    mu_z: np.ndarray
    logvar_z: np.ndarray
    z: np.ndarray
    probs: np.ndarray
    model: VaeClassifier = field(repr=False)
    x: np.ndarray = field(repr=False)
    h_enc: np.ndarray = field(repr=False)
    raw_logvar: np.ndarray = field(repr=False)   # before the clamp
    eps: np.ndarray | None = field(repr=False)   # the latent draw; None when z is mu
    sigma: np.ndarray | None = field(repr=False)
    h_dec: np.ndarray = field(repr=False)
    h_clf: np.ndarray = field(repr=False)


# ---------------------------------------------------------------------------
# layers: forward arithmetic and hand-written backward passes
# ---------------------------------------------------------------------------

def _sigmoid_values(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, from one
    exp(-|x|), so neither branch can overflow."""
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def _binary_softmax(x: np.ndarray) -> np.ndarray:
    """Row softmax of an (n, 2) array, from its two columns: the bits of
    the max-shifted softmax reduced over the last axis, without reductions
    over a 2-wide axis."""
    e = np.exp(x - np.maximum(x[:, :1], x[:, 1:]))
    return e / (e[:, :1] + e[:, 1:])


def _binary_softmax_backward(g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The cotangent of ``_binary_softmax``'s input, s * (g - <g, s>). The
    dot adds the two columns to +0.0, as numpy's sum does, so two -0.0
    products give +0.0, the bits ``(g * s).sum(axis=-1)`` gives."""
    dot = (0.0 + g[:, :1] * s[:, :1]) + g[:, 1:] * s[:, 1:]
    return s * (g - dot)


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
    """Add the gradients of ``a @ w + b`` into the parameters' ``grad``;
    return the input's cotangent."""
    np.add(b.grad, g.sum(axis=0), out=b.grad)
    np.add(w.grad, a.T @ g, out=w.grad)
    return g @ w.value.T if to_input else None


def _tanh_backward(g: np.ndarray, t: np.ndarray) -> np.ndarray:
    return g * (1.0 - t * t)


def _in_order(parts) -> np.ndarray | None:
    """((p0 + p1) + p2) + ...: cotangents summed left to right, as an
    autodiff graph sums them where they meet. None parts are skipped, and
    no parts give None."""
    total = None
    for part in parts:
        if part is not None:
            total = part if total is None else total + part
    return total


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

        # a dict literal is evaluated left to right, so the draws keep this order
        self.params = ParamSet({
            "enc.w1": glorot(d, hidden),
            "enc.b1": np.zeros(hidden),
            "enc.w_mu": glorot(hidden, latent),
            "enc.b_mu": np.zeros(latent),
            "enc.w_lv": glorot(hidden, latent),
            "enc.b_lv": np.zeros(latent),
            "dec.w1": glorot(latent, hidden),
            "dec.b1": np.zeros(hidden),
            "dec.w2": glorot(hidden, d),
            "dec.b2": np.zeros(d),
            "clf.w1": glorot(latent, hidden),
            "clf.b1": np.zeros(hidden),
            "clf.w2": np.zeros((hidden, 2)),
            "clf.b2": np.zeros(2),
        })

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
        probs = _binary_softmax(_affine(h, p["clf.w2"], p["clf.b2"]))
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
        h, mu, raw, lv = self._encode(x)
        eps = sigma = None
        if sample_latent:
            eps = rng.standard_normal(mu.shape)
            sigma = np.exp(lv * 0.5)
            z = mu + sigma * eps
        else:
            z = mu
        hd, xhat = self._decode(z)
        hc, probs = self._classify(z)
        return ForwardResult(xhat=xhat, mu_z=mu, logvar_z=lv, z=z, probs=probs, model=self,
                             x=x, h_enc=h, raw_logvar=raw, eps=eps, sigma=sigma,
                             h_dec=hd, h_clf=hc)

    def backward(self, result: ForwardResult, g_xhat: np.ndarray,
                 g_probs: np.ndarray | None = None, kl_parts: tuple | None = None) -> None:
        """Add a loss's parameter gradients into ``params.grad``, given its
        cotangents for the reconstruction and the class probabilities (None
        when no term reads them), and the KL term's (mu parts, logvar parts)
        (None without that term). Where cotangents meet, they are summed in
        the order the op-by-op graph of the same step sums them."""
        p = self.params
        z, hd, hc = result.z, result.h_dec, result.h_clf
        g_hd = _affine_backward(g_xhat * result.xhat * (1.0 - result.xhat), hd,
                                p["dec.w2"], p["dec.b2"])
        from_decoder = _affine_backward(_tanh_backward(g_hd, hd), z, p["dec.w1"], p["dec.b1"])
        from_classifier = None
        if g_probs is not None:
            g_hc = _affine_backward(_binary_softmax_backward(g_probs, result.probs), hc,
                                    p["clf.w2"], p["clf.b2"])
            from_classifier = _affine_backward(_tanh_backward(g_hc, hc), z,
                                               p["clf.w1"], p["clf.b1"])

        kl_mu, kl_lv = kl_parts if kl_parts is not None else ((), ())
        if result.eps is None:
            g_mu = _in_order([from_decoder, *kl_mu, from_classifier])
            g_lv = _in_order(kl_lv)
        else:
            g_z = _in_order([from_decoder, from_classifier])
            latent_mu, latent_lv = g_z, g_z * result.eps * result.sigma * 0.5
            if g_probs is None:       # no term on probs: the graph walks z before KL
                g_mu, g_lv = _in_order([latent_mu, *kl_mu]), _in_order([latent_lv, *kl_lv])
            else:
                g_mu, g_lv = _in_order([*kl_mu, latent_mu]), _in_order([*kl_lv, latent_lv])

        h = result.h_enc
        g_h = _affine_backward(g_mu, h, p["enc.w_mu"], p["enc.b_mu"])
        if g_lv is not None:
            # raw > bound has the sign of raw - bound: the difference is exact
            # near the bound (Sterbenz), so these are the clamp's relu masks
            raw = result.raw_logvar
            g_raw = g_lv * (raw > LOGVAR_MIN) + (-g_lv) * (raw > LOGVAR_MAX)
            g_h = g_h + _affine_backward(g_raw, h, p["enc.w_lv"], p["enc.b_lv"])
        _affine_backward(_tanh_backward(g_h, h), result.x, p["enc.w1"], p["enc.b1"],
                         to_input=False)

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


def _layout(params: ParamSet) -> dict:
    """The parameter buffer's layout, as a checkpoint manifest records it."""
    order = params.names()
    return {"param_order": order,
            "param_shapes": {n: list(params[n].value.shape) for n in order}}


def save_checkpoint(model: VaeClassifier, out_dir: str | Path, epoch: int,
                    extra: dict | None = None) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "dims": {"d": model.d, "hidden": model.hidden, "latent": model.latent},
        "epoch": int(epoch),
        "seed": model.seed,
        **_layout(model.params),
    }
    if extra:
        manifest["extra"] = extra
    # the blob is the parameter buffer itself, in param_order; it goes first,
    # so a manifest never describes a blob that is not yet in place
    _write_atomic(out / "params.bin", model.params.flat.astype("<f8").tobytes())
    _write_atomic(out / "manifest.json",
                  (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())


def load_checkpoint(in_dir: str | Path) -> tuple[VaeClassifier, dict]:
    """A checkpoint's model and manifest. The manifest must give the layout of
    a model of its dims, whose parameter buffer the blob then fills."""
    src = Path(in_dir)
    manifest = json.loads((src / "manifest.json").read_text())
    try:
        dims = manifest["dims"]
        model = VaeClassifier(d=dims["d"], hidden=dims["hidden"], latent=dims["latent"],
                              seed=manifest["seed"])
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"checkpoint {src}: no model of the manifest's dims and seed "
                         f"({type(err).__name__}: {err})") from None
    for key, value in _layout(model.params).items():
        if manifest.get(key) != value:
            raise ValueError(f"checkpoint {src}: the manifest's {key} is not the layout "
                             f"of a model with dims {dims}")
    expected = model.params.flat.size
    raw = (src / "params.bin").read_bytes()
    if len(raw) != 8 * expected:
        raise ValueError(f"parameter blob {src / 'params.bin'} holds {len(raw) / 8:g} "
                         f"float64 values, manifest declares {expected}")
    model.params.flat[:] = np.frombuffer(raw, dtype="<f8")
    return model, manifest
