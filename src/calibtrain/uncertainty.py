"""Vote-proportion uncertainty estimators over the latent and input spaces.

Both estimators run n forward passes per sample and report c_positive, the
fraction of positive predictions. The first pass is always the deterministic
one (z = mu on the original input); the remaining n - 1 passes vary either
the latent draw (epistemic) or the input via additive Gaussian noise
(aleatoric, with the latent held at mu so only input noise contributes).

Votes are cast in blocks of at most VOTE_ROWS classifier rows (or of one
sample's, or one pass's, rows when those alone are more), one batched pass
per block, so the intermediate arrays stay small whatever the split or
batch size. One kernel casts the votes of a block of samples.
``epistemic`` and ``aleatoric`` call it on one sample; ``uncertainty_records``
calls it on the test split in chunks of VOTE_ROWS // n samples. Each test
sample i draws from its own substream default_rng(base_seed + (i,)): one
(n - 1, latent) standard-normal draw for epistemic, or one (n - 1, d) draw
times sigma, added in raw feature space before scaling, for aleatoric. The
votes therefore do not depend on the chunk size or evaluation order.

``epistemic_batch``, which confidence-weight training calls on every batch
of b rows, shares one rng across the batch instead: its n - 1 latent passes
are drawn VOTE_ROWS // b at a time, each block one (k, b, latent) draw, which
reads the stream exactly as one (b, latent) draw per pass would.

Predictions built from the vote shares c take [1 - c, c] as the class
probabilities, max(c, 1 - c) as the confidence and the majority vote as the
label; an exact tie at 0.5 predicts positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataSplit, FeatureScaler
from .metrics import Predictions
from .model import VaeClassifier

KINDS = ("epistemic", "aleatoric")
# classifier rows per batched vote pass; bounds the vote arrays, so peak
# memory stays flat in the test-split and batch sizes
VOTE_ROWS = 512


@dataclass
class UncertaintyEstimate:
    c_positive: float
    n_samples: int
    kind: str
    predictions: np.ndarray  # (n,) per-pass predicted labels

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError(f"need at least one pass, got {self.n_samples}")
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")


def _predict_labels(model: VaeClassifier, z: np.ndarray) -> np.ndarray:
    return np.argmax(model.classify_values(z), axis=1)


def _vote_predictions(model: VaeClassifier, x: np.ndarray, kind: str, n: int,
                      rngs: list, sigma: float = 0.0,
                      scaler: FeatureScaler | None = None) -> np.ndarray:
    """Per-pass predicted labels, shape (m, n), for the m rows of raw inputs x.

    Pass 0 of every row is deterministic. Passes 1..n-1 of row j draw from
    rngs[j]: latent noise (epistemic) or input noise added before scaling
    (aleatoric). A row needs no rng when it makes no draw.
    """
    if n < 1:
        raise ValueError(f"need at least one pass, got n={n}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    m, d = x.shape
    if kind == "epistemic":
        if scaler is not None:
            x = scaler.transform(x)
        mu, lv = model.encode_values(x)
        z = np.empty((m, n, mu.shape[1]))
        z[:, 0] = mu
        if n > 1:
            eps = np.stack([rng.standard_normal((n - 1, mu.shape[1])) for rng in rngs])
            z[:, 1:] = mu[:, None, :] + np.exp(lv / 2.0)[:, None, :] * eps
    else:
        xs = np.repeat(x[:, None, :], n, axis=1)
        if n > 1 and sigma > 0:
            eps = np.stack([rng.standard_normal((n - 1, d)) for rng in rngs])
            xs[:, 1:] = x[:, None, :] + eps * sigma
        xs = xs.reshape(m * n, d)
        if scaler is not None:
            xs = scaler.transform(xs)
        z, _ = model.encode_values(xs)
    return _predict_labels(model, z.reshape(m * n, -1)).reshape(m, n)


def _estimate(preds: np.ndarray, kind: str) -> UncertaintyEstimate:
    return UncertaintyEstimate(c_positive=float(preds.mean()), n_samples=preds.size,
                               kind=kind, predictions=preds)


def epistemic(model: VaeClassifier, x: np.ndarray, n: int = 20,
              rng: np.random.Generator | None = None) -> UncertaintyEstimate:
    """Vote over one deterministic latent plus n - 1 reparameterized draws."""
    if n > 1 and rng is None:
        raise ValueError("latent sampling requires an rng")
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    return _estimate(_vote_predictions(model, x, "epistemic", n, [rng])[0], "epistemic")


def aleatoric(model: VaeClassifier, x: np.ndarray, n: int = 20,
              sigma: float = 0.2, rng: np.random.Generator | None = None,
              scaler: FeatureScaler | None = None) -> UncertaintyEstimate:
    """Vote over the raw feature row x plus n - 1 noisy copies, latent kept at mu.

    Noise is added in raw feature space; when a scaler is given, each copy is
    scaled after perturbation, matching how training inputs were prepared.
    """
    if n > 1 and sigma > 0 and rng is None:
        raise ValueError("input perturbation requires an rng")
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    preds = _vote_predictions(model, x, "aleatoric", n, [rng], sigma=sigma, scaler=scaler)
    return _estimate(preds[0], "aleatoric")


def predictions_from_shares(c: np.ndarray, g: np.ndarray) -> Predictions:
    """Predictions from positive-vote shares c; a tie at 0.5 predicts positive."""
    c = np.asarray(c, dtype=np.float64)
    return Predictions.of(np.stack([1.0 - c, c], axis=1),
                          (c >= 0.5).astype(np.int64), np.array(g, dtype=np.int64))


def uncertainty_records(model: VaeClassifier, split: DataSplit, kind: str,
                        scaler: FeatureScaler | None = None, n: int = 20,
                        sigma: float | None = None,
                        base_seed: tuple = (0,)) -> Predictions:
    """Vote-based predictions for the test split, voted VOTE_ROWS // n samples
    at a time.

    Sample i draws from its own substream default_rng(base_seed + (i,)), so
    results do not depend on evaluation order. Aleatoric sigma defaults to
    0.1x the generating class separation.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if sigma is None:
        sigma = 0.1 * float(split.params.get("separation", 2.0))
    x = split.test.x
    shares = np.empty(len(x))
    chunk = max(1, VOTE_ROWS // n)
    for start in range(0, len(x), chunk):
        stop = min(start + chunk, len(x))
        rngs = [np.random.default_rng(tuple(base_seed) + (i,)) for i in range(start, stop)]
        preds = _vote_predictions(model, x[start:stop], kind, n, rngs,
                                  sigma=sigma, scaler=scaler)
        shares[start:stop] = preds.sum(axis=1) / n
    return predictions_from_shares(shares, split.test.g)


def epistemic_batch(model: VaeClassifier, xs: np.ndarray, n: int = 20,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """c_positive per row of xs, sharing one rng across the batch.

    Used during confidence-weight training, where each batch draws its C_i
    from a dedicated substream. Consumes (n - 1) draws of shape xs.shape[0]
    x latent regardless of content, keeping the stream layout stable; they
    are drawn and classified in blocks of up to VOTE_ROWS rows.
    """
    if n < 1:
        raise ValueError(f"need at least one pass, got n={n}")
    if n > 1 and rng is None:
        raise ValueError("latent sampling requires an rng")
    xs = np.asarray(xs, dtype=np.float64)
    mu, lv = model.encode_values(xs)
    counts = (_predict_labels(model, mu) == 1).astype(np.float64)
    if n > 1:
        b, latent = mu.shape
        sigma = np.exp(lv / 2.0)
        block = max(1, VOTE_ROWS // max(b, 1))
        for start in range(0, n - 1, block):
            k = min(block, n - 1 - start)
            z = mu + sigma * rng.standard_normal((k, b, latent))
            votes = _predict_labels(model, z.reshape(k * b, latent)) == 1
            counts += votes.reshape(k, b).sum(axis=0)
    return counts / n
