"""Vote-proportion uncertainty estimators over the latent and input spaces.

Both estimators run n forward passes per sample and report c_positive, the
fraction of positive predictions. The first pass is always the deterministic
one (z = mu on the original input); the remaining n - 1 passes vary either
the latent draw (epistemic) or the input via additive Gaussian noise
(aleatoric, with the latent held at mu so only input noise contributes).

One kernel casts the votes of a block of samples with a single batched
encode/classify pass. ``epistemic`` and ``aleatoric`` call it on one sample;
``uncertainty_records`` calls it on the test split in chunks of VOTE_CHUNK
samples, which bounds the intermediate arrays at VOTE_CHUNK x n rows. Each
test sample i draws from its own substream default_rng(base_seed + (i,)):
one (n - 1, latent) standard-normal draw for epistemic, or one (n - 1, d)
draw times sigma, added in raw feature space before scaling, for aleatoric.
The votes therefore do not depend on the chunk size or evaluation order.

Records built from the votes use r = max(c, 1 - c) as confidence and the
majority vote as the label; an exact tie at 0.5 predicts positive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import DataSplit, FeatureScaler, Sample, features, labels
from .metrics import PredictionRecord
from .model import VaeClassifier

KINDS = ("epistemic", "aleatoric")
# test samples voted per batched forward pass; bounds the arrays at
# VOTE_CHUNK x n rows, so peak memory stays flat in the test-split size
VOTE_CHUNK = 128


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


def aleatoric(model: VaeClassifier, sample: Sample, n: int = 20,
              sigma: float = 0.2, rng: np.random.Generator | None = None,
              scaler: FeatureScaler | None = None) -> UncertaintyEstimate:
    """Vote over the original input plus n - 1 noisy copies, latent kept at mu.

    Noise is added in raw feature space; when a scaler is given, each copy is
    scaled after perturbation, matching how training inputs were prepared.
    """
    if n > 1 and sigma > 0 and rng is None:
        raise ValueError("input perturbation requires an rng")
    x = np.asarray(sample.x, dtype=np.float64).reshape(1, -1)
    preds = _vote_predictions(model, x, "aleatoric", n, [rng], sigma=sigma, scaler=scaler)
    return _estimate(preds[0], "aleatoric")


def _vote_record(c: float, g: int) -> PredictionRecord:
    predicted = 1 if c >= 0.5 else 0   # tie predicts positive
    r = max(c, 1.0 - c)
    return PredictionRecord(probs=np.array([1.0 - c, c]), r=r,
                            predicted=predicted, g=int(g),
                            correct=predicted == int(g))


def record_from_votes(est: UncertaintyEstimate, g: int) -> PredictionRecord:
    return _vote_record(est.c_positive, g)


def uncertainty_records(model: VaeClassifier, split: DataSplit, kind: str,
                        scaler: FeatureScaler | None = None, n: int = 20,
                        sigma: float | None = None,
                        base_seed: tuple = (0,)) -> list[PredictionRecord]:
    """One vote-based record per test sample, voted VOTE_CHUNK samples at a time.

    Sample i draws from its own substream default_rng(base_seed + (i,)), so
    results do not depend on evaluation order. Aleatoric sigma defaults to
    0.1x the generating class separation.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if sigma is None:
        sigma = 0.1 * float(split.params.get("separation", 2.0))
    x = features(split.test)
    g = labels(split.test)
    records = []
    for start in range(0, len(g), VOTE_CHUNK):
        stop = min(start + VOTE_CHUNK, len(g))
        rngs = [np.random.default_rng(tuple(base_seed) + (i,)) for i in range(start, stop)]
        preds = _vote_predictions(model, x[start:stop], kind, n, rngs,
                                  sigma=sigma, scaler=scaler)
        shares = (preds.sum(axis=1) / n).tolist()
        records.extend(_vote_record(c, gi) for c, gi in zip(shares, g[start:stop].tolist()))
    return records


def epistemic_batch(model: VaeClassifier, xs: np.ndarray, n: int = 20,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """c_positive per row of xs, sharing one rng across the batch.

    Used during confidence-weight training, where each batch draws its C_i
    from a dedicated substream. Consumes (n - 1) draws of shape xs.shape[0]
    x latent regardless of content, keeping the stream layout stable.
    """
    if n < 1:
        raise ValueError(f"need at least one pass, got n={n}")
    if n > 1 and rng is None:
        raise ValueError("latent sampling requires an rng")
    xs = np.asarray(xs, dtype=np.float64)
    mu, lv = model.encode_values(xs)
    counts = (_predict_labels(model, mu) == 1).astype(np.float64)
    if n > 1:
        sigma = np.exp(lv / 2.0)
        for _ in range(n - 1):
            z = mu + sigma * rng.standard_normal(mu.shape)
            counts += _predict_labels(model, z) == 1
    return counts / n
