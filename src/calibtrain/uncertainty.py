"""Vote-proportion uncertainty estimators over the latent and input spaces.

Both kinds run n forward passes per sample and report c_positive, the
fraction of positive predictions. The first pass is always the deterministic
one (z = mu on the original input); the remaining n - 1 passes vary either
the latent draw (epistemic) or the input via additive Gaussian noise
(aleatoric, with the latent held at mu so only input noise contributes).

Every vote is cast through one chunked loop, ``_votes``. It votes
VOTE_ROWS // n samples per batched classifier pass (one sample when n alone
is more), so the vote arrays stay small whatever the split or batch size;
for epistemic votes it encodes the latent moments of every row once, before
the loop, since they do not depend on the draws. The loop asks its caller's
``draw(start, stop)`` for the noise of each chunk, always an array of
shape (stop - start, n - 1, k): with n = 1 it is empty, and aleatoric noise
at sigma = 0 adds only zeros, so every vote equals the deterministic pass.
Its two callers differ only in their streams:

- ``uncertainty_records`` votes every sample of a test ``Subset`` from one
  default_rng(base_seed) per call, read in sample order: sample i's votes
  take the i-th (n - 1, latent) standard-normal block for epistemic, or the
  i-th (n - 1, d) block times the caller's sigma, added in raw feature space
  before scaling, for aleatoric. A chunk's draw fills one
  (stop - start, n - 1, k) array in C order, so the votes depend on i, n
  and k, not on the chunk size; one sample's votes cannot be drawn without
  drawing those of the samples before it. To vote one sample on its own
  stream, pass the one-row ``test.take(slice(i, i + 1))``.
- ``epistemic_batch``, which confidence-weight training calls on every
  batch of b rows, shares one rng across the batch: it draws one
  (n - 1, b, latent) array, which reads the stream exactly as one
  (b, latent) draw per pass would, and hands each chunk its rows of every
  pass, ``eps[:, start:stop]`` with the pass axis moved second.

Predictions built from the vote shares c take [1 - c, c] as the class
probabilities, max(c, 1 - c) as the confidence and the majority vote as the
label; an exact tie at 0.5 predicts positive.
"""

from __future__ import annotations

import numpy as np

from .data import FeatureScaler, Subset
from .metrics import Predictions
from .model import VaeClassifier

KINDS = ("epistemic", "aleatoric")
# classifier rows per batched vote pass; bounds the vote arrays, so peak
# memory stays flat in the test-split and batch sizes
VOTE_ROWS = 512


# -- votes -------------------------------------------------------------------------

def _votes(model: VaeClassifier, x: np.ndarray, kind: str, n: int, draw,
           sigma: float = 0.0, scaler: FeatureScaler | None = None) -> np.ndarray:
    """Per-pass predicted labels, shape (m, n), for the m rows of raw inputs x,
    voted VOTE_ROWS // n rows at a time (one row when n alone is more).

    Pass 0 of every row is deterministic. Passes 1..n-1 of row j add
    eps[j], of shape (n - 1, k): latent noise (epistemic, k = latent) or
    input noise added before scaling (aleatoric, k = d). draw(start, stop)
    returns eps for rows start..stop-1; with n = 1 its pass axis is empty.
    """
    if n < 1:
        raise ValueError(f"need at least one pass, got n={n}")
    if sigma < 0:
        raise ValueError(f"sigma must be >= 0, got {sigma}")
    m, d = x.shape
    if kind == "epistemic":
        # the latent moments do not depend on the draws: encode every row once
        mu, lv = model.encode_values(x if scaler is None else scaler.transform(x))
        spread = np.exp(lv / 2.0)
    preds = np.empty((m, n), dtype=np.int64)
    chunk = max(1, VOTE_ROWS // n)
    for start in range(0, m, chunk):
        stop = min(start + chunk, m)
        eps = draw(start, stop)
        if kind == "epistemic":
            z = np.empty((stop - start, n, mu.shape[1]))
            z[:, 0] = mu[start:stop]
            z[:, 1:] = mu[start:stop, None, :] + spread[start:stop, None, :] * eps
        else:
            xs = np.repeat(x[start:stop, None, :], n, axis=1)
            xs[:, 1:] = x[start:stop, None, :] + eps * sigma
            xs = xs.reshape(-1, d)
            z, _ = model.encode_values(xs if scaler is None else scaler.transform(xs))
        labels = np.argmax(model.classify_values(z.reshape(-1, z.shape[-1])), axis=1)
        preds[start:stop] = labels.reshape(stop - start, n)
    return preds


def predictions_from_shares(c: np.ndarray, g: np.ndarray) -> Predictions:
    """Predictions from positive-vote shares c; a tie at 0.5 predicts positive."""
    c = np.asarray(c, dtype=np.float64)
    return Predictions.of(np.stack([1.0 - c, c], axis=1),
                          (c >= 0.5).astype(np.int64), np.array(g, dtype=np.int64))


def uncertainty_records(model: VaeClassifier, test: Subset, kind: str,
                        scaler: FeatureScaler | None = None, n: int = 20,
                        sigma: float = 0.0, base_seed: tuple = (0,)) -> Predictions:
    """Vote-based predictions for the raw test samples, voted VOTE_ROWS // n
    samples at a time; sigma scales the aleatoric input noise.

    The votes of a call draw from one default_rng(base_seed), read in sample
    order, so they do not depend on the chunk size.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    x = test.x
    width = model.latent if kind == "epistemic" else x.shape[1]
    rng = np.random.default_rng(base_seed)
    draw = lambda start, stop: rng.standard_normal((stop - start, n - 1, width))
    preds = _votes(model, x, kind, n, draw, sigma=sigma, scaler=scaler)
    return predictions_from_shares(preds.sum(axis=1) / n, test.g)


def epistemic_batch(model: VaeClassifier, xs: np.ndarray, n: int,
                    rng: np.random.Generator) -> np.ndarray:
    """c_positive per row of xs, sharing one rng across the batch.

    Used during confidence-weight training, where each batch draws its C_i
    from a dedicated substream. Consumes (n - 1) draws of shape xs.shape[0]
    x latent regardless of content, keeping the stream layout stable, in one
    (n - 1, b, latent) draw; the votes go through the same chunked loop as
    ``uncertainty_records``.
    """
    xs = np.asarray(xs, dtype=np.float64)
    eps = rng.standard_normal((n - 1, len(xs), model.latent))
    draw = lambda start, stop: eps[:, start:stop].swapaxes(0, 1)
    return _votes(model, xs, "epistemic", n, draw).sum(axis=1) / n
