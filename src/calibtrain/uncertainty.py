"""Vote-proportion uncertainty estimators over the latent and input spaces.

Both estimators run n forward passes per sample and report c_positive, the
fraction of positive predictions. The first pass is always the deterministic
one (z = mu on the original input); the remaining n - 1 passes vary either
the latent draw (epistemic) or the input via additive Gaussian noise
(aleatoric, with the latent held at mu so only input noise contributes).

Every estimator casts its votes through one chunked loop, ``_votes``. It
votes VOTE_ROWS // n samples per batched classifier pass (one sample when
n alone is more), so the vote arrays stay small whatever the split or batch
size; for epistemic votes it encodes the latent moments of every row once,
before the loop, since they do not depend on the draws. The loop asks
its caller's ``draw(start, stop)`` for the noise of each chunk, shape
(stop - start, n - 1, k), so the callers differ only in their streams:

- ``epistemic`` and ``aleatoric`` vote one sample with their own rng.
- ``uncertainty_records`` gives each test sample i its own substream
  default_rng(base_seed + (i,)): one (n - 1, latent) standard-normal draw
  for epistemic, or one (n - 1, d) draw times sigma, added in raw feature
  space before scaling, for aleatoric. The votes therefore do not depend on
  the chunk size or evaluation order.
- ``epistemic_batch``, which confidence-weight training calls on every
  batch of b rows, shares one rng across the batch: it draws one
  (n - 1, b, latent) array, which reads the stream exactly as one
  (b, latent) draw per pass would, and hands each chunk its rows of every
  pass, ``eps[:, start:stop]`` with the pass axis moved second.

``Substreams`` builds the per-sample streams without a Generator per sample:
it runs NumPy's SeedSequence hash over every i in one vectorised pass
(``seed_words``), then PCG64's closed-form seeding step (``pcg64_states``),
and sets one reused Generator to each state in turn. This assumes that
NumPy's SeedSequence and PCG64 seeding do not change; ``tests/test_uncertainty.py``
checks the states and draws bitwise against NumPy's own.

Predictions built from the vote shares c take [1 - c, c] as the class
probabilities, max(c, 1 - c) as the confidence and the majority vote as the
label; an exact tie at 0.5 predicts positive.
"""

from __future__ import annotations

import operator
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


# -- substream seeding -----------------------------------------------------------
# NumPy's SeedSequence hash (pool of four 32-bit words) and PCG64 seeding step,
# as in numpy/random/bit_generator.pyx and pcg64.h. They must match NumPy bit
# for bit; tests/test_uncertainty.py checks them against NumPy's own.

_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
_PCG64_MULT_HI, _PCG64_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)


def _entropy_words(key: tuple) -> list[int]:
    """The 32-bit entropy words of an int tuple, least significant word of
    each int first; 0 gives one word."""
    words = []
    for value in key:
        value = operator.index(value)
        if value < 0:
            raise ValueError(f"expected non-negative integer, got {value}")
        words.append(value & _MASK32)
        value >>= 32
        while value:
            words.append(value & _MASK32)
            value >>= 32
    return words


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> 16)


def seed_words(base_seed: tuple, ids) -> np.ndarray:
    """SeedSequence(base_seed + (i,)).generate_state(4, np.uint64) for every i
    in ids, shape (len(ids), 4), hashed in one vectorised pass."""
    ids = np.asarray(ids, dtype=np.int64).reshape(-1)
    if ids.size and (ids.min() < 0 or ids.max() > _MASK32):
        raise ValueError(f"substream ids must lie in [0, 2**32), got {ids.min()}..{ids.max()}")
    entropy = [np.full(ids.shape, w, dtype=np.uint32) for w in _entropy_words(base_seed)]
    entropy.append(ids.astype(np.uint32))
    const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    zero = np.zeros(ids.shape, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state = np.empty((len(ids), 2 * _POOL), dtype="<u4")
    const = _INIT_B
    for k in range(2 * _POOL):
        value = pool[k % _POOL] ^ np.uint32(const)
        const = const * _MULT_B & _MASK32
        value = value * np.uint32(const)
        state[:, k] = value ^ (value >> 16)
    return state.view("<u8").astype(np.uint64)


def _mul64(a: np.ndarray, b: np.uint64) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of the 128-bit products a * b."""
    a0, a1 = a & _MASK32, a >> 32
    b0, b1 = b & _MASK32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32), a * b


def pcg64_states(words: np.ndarray) -> np.ndarray:
    """PCG64's state and increment once seeded from each row of seed_words,
    as uint64 columns (state_hi, state_lo, inc_hi, inc_lo).

    With s = w0:w1 and q = w2:w3, inc = 2q + 1 and state = (inc + s) * MULT
    + inc, all mod 2**128: the two LCG steps of pcg64_srandom_r.
    """
    s_hi, s_lo, q_hi, q_lo = words.T
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    t_lo = inc_lo + s_lo
    t_hi = inc_hi + s_hi + (t_lo < inc_lo)
    hi, lo = _mul64(t_lo, _PCG64_MULT_LO)
    hi = hi + t_lo * _PCG64_MULT_HI + t_hi * _PCG64_MULT_LO
    state_lo = lo + inc_lo
    state_hi = hi + inc_hi + (state_lo < lo)
    return np.stack([state_hi, state_lo, inc_hi, inc_lo], axis=1)


class Substreams:
    """The streams default_rng(base_seed + (i,)) for i in ids, seeded in one
    vectorised pass and drawn through one reused Generator."""

    def __init__(self, base_seed: tuple, ids):
        self._states = pcg64_states(seed_words(base_seed, ids)).tolist()
        self._bits = np.random.PCG64(0)
        self._gen = np.random.Generator(self._bits)
        self._value = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0},
                       "has_uint32": 0, "uinteger": 0}

    def standard_normal(self, start: int, out: np.ndarray) -> np.ndarray:
        """Fill each out[j] with the leading standard normals of stream
        ids[start + j], as default_rng(key).standard_normal(out[j].shape)."""
        pcg = self._value["state"]
        for row, (s_hi, s_lo, i_hi, i_lo) in zip(out, self._states[start:start + len(out)]):
            pcg["state"], pcg["inc"] = s_hi << 64 | s_lo, i_hi << 64 | i_lo
            self._bits.state = self._value
            self._gen.standard_normal(out=row)
        return out


# -- votes -------------------------------------------------------------------------

def _votes(model: VaeClassifier, x: np.ndarray, kind: str, n: int, draw,
           sigma: float = 0.0, scaler: FeatureScaler | None = None) -> np.ndarray:
    """Per-pass predicted labels, shape (m, n), for the m rows of raw inputs x,
    voted VOTE_ROWS // n rows at a time (one row when n alone is more).

    Pass 0 of every row is deterministic. Passes 1..n-1 of row j add
    eps[j], of shape (n - 1, k): latent noise (epistemic, k = latent) or
    input noise added before scaling (aleatoric, k = d). draw(start, stop)
    returns eps for rows start..stop-1, or None when no row makes a draw.
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
            if n > 1:
                z[:, 1:] = mu[start:stop, None, :] + spread[start:stop, None, :] * eps
        else:
            xs = np.repeat(x[start:stop, None, :], n, axis=1)
            if n > 1 and sigma > 0:
                xs[:, 1:] = x[start:stop, None, :] + eps * sigma
            xs = xs.reshape(-1, d)
            z, _ = model.encode_values(xs if scaler is None else scaler.transform(xs))
        labels = np.argmax(model.classify_values(z.reshape(-1, z.shape[-1])), axis=1)
        preds[start:stop] = labels.reshape(stop - start, n)
    return preds


def _estimate(preds: np.ndarray, kind: str) -> UncertaintyEstimate:
    return UncertaintyEstimate(c_positive=float(preds.mean()), n_samples=preds.size,
                               kind=kind, predictions=preds)


def epistemic(model: VaeClassifier, x: np.ndarray, n: int = 20,
              rng: np.random.Generator | None = None) -> UncertaintyEstimate:
    """Vote over one deterministic latent plus n - 1 reparameterized draws."""
    if n > 1 and rng is None:
        raise ValueError("latent sampling requires an rng")
    x = np.asarray(x, dtype=np.float64).reshape(1, -1)
    eps = rng.standard_normal((1, n - 1, model.latent)) if n > 1 else None
    return _estimate(_votes(model, x, "epistemic", n, lambda start, stop: eps)[0],
                     "epistemic")


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
    eps = rng.standard_normal((1, n - 1, x.shape[1])) if n > 1 and sigma > 0 else None
    preds = _votes(model, x, "aleatoric", n, lambda start, stop: eps,
                   sigma=sigma, scaler=scaler)
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
    results do not depend on evaluation order; the substreams of the whole
    split are seeded once, in one vectorised pass. Aleatoric sigma defaults
    to 0.1x the generating class separation.
    """
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    if sigma is None:
        sigma = 0.1 * float(split.params.get("separation", 2.0))
    x = split.test.x
    width = model.latent if kind == "epistemic" else x.shape[1]
    draw = lambda start, stop: None
    if n > 1 and (kind == "epistemic" or sigma > 0):
        streams = Substreams(tuple(base_seed), np.arange(len(x)))
        draw = lambda start, stop: streams.standard_normal(
            start, np.empty((stop - start, n - 1, width)))
    preds = _votes(model, x, kind, n, draw, sigma=sigma, scaler=scaler)
    return predictions_from_shares(preds.sum(axis=1) / n, split.test.g)


def epistemic_batch(model: VaeClassifier, xs: np.ndarray, n: int = 20,
                    rng: np.random.Generator | None = None) -> np.ndarray:
    """c_positive per row of xs, sharing one rng across the batch.

    Used during confidence-weight training, where each batch draws its C_i
    from a dedicated substream. Consumes (n - 1) draws of shape xs.shape[0]
    x latent regardless of content, keeping the stream layout stable, in one
    (n - 1, b, latent) draw; the votes go through the same chunked loop as
    ``uncertainty_records``.
    """
    if n > 1 and rng is None:
        raise ValueError("latent sampling requires an rng")
    xs = np.asarray(xs, dtype=np.float64)
    eps = rng.standard_normal((n - 1, len(xs), model.latent)) if n > 1 else None
    draw = lambda start, stop: None if eps is None else eps[:, start:stop].swapaxes(0, 1)
    return _votes(model, xs, "epistemic", n, draw).sum(axis=1) / n
