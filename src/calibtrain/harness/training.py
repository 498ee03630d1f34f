"""Mini-batch training loop with per-epoch validation tracking.

Randomness is split into named substreams of the run seed so strategies stay
trajectory-comparable: (seed, 0) parameter init, (seed, 1) batch shuffling
and latent draws, (seed, 2, epoch, batch) the epistemic votes consumed only
by the confidence-weight strategy. The streams (seed, 3) and (seed, 4) are
reserved for test-time epistemic/aleatoric votes, one Generator per call.

The history keeps the full per-epoch metric curve; parameters are retained
only for the best epoch under each selection criterion (strict improvement,
so ties resolve to the earliest epoch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..autodiff import Adam, NonFiniteGradient, backward
from ..data import DataSplit, FeatureScaler
from ..losses import STRATEGIES, LossSpec, total_loss
from ..metrics import Predictions, classification_metrics, ece, records_from_probs
from ..model import NonFiniteActivation, VaeClassifier
from ..uncertainty import epistemic_batch
from .config import CRITERIA, ExperimentConfig, beats, criterion_value

AVUC_WARMUP_EPOCHS = 3


@dataclass
class EpochEntry:
    epoch: int
    train_loss: float
    val_bacc: float
    val_ece: float


@dataclass
class EpochHistory:
    entries: list[EpochEntry] = field(default_factory=list)
    # the selection: criterion -> {"epoch": int, "value": float, "params":
    # {name: array}}, set for every criterion once an epoch is recorded
    best: dict = field(default_factory=dict)
    failed: bool = False
    failure: str | None = None

    def record(self, entry: EpochEntry, params_snapshot) -> None:
        self.entries.append(entry)
        for criterion in CRITERIA:
            value = criterion_value(criterion, entry)
            cur = self.best.get(criterion)
            if cur is None or beats(criterion, value, cur["value"]):
                self.best[criterion] = {"epoch": entry.epoch, "value": value,
                                        "params": params_snapshot()}


def evaluate_records(model: VaeClassifier, xs: np.ndarray,
                     gs: np.ndarray) -> Predictions:
    """Deterministic softmax predictions (z = mu) over already-scaled features."""
    return records_from_probs(model.predict_probs(xs), gs)


def _mean_accurate_entropy(probs: np.ndarray, correct: np.ndarray,
                           fallback: float) -> float:
    if not correct.any():
        return fallback
    p = np.clip(probs[correct], 1e-12, 1.0)
    ent = -(p * np.log(p)).sum(axis=1) / math.log(2.0)
    return float(min(ent.mean(), 1.0))


def train(config: ExperimentConfig, split: DataSplit, seed: int,
          spec: LossSpec | None = None) -> EpochHistory:
    """Run one training job; returns the epoch history with best checkpoints.

    The AvUC threshold is 1.0 for AVUC_WARMUP_EPOCHS epochs, then the previous
    epoch's mean accurate entropy. A non-finite loss or gradient aborts the
    run, keeping the history built so far and the failure message.
    """
    spec = spec if spec is not None else LossSpec.from_dict(dict(config.loss))
    scaler = FeatureScaler().fit(split.train.x)
    x_train = scaler.transform(split.train.x)
    g_train = split.train.g
    x_val = scaler.transform(split.validation.x)
    g_val = split.validation.g

    model = VaeClassifier(d=config.d, hidden=config.hidden, latent=config.latent,
                          seed=seed)
    opt = Adam(model.params, lr=config.lr_vae,
               lr_overrides={"clf.": config.lr_classifier})
    rng = np.random.default_rng((seed, 1))
    history = EpochHistory()
    n = x_train.shape[0]
    votes = STRATEGIES[spec.strategy].weighted
    track_threshold = spec.strategy == "avuc"
    threshold = 1.0           # the AvUC threshold after warm-up

    for epoch in range(config.epochs):
        epoch_threshold = 1.0 if epoch < AVUC_WARMUP_EPOCHS else threshold
        order = rng.permutation(n)
        batch_losses = []
        epoch_probs, epoch_correct = [], []
        try:
            for b, start in enumerate(range(0, n, config.batch_size)):
                idx = order[start:start + config.batch_size]
                xb, gb = x_train[idx], g_train[idx]
                out = model.forward(xb, rng)
                conf = None
                if votes:
                    conf = epistemic_batch(model, xb, n=config.n_uncertainty,
                                           rng=np.random.default_rng((seed, 2, epoch, b)))
                loss, batch = total_loss(xb, out, gb, spec, epistemic_conf=conf,
                                         avuc_threshold=epoch_threshold)
                if not np.isfinite(loss.value):
                    raise NonFiniteGradient(f"non-finite loss at epoch {epoch} batch {b}")
                backward(loss)
                opt.step()
                batch_losses.append(float(loss.value))
                if track_threshold:
                    epoch_probs.append(out.probs)
                    epoch_correct.append(batch.correct)
        except (NonFiniteGradient, NonFiniteActivation) as err:
            history.failed = True
            history.failure = str(err)
            return history

        if track_threshold:
            threshold = _mean_accurate_entropy(np.concatenate(epoch_probs),
                                               np.concatenate(epoch_correct),
                                               fallback=threshold)

        val_preds = evaluate_records(model, x_val, g_val)
        bacc = classification_metrics(val_preds)["bacc"]
        entry = EpochEntry(epoch=epoch,
                           train_loss=float(np.mean(batch_losses)),
                           val_bacc=float(bacc) if bacc is not None else 0.0,
                           val_ece=ece(val_preds, 15))
        history.record(entry, model.params.copy_values)
    return history
