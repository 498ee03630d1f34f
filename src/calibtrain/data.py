"""Seeded synthetic binary-classification data with analytic posteriors.

The generator draws two class-conditional unit-covariance Gaussians whose
means sit at +/- separation/2 along the first coordinate. P(g=1 | x) is then
a logistic function of x[0] (shifted by the log prior ratio when classes are
imbalanced), which gives an exact calibration target. Label noise flips each
label with a fixed rate and adjusts the stored posterior accordingly, so the
recorded posterior always matches the label-generating process.

A ``DataSplit`` is its three subsets, each one ``Subset`` of read-only arrays:
features ``x`` (n, d), labels ``g`` (n,) and the analytic posterior
P(g=1 | x) (n,). It keeps none of the generator's arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import _sigmoid_values


@dataclass(frozen=True, eq=False)
class Subset:
    """The samples of one split as arrays, marked read-only on construction."""

    x: np.ndarray          # (n, d) features
    g: np.ndarray          # (n,) int64 labels
    posterior: np.ndarray  # (n,) P(g=1 | x)

    def __post_init__(self):
        for values in (self.x, self.g, self.posterior):
            values.flags.writeable = False

    def __len__(self) -> int:
        return len(self.g)

    def take(self, rows) -> "Subset":
        """The subset of the given rows (a slice or an index array)."""
        return Subset(self.x[rows], self.g[rows], self.posterior[rows])


@dataclass
class DataSplit:
    train: Subset
    validation: Subset
    test: Subset

    def class_counts(self) -> dict[str, tuple[int, int]]:
        out = {}
        for name in ("train", "validation", "test"):
            part = getattr(self, name)
            pos = int(part.g.sum())
            out[name] = (len(part) - pos, pos)
        return out


def features(part: Subset) -> np.ndarray:
    return part.x


def labels(part: Subset) -> np.ndarray:
    return part.g


def posteriors(part: Subset) -> np.ndarray:
    return part.posterior


def generate_gaussian_mixture(
    sizes: tuple[int, int, int],
    d: int = 8,
    separation: float = 2.0,
    noise_rate: float = 0.0,
    positive_fraction: float = 0.5,
    seed: int = 0,
) -> DataSplit:
    """Draw disjoint train/validation/test splits from the mixture.

    ``sizes`` gives the three split sizes; their sum must be at least 40.
    ``noise_rate`` in [0, 0.5) flips labels after the Bernoulli draw, and the
    stored posterior is adjusted to p*(1-rho) + (1-p)*rho. Both classes must
    land in every split, otherwise the draw is rejected.
    """
    n = int(sum(sizes))
    if n < 40:
        raise ValueError(f"need at least 40 samples in total, got {n}")
    if any(s <= 0 for s in sizes):
        raise ValueError(f"every split must be nonempty, got sizes {sizes}")
    if not 0 < separation < np.inf:
        raise ValueError(f"separation must be positive and finite, got {separation}")
    if not (0.0 <= noise_rate < 0.5):
        raise ValueError(f"noise_rate must lie in [0, 0.5), got {noise_rate}")
    if not (0.0 < positive_fraction < 1.0):
        raise ValueError(f"positive_fraction must lie in (0, 1), got {positive_fraction}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")

    rng = np.random.default_rng(seed)
    component = rng.random(n) < positive_fraction
    x = rng.standard_normal((n, d))
    x[:, 0] += np.where(component, separation / 2.0, -separation / 2.0)

    prior_logit = np.log(positive_fraction / (1.0 - positive_fraction))
    p_clean = _sigmoid_values(separation * x[:, 0] + prior_logit)
    g = (rng.random(n) < p_clean).astype(np.int64)
    flips = rng.random(n) < noise_rate
    g = np.where(flips, 1 - g, g)
    p_noisy = p_clean * (1.0 - noise_rate) + (1.0 - p_clean) * noise_rate

    n_train, n_val, n_test = (int(s) for s in sizes)
    every = Subset(x, g, p_noisy)
    split = DataSplit(
        train=every.take(slice(0, n_train)),
        validation=every.take(slice(n_train, n_train + n_val)),
        test=every.take(slice(n_train + n_val, n_train + n_val + n_test)),
    )
    for name, (neg, pos) in split.class_counts().items():
        if not (neg and pos):
            raise ValueError(
                f"split {name!r} is missing a class (seed {seed}); "
                "enlarge the split or change the seed"
            )
    return split


class FeatureScaler:
    """Min-max scaling to [0, 1], fitted on the training split.

    Transformed values are clipped into [0, 1] so validation/test features
    outside the training range stay valid reconstruction targets. Degenerate
    coordinates (max == min) map to 0.5.
    """

    def __init__(self):
        self.lo: np.ndarray | None = None
        self.hi: np.ndarray | None = None

    def fit(self, x: np.ndarray) -> "FeatureScaler":
        self.lo = x.min(axis=0)
        self.hi = x.max(axis=0)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.lo is None:
            raise RuntimeError("scaler must be fitted before transform")
        span = self.hi - self.lo
        safe = np.where(span > 0, span, 1.0)
        scaled = (x - self.lo) / safe
        scaled = np.where(span > 0, scaled, 0.5)
        return np.clip(scaled, 0.0, 1.0)

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)

