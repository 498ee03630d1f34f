"""Experiment configuration: JSON in, validated dataclass out.

One config drives every subcommand. ``loss`` configures single-run training
and grid search; ``suite`` lists the strategy configs a full suite run
trains. A config says what a run is, not where it is written: the output
directory is the CLI's ``--out``, so a config hashes the same, and a suite's
manifest reads the same, whatever directory holds the run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from dataclasses import asdict, dataclass, field

from ..losses import LossSpec, check_number

CRITERIA = ("max-val-bacc", "min-val-ece")


def criterion_value(criterion: str, entry) -> float:
    """The validation value a selection criterion reads from an epoch entry."""
    return entry.val_bacc if criterion == "max-val-bacc" else entry.val_ece


def beats(criterion: str, value: float, incumbent: float) -> bool:
    """Whether value strictly improves on incumbent under the criterion. A tie
    keeps the incumbent, so the earliest epoch or first grid cell wins."""
    return value > incumbent if criterion == "max-val-bacc" else value < incumbent


def checked_int(name: str, value) -> int:
    """``value`` as an int: an integer, or a float with an integral value.
    Bools, strings and fractions are a ValueError naming the field."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


# Per-strategy suite defaults, selected by a three-seed sweep on the default
# synthetic preset (penalty strengths do not transfer between tasks, so each
# deployment is expected to re-tune these via the grid machinery).
DEFAULT_SUITE: list[dict] = [
    {"strategy": "baseline"},
    {"strategy": "paired_confidence", "lambda_n": 0.02, "margin": 0.6},
    {"strategy": "probability", "lambda_n": 0.1},
    {"strategy": "confidence_weight", "weight_floor": 0.9},
    {"strategy": "avuc", "lambda_n": 0.2},
    {"strategy": "soft_ece", "lambda_n": 5.0, "temperature": 0.1},
    {"strategy": "mmce", "lambda_n": 0.2},
]


@dataclass
class ExperimentConfig:
    # dataset
    sizes: tuple[int, int, int] = (4000, 1000, 2000)
    d: int = 8
    separation: float = 2.0
    noise_rate: float = 0.15
    positive_fraction: float = 0.5
    data_seed: int = 0
    # model
    hidden: int = 32
    latent: int = 8
    # optimization
    epochs: int = 50
    batch_size: int = 25
    lr: float = 1e-3
    # loss for single-run training / grid search
    loss: dict = field(default_factory=lambda: {"strategy": "baseline"})
    # model selection
    criterion: str = "max-val-bacc"
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    # grid search: LossSpec field -> candidate values
    grid: dict = field(default_factory=dict)
    # suite strategies
    suite: list[dict] = field(default_factory=lambda: [dict(s) for s in DEFAULT_SUITE])
    # uncertainty estimation
    n_uncertainty: int = 20

    def __post_init__(self):
        # JSON gives any type anywhere: check types before comparing values
        if not isinstance(self.sizes, (list, tuple)) or len(self.sizes) != 3:
            raise ValueError(f"sizes must be (train, validation, test), got {self.sizes!r}")
        self.sizes = tuple(checked_int("sizes", s) for s in self.sizes)
        for name in ("d", "hidden", "latent", "epochs", "batch_size", "data_seed",
                     "n_uncertainty"):
            setattr(self, name, checked_int(name, getattr(self, name)))
        for name in ("separation", "noise_rate", "positive_fraction", "lr"):
            check_number(name, getattr(self, name))
        if not isinstance(self.seeds, (list, tuple)):
            raise ValueError(f"seeds must be a list of integers, got {self.seeds!r}")
        self.seeds = [checked_int("seeds", s) for s in self.seeds]
        for name, kind in (("loss", dict), ("grid", dict), ("suite", list)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a JSON {kind.__name__}, "
                                 f"got {getattr(self, name)!r}")
        if not all(isinstance(entry, dict) for entry in self.suite):
            raise ValueError(f"suite entries must be JSON objects, got {self.suite!r}")
        for name in ("d", "hidden", "latent", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}, got {self.criterion!r}")
        if not self.seeds:
            raise ValueError("seeds list must be nonempty")
        if not self.suite:
            raise ValueError("suite list must be nonempty")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if self.data_seed < 0:
            raise ValueError(f"data_seed must be non-negative, got {self.data_seed}")
        if self.n_uncertainty < 1:
            raise ValueError(f"n_uncertainty must be >= 1, got {self.n_uncertainty}")
        # fail early on malformed loss configs, grid candidates included
        base = LossSpec.from_dict(dict(self.loss))
        for entry in self.suite:
            LossSpec.from_dict(dict(entry))
        # cells and report files are keyed by strategy: a repeat would overwrite them
        strategies = [entry["strategy"] for entry in self.suite]
        if len(set(strategies)) != len(strategies):
            raise ValueError(f"suite strategies must be distinct, got {strategies}")
        loss_fields = set(LossSpec.__dataclass_fields__)
        for key, candidates in self.grid.items():
            if key not in loss_fields:
                raise ValueError(f"grid key {key!r} does not name a loss hyperparameter")
            if not isinstance(candidates, (list, tuple)):
                raise ValueError(f"grid key {key!r} needs a list of candidates, got {candidates!r}")
            if not candidates:
                raise ValueError(f"grid key {key!r} has no candidate values")
            for value in candidates:
                dataclasses.replace(base, **{key: value})

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["sizes"] = list(self.sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError(f"a config must be a JSON object, got {type(d).__name__}")
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
