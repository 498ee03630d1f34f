"""Experiment configuration: JSON in, validated dataclass out.

One config drives every subcommand. ``loss`` configures single-run training
and grid search; ``suite`` lists the strategy configs a full suite run
trains. The output root resolves as: explicit CLI flag, then the config's
``out_dir``, prefixed by the CALIBTRAIN_OUT environment variable when set
and the path is relative.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..losses import LossSpec

CRITERIA = ("max-val-bacc", "min-val-ece")

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
    lr_vae: float = 1e-3
    lr_classifier: float = 1e-3
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
    # output
    out_dir: str = "runs"

    def __post_init__(self):
        self.sizes = tuple(int(s) for s in self.sizes)
        if len(self.sizes) != 3:
            raise ValueError(f"sizes must be (train, validation, test), got {self.sizes}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.lr_vae <= 0 or self.lr_classifier <= 0:
            raise ValueError("learning rates must be positive")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}, got {self.criterion!r}")
        if not self.seeds:
            raise ValueError("seeds list must be nonempty")
        self.seeds = [int(s) for s in self.seeds]
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {self.seeds}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {self.seeds}")
        if self.data_seed < 0:
            raise ValueError(f"data_seed must be non-negative, got {self.data_seed}")
        if self.n_uncertainty < 1:
            raise ValueError(f"n_uncertainty must be >= 1, got {self.n_uncertainty}")
        loss_fields = set(LossSpec.__dataclass_fields__)
        for key in self.grid:
            if key not in loss_fields:
                raise ValueError(f"grid key {key!r} does not name a loss hyperparameter")
            if not self.grid[key]:
                raise ValueError(f"grid key {key!r} has no candidate values")
        # fail early on malformed loss configs
        LossSpec.from_dict(dict(self.loss))
        for entry in self.suite:
            LossSpec.from_dict(dict(entry))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        d = asdict(self)
        d["sizes"] = list(self.sizes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def to_json(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    def resolve_out_dir(self, override: str | None = None) -> Path:
        out = Path(override) if override else Path(self.out_dir)
        root = os.environ.get("CALIBTRAIN_OUT")
        if root and not out.is_absolute():
            out = Path(root) / out
        return out


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
