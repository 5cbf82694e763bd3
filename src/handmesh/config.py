"""One JSON-serializable config drives a full train/eval/bench run."""

import json
import math
from dataclasses import asdict, dataclass, field

from .losses import LossWeights
from .regressor import DecoderConfig
from .tokens import SamplerConfig


@dataclass
class ExperimentConfig:
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    loss_weights: LossWeights = field(default_factory=LossWeights)
    lr: float = 1e-3
    weight_decay: float = 1e-4
    total_steps: int = 200
    batch_size: int = 4
    seed: int = 0
    dataset: str = ""
    out_dir: str = ""

    def __post_init__(self):
        # json.load parses NaN and Infinity, and NaN fails every comparison;
        # a JSON true/false loads as a bool, which passes both tests as 1/0
        if isinstance(self.lr, bool) or not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"learning rate must be finite and positive, got {self.lr!r}")
        if isinstance(self.weight_decay, bool) or not (math.isfinite(self.weight_decay)
                                                       and self.weight_decay >= 0):
            raise ValueError(f"weight decay must be finite and nonnegative, got {self.weight_decay!r}")
        for name, least in (("total_steps", 0), ("batch_size", 1), ("seed", 0)):
            value = getattr(self, name)
            # the exact type check also refuses bool
            if type(value) is not int or value < least:
                raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")

    @classmethod
    def from_dict(cls, d):
        """Inverse of dataclasses.asdict; missing nested sections take their defaults."""
        d = dict(d)
        d["sampler"] = SamplerConfig(**d.get("sampler", {}))
        d["decoder"] = DecoderConfig(**d.get("decoder", {}))
        d["loss_weights"] = LossWeights(**d.get("loss_weights", {}))
        return cls(**d)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
