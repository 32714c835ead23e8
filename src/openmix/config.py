"""Run configuration: flat `key = value` files with strict key checking."""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field

from .fileio import read_text


class ConfigError(Exception):
    """Raised for unknown keys, bad values, or failed validation."""


def _field_types(cls) -> dict[str, object]:
    # field.type is a string under deferred annotations; resolve to real types
    return typing.get_type_hints(cls)


def _coerce(name: str, raw: str, typ) -> object:
    raw = raw.strip()
    try:
        if typ is bool:
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        if typ is str:
            return raw
        if typ == list[int]:
            return [int(tok) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad value for {name!r}: {raw!r}") from None
    raise ConfigError(f"unsupported config field type for {name!r}")


def check_finite_floats(cfg) -> None:
    """Reject every float field of a config dataclass that is nan or infinite."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value!r}")


def parse_flat(text: str, cls, instance=None):
    """Fill a config dataclass from `key = value` lines.

    Blank lines and lines starting with '#' are ignored. Keys not declared
    on the dataclass are rejected.
    """
    names = {f.name for f in dataclasses.fields(cls)}
    types = _field_types(cls)
    cfg = instance if instance is not None else cls()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in names:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setattr(cfg, key, _coerce(key, value, types[key]))
    return cfg


def apply_overrides(cfg, overrides: list[str]):
    """Apply `--set key=value` style overrides in order."""
    names = {f.name for f in dataclasses.fields(cfg)}
    types = _field_types(type(cfg))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in names:
            raise ConfigError(f"unknown key {key!r} in override")
        setattr(cfg, key, _coerce(key, value, types[key]))
    return cfg


@dataclass
class RunConfig:
    """All thresholds, weights, schedule knobs, seeds, and paths for a run."""

    theta1: float = 0.95
    theta2: float = 0.9
    lambda1: float = 5.0
    lambda2: float = 1000.0
    epsilon: float = 1.0
    lr: float = 0.0001
    rmsprop_rho: float = 0.9
    rmsprop_eps: float = 1e-8
    batch_labeled: int = 64
    batch_unlabeled: int = 64
    batch_mixed: int = 64
    pretrain_epochs: int = 100
    cluster_epochs: int = 150
    freeze_epochs: int = 40
    labeled_mix_epoch: int = 2
    anchor_mix_epoch: int = 5
    seed: int = 0
    # No hidden layers by default: supervised pretraining drags the random
    # projection toward old-class directions and folds the unlabeled blobs
    # onto each other, while a linear map keeps them apart. The wide feature
    # space makes head logits move fast enough at the small fixed lr.
    hidden_dims: list[int] = field(default_factory=list)
    feature_dim: int = 384
    data_dir: str = "data"
    out_dir: str = "out"
    opm_softmax: str = "joint"
    anchor_labels: str = "onehot"
    disable_openmix: bool = False

    def validate(self) -> "RunConfig":
        check_finite_floats(self)
        if not 0.0 < self.theta1 < 1.0:
            raise ConfigError("theta1 must be in (0, 1)")
        if not 0.5 < self.theta2 < 1.0:
            raise ConfigError("theta2 must be in (0.5, 1)")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("lambda1 and lambda2 must be >= 0")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be > 0")
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if not 0.0 <= self.rmsprop_rho < 1.0:
            raise ConfigError("rmsprop_rho must be in [0, 1)")
        if self.rmsprop_eps <= 0:
            raise ConfigError("rmsprop_eps must be > 0")
        if min(self.batch_labeled, self.batch_unlabeled, self.batch_mixed) < 1:
            raise ConfigError("batch sizes must be >= 1")
        if min(self.pretrain_epochs, self.cluster_epochs, self.freeze_epochs) < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.labeled_mix_epoch < 1 or self.anchor_mix_epoch < 1:
            raise ConfigError("injection epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.opm_softmax not in ("joint", "per_head"):
            raise ConfigError("opm_softmax must be 'joint' or 'per_head'")
        if self.anchor_labels not in ("onehot", "soft"):
            raise ConfigError("anchor_labels must be 'onehot' or 'soft'")
        if self.feature_dim < 1 or any(d < 1 for d in self.hidden_dims):
            raise ConfigError("model dims must be >= 1")
        return self


def load_run_config(path: str, overrides: list[str] | None = None) -> RunConfig:
    """Read a RunConfig file, apply overrides, and validate."""
    cfg = parse_flat(read_text(path, "config", ConfigError), RunConfig)
    if overrides:
        apply_overrides(cfg, overrides)
    return cfg.validate()
