"""Run configuration: flat `key = value` files with strict key checking."""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field

from .fileio import read_text


class ConfigError(Exception):
    """Raised for unknown keys, bad values, or failed validation."""


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


def _set(cfg, item: str, where: str) -> None:
    """Set one `key=value` item on a config dataclass; `where` names it in errors."""
    if "=" not in item:
        raise ConfigError(f"{where}: {item!r} is not key=value")
    key, _, value = item.partition("=")
    key = key.strip()
    # field.type is a string under deferred annotations; resolve to real types
    types = typing.get_type_hints(type(cfg))
    if key not in types:
        raise ConfigError(f"{where}: unknown key {key!r}")
    setattr(cfg, key, _coerce(key, value, types[key]))


def parse_flat(text: str, cls):
    """Fill a config dataclass from `key = value` lines.

    Blank lines and lines starting with '#' are ignored. Keys not declared
    on the dataclass are rejected.
    """
    cfg = cls()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            _set(cfg, stripped, f"line {lineno}")
    return cfg


# Widest layer a model may have (a dataset's input_dim, each hidden width,
# feature_dim): a square weight matrix at this width takes 128 MB, and a
# pool forward holds 32 KB per pool row for each hidden layer this wide.
MAX_WIDTH = 2**12

# Hidden stack a model may have: this many hidden widths, and as many weights
# joining them and feature_dim as one square layer at MAX_WIDTH (128 MB), so
# the backbone, input layer included, keeps within 256 MB per model-sized vector.
MAX_HIDDEN_LAYERS = 2**6
MAX_STACK_WEIGHTS = 2**24


def check_hidden_stack(hidden_dims: list[int], feature_dim: int, error=ConfigError) -> None:
    """Raise error(message) unless the widths lie in [1, MAX_WIDTH] and the stack is capped."""
    if len(hidden_dims) > MAX_HIDDEN_LAYERS:
        raise error(f"hidden_dims must hold at most {MAX_HIDDEN_LAYERS} widths")
    dims = [*hidden_dims, feature_dim]
    if not all(1 <= d <= MAX_WIDTH for d in dims):
        raise error(f"feature_dim and hidden_dims must be in [1, {MAX_WIDTH}]")
    if sum(a * b for a, b in zip(dims, dims[1:])) > MAX_STACK_WEIGHTS:
        raise error(f"hidden_dims and feature_dim must hold <= {MAX_STACK_WEIGHTS} weights")

# Largest mixed batch: it is drawn with replacement, so no dataset bounds it.
# The stacked forward holds 2 * batch_mixed rows of the widest layer, 256 MB
# at the cap and MAX_WIDTH.
MAX_BATCH_MIXED = 2**12


@dataclass
class RunConfig:
    """All thresholds, weights, schedule knobs, seeds, and paths for a run."""

    theta1: float = 0.95
    theta2: float = 0.9
    lambda1: float = 5.0
    lambda2: float = 1000.0
    epsilon: float = 1.0
    lr: float = 0.0001
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
        if min(self.batch_labeled, self.batch_unlabeled, self.batch_mixed) < 1:
            raise ConfigError("batch sizes must be >= 1")
        if self.batch_mixed > MAX_BATCH_MIXED:
            raise ConfigError(f"batch_mixed must be <= {MAX_BATCH_MIXED}")
        if min(self.pretrain_epochs, self.cluster_epochs, self.freeze_epochs) < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.labeled_mix_epoch < 1 or self.anchor_mix_epoch < 1:
            raise ConfigError("injection epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        check_hidden_stack(self.hidden_dims, self.feature_dim)
        return self


def load_run_config(path: str, overrides: typing.Sequence[str] = ()) -> RunConfig:
    """Read a RunConfig file, apply `--set key=value` overrides in order, and validate."""
    cfg = parse_flat(read_text(path, "config", ConfigError), RunConfig)
    for item in overrides:
        _set(cfg, item, "override")
    return cfg.validate()
