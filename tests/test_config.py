"""Config parsing, overrides, and validation bounds."""

import dataclasses
import re
from pathlib import Path

import pytest

from openmix.config import (
    MAX_BATCH_MIXED,
    MAX_BATCH_UNLABELED,
    MAX_HIDDEN_LAYERS,
    MAX_STACK_WEIGHTS,
    MAX_WIDTH,
    ConfigError,
    RunConfig,
    load_run_config,
    parse_flat,
)
from openmix.data import MAX_CLASSES, MAX_SPLIT_VALUES, SplitSpec


def test_default_values():
    cfg = RunConfig()
    assert cfg.theta1 == 0.95
    assert cfg.theta2 == 0.9
    assert cfg.lambda1 == 5.0
    assert cfg.lambda2 == 1000.0
    assert cfg.epsilon == 1.0
    assert cfg.lr == 0.0001
    assert cfg.batch_labeled == cfg.batch_unlabeled == cfg.batch_mixed == 64
    assert cfg.labeled_mix_epoch == 2
    assert cfg.anchor_mix_epoch == 5
    assert cfg.pretrain_epochs == 100
    assert cfg.hidden_dims == []
    assert not cfg.disable_openmix
    cfg.validate()


def _readme_block(intro):
    """The fenced block that follows the README paragraph starting with intro."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    match = re.search(re.escape(intro) + r".*?\n```\n(.*?)```", text, re.S)
    assert match, intro
    return match.group(1)


def test_readme_config_examples_parse_to_the_defaults():
    spec = parse_flat(_readme_block("`blobs.spec` describes"), SplitSpec)
    assert spec == SplitSpec()
    block = _readme_block("`run.cfg` holds")
    keys = [line.partition("=")[0].strip() for line in block.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(RunConfig))
    assert parse_flat(block, RunConfig) == RunConfig()


def test_parse_flat_skips_blank_and_comments():
    text = "\n# comment\n  \ntheta1 = 0.5\n\nseed=7\n"
    cfg = parse_flat(text, RunConfig)
    assert cfg.theta1 == 0.5
    assert cfg.seed == 7
    assert cfg.theta2 == 0.9


def test_parse_flat_unknown_key_names_line():
    with pytest.raises(ConfigError, match="line 3"):
        parse_flat("# a\ntheta1 = 0.5\nbogus = 1\n", RunConfig)


def test_parse_flat_missing_equals_names_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_flat("theta1 = 0.5\njust words\n", RunConfig)


def test_parse_flat_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        parse_flat("theta1 = warm\n", RunConfig)


def test_parse_list_of_ints():
    cfg = parse_flat("hidden_dims = 64, 32\n", RunConfig)
    assert cfg.hidden_dims == [64, 32]
    cfg = parse_flat("hidden_dims =\n", RunConfig)
    assert cfg.hidden_dims == []


def test_parse_bool_spellings():
    for raw, want in [("true", True), ("1", True), ("yes", True),
                      ("false", False), ("0", False), ("no", False)]:
        cfg = parse_flat(f"disable_openmix = {raw}\n", RunConfig)
        assert cfg.disable_openmix is want
    with pytest.raises(ConfigError):
        parse_flat("disable_openmix = maybe\n", RunConfig)


def test_load_run_config_overrides_order_and_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("")
    cfg = load_run_config(str(path), ["seed=3", "seed=4", "lr=0.01"])
    assert cfg.seed == 4
    assert cfg.lr == 0.01
    with pytest.raises(ConfigError, match="unknown key"):
        load_run_config(str(path), ["nope=1"])
    with pytest.raises(ConfigError, match="not key=value"):
        load_run_config(str(path), ["seed"])


@pytest.mark.parametrize(
    "field,value",
    [
        ("theta1", 0.0),
        ("theta1", 1.0),
        ("theta2", 0.5),
        ("theta2", 1.0),
        ("lambda1", -1.0),
        ("lambda2", -0.5),
        ("epsilon", 0.0),
        ("lr", 0.0),
        ("batch_unlabeled", 0),
        ("pretrain_epochs", -1),
        ("labeled_mix_epoch", 0),
        ("anchor_mix_epoch", 0),
        ("feature_dim", 0),
        ("hidden_dims", [8, 0]),
    ],
)
def test_validate_rejects(field, value):
    cfg = RunConfig()
    setattr(cfg, field, value)
    with pytest.raises(ConfigError):
        cfg.validate()


@pytest.mark.parametrize(
    "cls,field,value",
    [
        (RunConfig, "lr", float("nan")),
        (RunConfig, "lr", float("inf")),
        (RunConfig, "lambda1", float("nan")),
        (RunConfig, "lambda2", float("nan")),
        (RunConfig, "epsilon", float("inf")),
        (SplitSpec, "separation", float("nan")),
        (RunConfig, "batch_unlabeled", MAX_BATCH_UNLABELED + 1),
        (RunConfig, "seed", -1),
        (SplitSpec, "seed", -1),
        (RunConfig, "feature_dim", 10**12),
        (RunConfig, "feature_dim", MAX_WIDTH + 1),
        (RunConfig, "hidden_dims", [10**11]),
        (RunConfig, "hidden_dims", [32, MAX_WIDTH + 1]),
        (SplitSpec, "per_class", 10**12),
        (SplitSpec, "per_class", MAX_SPLIT_VALUES // (10 * 16) + 1),
        (RunConfig, "batch_mixed", MAX_BATCH_MIXED + 1),
        (SplitSpec, "input_dim", MAX_WIDTH + 1),
    ],
)
def test_validate_rejects_non_finite_and_out_of_range(cls, field, value):
    cfg = cls()
    setattr(cfg, field, value)
    with pytest.raises(ConfigError, match=field):
        cfg.validate()


def test_hidden_stack_caps_depth_and_weights():
    # at each cap the config validates, one past it not
    at_depth = RunConfig(hidden_dims=[1] * MAX_HIDDEN_LAYERS, feature_dim=1)
    at_weights = RunConfig(hidden_dims=[MAX_WIDTH], feature_dim=MAX_STACK_WEIGHTS // MAX_WIDTH)
    assert at_depth.validate() and at_weights.validate()
    at_depth.hidden_dims.append(1)
    with pytest.raises(ConfigError, match=f"at most {MAX_HIDDEN_LAYERS} widths"):
        at_depth.validate()
    at_weights.hidden_dims.insert(0, 1)  # a width-1 layer in front adds MAX_WIDTH weights
    with pytest.raises(ConfigError, match=f"<= {MAX_STACK_WEIGHTS} weights"):
        at_weights.validate()


def test_split_value_cap_bounds_class_counts():
    # input_dim >= c_l + c_u, so a split with more classes than a dataset may
    # declare already holds too many values
    spec = SplitSpec(c_l=1, c_u=MAX_CLASSES, per_class=1, input_dim=MAX_CLASSES + 1)
    with pytest.raises(ConfigError, match="per_class"):
        spec.validate()


def test_load_run_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 11\nlambda2 = 0\n# trailing comment\n")
    cfg = load_run_config(str(path), overrides=["theta1=0.9"])
    assert cfg.seed == 11
    assert cfg.lambda2 == 0.0
    assert cfg.theta1 == 0.9


def test_load_run_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_run_config("/nonexistent/run.cfg")
