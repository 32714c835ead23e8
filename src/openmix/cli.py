"""Command-line interface: dataset generation, the two training stages,
evaluation, and the mixing-reliability analysis report."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import nn, theory, train
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ConfigError, load_run_config
from .data import (
    DataFormatError,
    Dataset,
    generate_blobs,
    load_dataset,
    load_split_spec,
    save_dataset,
)

DATASET_FILE = "dataset.csv"
PRETRAIN_FILE = "pretrained.omx"
MODEL_FILE = "model.omx"
METRICS_FILE = "metrics.csv"
# Largest `analyze --samples`. The report folds each block of
# theory.BLOCK_ROWS cases into its numbers as the block arrives, so its
# memory does not grow with n: the cap bounds run time, not memory.
MAX_SAMPLES = 10**7


def _load_data(data_dir: str) -> Dataset:
    return load_dataset(os.path.join(data_dir, DATASET_FILE))


def _check_geometry(model, ds: Dataset, expect_c_u: bool) -> None:
    if model.input_dim != ds.input_dim:
        raise CheckpointError(
            f"checkpoint input_dim {model.input_dim} != dataset {ds.input_dim}"
        )
    if model.c_l != ds.c_l:
        raise CheckpointError(f"checkpoint C_l {model.c_l} != dataset {ds.c_l}")
    if expect_c_u and model.c_u != ds.c_u:
        raise CheckpointError(f"checkpoint C_u {model.c_u} != dataset {ds.c_u}")


def _cmd_gen_data(args) -> int:
    spec = load_split_spec(args.spec)
    ds = generate_blobs(spec)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, DATASET_FILE)
    save_dataset(path, ds)
    print(
        f"wrote {path}: {len(ds.labeled)} labeled + {len(ds.unlabeled)} unlabeled "
        f"examples, input_dim {ds.input_dim}, {ds.c_l}+{ds.c_u} classes"
    )
    return 0


def _cmd_pretrain(args) -> int:
    cfg = load_run_config(args.config, args.set)
    ds = _load_data(cfg.data_dir)
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    final_acc = train.pretrain(model, ds.labeled, cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, PRETRAIN_FILE)
    save_checkpoint(path, model)
    print(f"final labeled training accuracy: {final_acc:.4f}")
    print(f"wrote {path}")
    return 0


def _cmd_cluster(args) -> int:
    cfg = load_run_config(args.config, args.set)
    ds = _load_data(cfg.data_dir)
    model = load_checkpoint(args.checkpoint)
    _check_geometry(model, ds, expect_c_u=False)
    train.attach_new_head(model, ds.c_u, train.stream_seed(cfg.seed, train.TAG_HEAD))
    reports = train.cluster_train(model, ds, cfg)
    os.makedirs(cfg.out_dir, exist_ok=True)
    model_path = os.path.join(cfg.out_dir, MODEL_FILE)
    metrics_path = os.path.join(cfg.out_dir, METRICS_FILE)
    save_checkpoint(model_path, model)
    train.write_metrics_csv(metrics_path, reports)
    if reports:
        last = reports[-1]
        print(f"final ACC {last.acc:.4f}  NMI {last.nmi:.4f}")
    print(f"wrote {model_path}")
    print(f"wrote {metrics_path}")
    return 0


def _cmd_eval(args) -> int:
    model = load_checkpoint(args.checkpoint)
    ds = _load_data(args.data)
    _check_geometry(model, ds, expect_c_u=True)
    _, _, z_u = train.finite_logits(nn.forward(model, ds.unlabeled.x), "unlabeled-pool")
    acc, nmi, _ = train.evaluate(z_u.argmax(axis=1), ds.truth, ds.c_u)
    print(f"ACC {acc:.6f}")
    print(f"NMI {nmi:.6f}")
    return 0


def _cmd_analyze(args) -> int:
    n = args.samples
    if not 1 <= n <= MAX_SAMPLES or args.seed < 0:
        raise ConfigError(f"analyze needs --samples >= 1 and <= {MAX_SAMPLES}, and --seed >= 0")
    error, difference = theory.mixup_error(theory.worked_counterexample())
    print("mixing-reliability report")
    print(
        f"worked counterexample: mixed-label error {error:.6g}, "
        f"difference vs own pseudo-label {difference:.6g}"
    )
    witnesses = sum(int((diffs < 0).sum()) for diffs in theory.mixup_blocks(n, args.seed))
    print(f"plain mixing: {witnesses}/{n} random cases got less reliable")
    holds, low, mean, gap = _fold_inequality(n, args.seed)
    print(
        f"clean-labeled mixing: {holds}/{n} cases hold, min difference {low:.6g}, "
        f"mean {mean:.6g}, max route disagreement {gap:.3g}"
    )
    return 0


def _fold_inequality(n: int, seed: int) -> tuple[int, float, float, float]:
    """theory.inequality_blocks' holds count, min, mean and largest route gap, block by block."""
    holds, low, total, gap = 0, np.inf, 0.0, 0.0
    for direct, closed in theory.inequality_blocks(n, seed):
        holds += int((direct >= -theory.AGREEMENT_TOL).sum())
        low = min(low, direct.min())
        total += direct.sum()
        gap = max(gap, np.abs(direct - closed).max())
    return holds, low, total / n, gap


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="omx",
        description="Novel-class discovery on synthetic blobs: generate data, "
        "pretrain on old classes, cluster new ones, evaluate, analyze mixing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a dataset from a split spec")
    p.add_argument("--spec", required=True, help="split spec file (key = value)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("pretrain", help="stage 1: supervised training on old classes")
    p.add_argument("--config", required=True, help="run config file (key = value)")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config key")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("cluster", help="stage 2: cluster the unlabeled new classes")
    p.add_argument("--config", required=True)
    p.add_argument("--checkpoint", required=True, help="stage-1 checkpoint")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("eval", help="print ACC and NMI of a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True, help="directory holding dataset.csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze", help="mixing label-reliability report")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_analyze)

    args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # a divergence check names the overflow
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not in the shutdown flush
        return code
    except BrokenPipeError:
        # the reader closed stdout early (`omx analyze | head -1`): stop
        # quietly, and let the shutdown flush write to devnull, not the pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except train.DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return 3
    except (CheckpointError, DataFormatError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
