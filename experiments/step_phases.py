"""Median time of each phase of one training step at the default geometry.

Runs one pretrain step and one mixed clustering step phase by phase, in
the order and with the calls that train.pretrain and train.cluster_train
make, and prints the median microseconds of each phase over the repeats.
Last comes the end-of-epoch scoring of the whole unlabeled pool:

    PYTHONPATH=src python3 experiments/step_phases.py [--repeats 400] [--seed 0]

The data is SplitSpec(seed) and the config the default RunConfig. The
model is pretrained on the default schedule, gets its new head and then
clusters for a few epochs, so that anchors exist for the anchor half of
the mixed batch. The clustering step is timed unfrozen with both mixing
sources on, as in most of a default run. Both backward phases add into
the optimizer's gradient buffer, so the mixed rows' backward includes the
sum of the two gradients. Every repeat takes a real optimizer step, so
the parameters drift a little, as in training.

BLAS threading is pinned to one thread before numpy loads. The whole run
takes about 3 s on a 2-core Xeon.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402

from openmix import data, losses, mixing, nn, train  # noqa: E402
from openmix.config import RunConfig  # noqa: E402
from openmix.optim import RmspropState  # noqa: E402

WARMUP = 20


class Clock:
    """Lap timer: lap(name) books the time since the previous lap under name."""

    def __init__(self) -> None:
        self.laps: dict[str, list[int]] = {}
        self._last = 0

    def start(self) -> None:
        self._last = time.perf_counter_ns()

    def lap(self, name: str) -> None:
        now = time.perf_counter_ns()
        self.laps.setdefault(name, []).append(now - self._last)
        self._last = now


def full_batches(dataset, size: int, seed: int) -> list[np.ndarray]:
    return [idx for idx in data.batch_iter(dataset, size, seed, 1) if len(idx) == size]


def pretrain_steps(model, labeled, cfg: RunConfig, repeats: int) -> Clock:
    opt = RmspropState(model, cfg.lr, cfg.rmsprop_rho, cfg.rmsprop_eps)
    onehot = labeled.one_hot()
    batches = full_batches(labeled, cfg.batch_labeled, cfg.seed)
    clock = Clock()
    for r in range(repeats):
        idx = batches[r % len(batches)]
        clock.start()
        x = labeled.x[idx]
        y = onehot[idx]
        clock.lap("gather")
        acts, z_l, _ = train.finite_logits(nn.forward(model, x), "labeled-batch", 1)
        clock.lap("forward")
        loss, g_l = losses.cross_entropy(z_l, y)
        train._check_finite(loss, "cross-entropy loss", 1)
        clock.lap("loss (cross-entropy)")
        nn.backward(model, x, acts, g_l, None, opt.grad)
        clock.lap("backward")
        opt.step(model)
        clock.lap("optimizer step")
    return clock


def cluster_steps(model, ds: data.Dataset, cfg: RunConfig, repeats: int) -> Clock:
    labeled, unlabeled = ds.labeled, ds.unlabeled
    opt = RmspropState(model, cfg.lr, cfg.rmsprop_rho, cfg.rmsprop_eps)
    onehot = labeled.one_hot()
    _, z_u_pool = train.finite_logits(nn.logits(model, unlabeled.x), "unlabeled-pool", 1)
    anchors = mixing.select_anchors(z_u_pool, cfg.theta2)
    use_anchors = len(anchors) > 0
    mix_rng = np.random.default_rng([cfg.seed, 1])
    batches = full_batches(unlabeled, cfg.batch_unlabeled, cfg.seed)
    rows = slice(cfg.batch_unlabeled, cfg.batch_unlabeled + cfg.batch_mixed)
    clock = Clock()
    for r in range(repeats):
        idx = batches[r % len(batches)]
        clock.start()
        x = unlabeled.x[idx]
        n = x.shape[0]
        clock.lap("gather")
        mixed = mixing.build_mixed_batch(
            cfg.batch_mixed, labeled.x, onehot, unlabeled.x, anchors, cfg.epsilon,
            mix_rng, use_labeled=True, use_anchors=use_anchors,
        )
        stacked = np.concatenate([x, mixed.m, unlabeled.x[mixed.unl_rows]])
        clock.lap("mixed-batch build")
        acts, z_l, z_u = train.finite_logits(nn.forward(model, stacked), "unlabeled-batch", 1)
        clock.lap("forward (stacked)")
        ppl, g_ppl, pll, g_pll = losses.clustering_losses(z_u[:n], cfg.theta1, cfg.theta2)
        train._check_finite(ppl, "pairwise similarity loss", 1)
        train._check_finite(pll, "pseudo-label loss", 1)
        g_zu = g_ppl + cfg.lambda1 * g_pll
        clock.lap("loss (PPL+PLL)")
        nn.backward(model, x, [a[:n] for a in acts], None, g_zu, opt.grad)
        clock.lap("backward, unlabeled rows")
        v = mixing.mixed_labels(mixed, nn.softmax(z_u[rows.stop :]))
        clock.lap("mixed labels")
        opm, g_zl_m, g_zu_m = mixing.opm_loss(z_l[rows], z_u[rows], v)
        train._check_finite(opm, "mixing loss", 1)
        clock.lap("loss (OPM)")
        nn.backward(
            model, mixed.m, [a[rows] for a in acts],
            cfg.lambda2 * g_zl_m, cfg.lambda2 * g_zu_m, opt.grad,
        )
        clock.lap("backward, mixed rows")
        opt.step(model)
        clock.lap("optimizer step")
    return clock


def pool_scoring(model, unlabeled, repeats: int) -> Clock:
    clock = Clock()
    for _ in range(repeats):
        clock.start()
        train.finite_logits(nn.logits(model, unlabeled.x), "unlabeled-pool", 1)
        clock.lap(f"pool scoring ({len(unlabeled)} rows)")
    return clock


def report(title: str, clock: Clock) -> None:
    laps = {name: ns[WARMUP:] for name, ns in clock.laps.items()}
    steps = len(next(iter(laps.values())))
    print(f"{title}: median us per phase over {steps} steps")
    for name, ns in laps.items():
        print(f"  {name:<26}{statistics.median(ns) / 1e3:9.1f}")
    if len(laps) > 1:
        totals = [sum(step) for step in zip(*laps.values())]
        print(f"  {'whole step':<26}{statistics.median(totals) / 1e3:9.1f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=400)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if args.repeats <= WARMUP:
        ap.error(f"--repeats must exceed the {WARMUP} warm-up steps")

    ds = data.generate_blobs(data.SplitSpec(seed=args.seed))
    cfg = RunConfig(seed=args.seed).validate()
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    train.pretrain(model, ds.labeled, cfg)
    report("pretrain step", pretrain_steps(model, ds.labeled, cfg, args.repeats))

    train.attach_new_head(model, ds.c_u, train.stream_seed(cfg.seed, train.TAG_HEAD))
    warm = dataclasses.replace(cfg, cluster_epochs=10, freeze_epochs=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        train.cluster_train(model, ds, warm)
    report("mixed clustering step", cluster_steps(model, ds, cfg, args.repeats))
    report("pool scoring", pool_scoring(model, ds.unlabeled, args.repeats))


if __name__ == "__main__":
    main()
