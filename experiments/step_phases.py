"""Median time of each phase of a training step, timed inside the trainer.

Runs the real train.pretrain and train.cluster_train with a timer around
each function in WRAPPED, splits the timed calls into steps at each optimizer
step and prints the median microseconds of each phase: of a pretrain step, of
a mixed clustering step (its "backward, call 2" is the mixed rows') and of the
calls between clustering epochs, where an nn.forward of the whole unlabeled
pool is "pool scoring", not a step's forward. "trainer's own" is the time of
a step that no timed call covers: gathers, stacking, slicing and finiteness
checks.

    PYTHONPATH=src python3 experiments/step_phases.py [--repeats 400] [--seed 0]

Data SplitSpec(seed), config the default RunConfig, pretrain its schedule.
With its new head the model clusters 10 epochs untimed and unfrozen, so that
anchors exist, then, timed, the whole epochs that hold --repeats steps,
unfrozen and mixing with labeled rows and anchors from the first. A wrapped
function that records no call ends the tool with exit 1 and its name. BLAS
runs on one thread; the whole run takes about 3 s on a 2-core Xeon.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import replace  # noqa: E402

from openmix import data, losses, mixing, nn, train  # noqa: E402
from openmix.config import RunConfig  # noqa: E402
from openmix.optim import RmspropState  # noqa: E402

# (owner, attribute, phase); the calls of one step that share a phase add up
WRAPPED = [
    (mixing, "build_mixed_batch", "mixed-batch build"),
    (nn, "forward", "forward"),
    (losses, "cross_entropy", "loss (cross-entropy)"),
    (losses, "clustering_losses", "loss (PPL+PLL)"),
    (nn, "backward", "backward"),
    (nn, "softmax", "mixed labels"),
    (mixing, "mixed_labels", "mixed labels"),
    (mixing, "opm_loss", "loss (OPM)"),
    (RmspropState, "step", "optimizer step"),
    (mixing, "select_anchors", "anchor refresh"),
    (train, "evaluate", "evaluation"),
]
POOL_FORWARD = "nn.forward of the pool"
PHASE = {f"{owner.__name__.rpartition('.')[2]}.{attr}": p for owner, attr, p in WRAPPED}
PHASE[POOL_FORWARD] = "pool scoring"
BETWEEN_EPOCHS = ("anchor refresh", "pool scoring", "evaluation")


@contextlib.contextmanager
def timed_calls(pool=None):
    """Wrap WRAPPED while open; yields the (name, start ns, end ns) of each call.

    An nn.forward whose batch is the array pool is named POOL_FORWARD.

    No wrapped function calls another through its wrapped attribute, so the
    calls never nest."""
    calls: list[tuple[str, int, int]] = []

    def wrap(name, fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter_ns()
            out = fn(*args, **kwargs)
            t1 = time.perf_counter_ns()
            pooled = name == "nn.forward" and args[1] is pool
            calls.append((POOL_FORWARD if pooled else name, t0, t1))
            return out

        return timed

    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in WRAPPED]
    try:
        for (owner, attr, fn), name in zip(saved, PHASE):
            setattr(owner, attr, wrap(name, fn))
        yield calls
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def split_steps(calls) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """Per-phase ns of each step that starts after a step or a between-epochs call,
    and ns of each between-epochs call."""
    steps, between = [], {p: [] for p in BETWEEN_EPOCHS}
    step, seen, start = {}, {}, None
    for name, t0, t1 in calls:
        phase = PHASE[name]
        if phase in BETWEEN_EPOCHS:
            between[phase].append(t1 - t0)
            start = t1
            continue
        seen[name] = k = seen.get(name, 0) + 1
        phase += f", call {k}" if k > 1 else ""
        step[phase] = step.get(phase, 0) + t1 - t0
        if name == "RmspropState.step":
            if start is not None:
                step["trainer's own"] = t1 - start - sum(step.values())
                steps.append(step)
            step, seen, start = {}, {}, t1
    columns = {p: [s.get(p, 0) for s in steps] for p in dict.fromkeys(p for s in steps for p in s)}
    return {**columns, "whole step": [sum(s.values()) for s in steps]}, between


def report(title: str, columns: dict[str, list[int]], unit: str = "steps") -> None:
    print(f"{title}: median us per phase over {min(map(len, columns.values()))} {unit}")
    for phase, ns in columns.items():
        print(f"  {phase:<26}{statistics.median(ns) / 1e3:9.1f}")


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repeats", type=int, default=400, help="least number of mixed steps timed")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")

    ds = data.generate_blobs(data.SplitSpec(seed=args.seed))
    cfg = RunConfig(seed=args.seed).validate()
    model = train.build_model(cfg, ds.input_dim, ds.c_l, ds.c_u)
    with timed_calls() as pretrain_calls:
        train.pretrain(model, ds.labeled, cfg)

    train.attach_new_head(model, ds.c_u, train.stream_seed(cfg.seed, train.TAG_HEAD))
    epochs = -(-args.repeats // -(-len(ds.unlabeled) // cfg.batch_unlabeled))
    warm = replace(cfg, cluster_epochs=10, freeze_epochs=0)
    mixed = replace(warm, cluster_epochs=epochs, labeled_mix_epoch=1, anchor_mix_epoch=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        train.cluster_train(model, ds, warm)
        with timed_calls(ds.unlabeled.x) as cluster_calls:
            train.cluster_train(model, ds, mixed)

    called = {name for name, _, _ in pretrain_calls + cluster_calls}
    missing = [f"{name} ({phase})" for name, phase in PHASE.items() if name not in called]
    if missing:
        sys.exit(f"step_phases: no call recorded for {', '.join(missing)}")
    report("pretrain step", split_steps(pretrain_calls)[0])
    cluster_steps, between = split_steps(cluster_calls)
    report("mixed clustering step", cluster_steps)
    report("between clustering epochs", between, "epochs")


if __name__ == "__main__":
    main()
