"""Two-stage training: supervised pretraining, then clustering of new classes.

Stage 1 trains backbone and old head with cross-entropy on labeled data.
Stage 2 re-initializes the new head and trains with the clustering losses,
optionally adding the mixing loss on one mixed batch per step; the backbone
stays frozen for the first freeze_epochs. Every random stream is derived
from the master seed, so a (config, dataset) pair fully determines the run.
"""

from __future__ import annotations

import typing
import warnings
from dataclasses import dataclass

import numpy as np

from . import losses, metrics, mixing, nn
from .config import RunConfig
from .data import Dataset, HiddenTruth, LabeledSet, batch_iter
from .fileio import write_atomic
from .optim import RmspropState


class DivergenceError(Exception):
    """Raised when a loss turns non-finite; names the offending component."""


# stream tags for deriving independent rngs from the master seed
TAG_INIT = 1
TAG_HEAD = 2
TAG_STAGE1 = 3
TAG_STAGE2 = 4
TAG_MIX = 5


def stream_seed(master: int, tag: int) -> int:
    return int(np.random.SeedSequence([master, tag]).generate_state(1)[0])


@dataclass
class EpochReport:
    """One clustering epoch: metrics at epoch end, anchors at epoch start."""

    epoch: int
    acc: float
    nmi: float
    loss_ppl: float
    loss_pll: float
    loss_opm: float
    anchor_count: int
    anchor_acc: float  # nan when anchor_count == 0


def build_model(cfg: RunConfig, input_dim: int, c_l: int, c_u: int) -> nn.TwoHeadMLP:
    """Freshly initialized model with geometry from config and data."""
    return nn.init_model(
        input_dim, cfg.hidden_dims, cfg.feature_dim, c_l, c_u,
        stream_seed(cfg.seed, TAG_INIT),
    )


def _check_finite(value: float, component: str, epoch: int) -> None:
    if not np.isfinite(value):
        raise DivergenceError(f"{component} became non-finite at epoch {epoch}")


def finite_logits(out: tuple, component: str, epoch: int | None = None) -> tuple:
    """out, an nn.forward result, or DivergenceError if a logit is non-finite."""
    if not (np.isfinite(out[-2]).all() and np.isfinite(out[-1]).all()):
        at = "" if epoch is None else f" at epoch {epoch}"
        raise DivergenceError(f"{component} logits became non-finite{at}")
    return out


def pretrain(model: nn.TwoHeadMLP, labeled: LabeledSet, cfg: RunConfig) -> float:
    """Stage 1: cross-entropy on old classes. Returns final training accuracy.

    It runs on a view of model with a zero-width new head and the same backbone
    and old-head arrays, so steps update model in place. model.new_head, which
    attach_new_head replaces, is never read or written and holds no RMSprop state.
    """
    if len(labeled) == 0:
        raise ValueError("labeled set is empty")
    no_new = nn.Affine(np.empty((model.feature_dim, 0)), np.empty(0))
    net = nn.TwoHeadMLP(model.backbone, model.old_head, no_new)
    opt = RmspropState(net, cfg.lr)
    onehot = labeled.one_hot()
    seed = stream_seed(cfg.seed, TAG_STAGE1)
    for epoch in range(1, cfg.pretrain_epochs + 1):
        for idx in batch_iter(labeled, cfg.batch_labeled, seed, epoch):
            acts, z_l, _ = finite_logits(nn.forward(net, labeled.x[idx]), "labeled-batch", epoch)
            loss, g_l = losses.cross_entropy(z_l, onehot[idx])
            _check_finite(loss, "cross-entropy loss", epoch)
            nn.backward(net, acts, g_l, None, opt.grad)
            opt.step(net)
            # an overflowed moment would silently freeze its parameter: g / inf = 0
            _check_finite(opt.flat.max(), "RMSprop second moments", epoch)
    _, z_l, _ = finite_logits(nn.forward(net, labeled.x), "labeled-set", cfg.pretrain_epochs)
    return float((z_l.argmax(axis=1) == labeled.y).mean())


def attach_new_head(model: nn.TwoHeadMLP, c_u: int, seed: int) -> None:
    """Replace the new head with a seeded fresh one; everything else is kept."""
    rng = np.random.default_rng(seed)
    model.new_head = nn._init_affine(model.feature_dim, c_u, rng)


def evaluate(
    pool_pred: np.ndarray, truth: HiddenTruth, num_classes: int
) -> tuple[float, float, np.ndarray]:
    """ACC, NMI and best-map hit mask of the pool's cluster assignments vs. the hidden truth."""
    labels = truth.labels_for_eval()
    hits = metrics.best_map_hits(pool_pred, labels, num_classes)
    return float(hits.mean()), metrics.nmi(pool_pred, labels), hits


def cluster_train(
    model: nn.TwoHeadMLP, dataset: Dataset, cfg: RunConfig
) -> list[EpochReport]:
    """Stage 2: clustering losses plus, when active, the mixing loss.

    Per epoch: select anchors from the pool's logits, then for each
    unlabeled batch compute the pairwise and pseudo-label losses and, once
    mixing is injected, the mixing loss on one freshly built mixed batch; a
    single optimizer step applies the combined gradient. One forward pass
    per step serves all three: the batch, the mixed batch and the mixed
    batch's unlabeled rows, stacked. The pool is scored by one whole-pool
    nn.forward, its activations dropped, once before the first epoch and
    once after each, for that epoch's evaluation and the next epoch's
    anchors and their accuracy. Both backwards add into opt.grad; the old
    head is silent in the unlabeled batch's, and the backbone gets nothing
    while epoch <= freeze_epochs.
    """
    labeled, unlabeled, truth = dataset.labeled, dataset.unlabeled, dataset.truth
    if len(unlabeled) < 2:
        raise ValueError("clustering needs at least 2 unlabeled examples")
    opt = RmspropState(model, cfg.lr)
    onehot = labeled.one_hot()
    batch_seed = stream_seed(cfg.seed, TAG_STAGE2)
    mix_seed = stream_seed(cfg.seed, TAG_MIX)
    openmix_on = cfg.lambda2 > 0 and not cfg.disable_openmix

    reports: list[EpochReport] = []
    warned_no_anchors = False
    z_u_pool = finite_logits(nn.forward(model, unlabeled.x), "unlabeled-pool", 1)[-1]
    pool_hits = metrics.best_map_hits(
        z_u_pool.argmax(axis=1), truth.labels_for_eval(), unlabeled.num_classes
    )
    for epoch in range(1, cfg.cluster_epochs + 1):
        anchors = mixing.select_anchors(z_u_pool, cfg.theta2)
        del z_u_pool  # the end-of-epoch scoring then holds one set of pool logits
        # an anchor's max softmax is at least theta2 > 0.5, so its captured
        # cluster is its pool row's argmax and its hit is that row's hit
        anchor_acc = float(pool_hits[anchors.indices].mean()) if len(anchors) else float("nan")

        want_labeled = epoch >= cfg.labeled_mix_epoch
        want_anchor = epoch >= cfg.anchor_mix_epoch
        if want_anchor and len(anchors) == 0:
            if openmix_on and not warned_no_anchors:
                warnings.warn(
                    f"epoch {epoch}: anchor mixing skipped, no anchors cleared"
                    " theta2 (warned once per run)",
                    stacklevel=2,
                )
                warned_no_anchors = True
            want_anchor = False
        mix_active = openmix_on and (want_labeled or want_anchor)
        mix_rng = np.random.default_rng([mix_seed, epoch])
        frozen = epoch <= cfg.freeze_epochs

        ppl_sum = pll_sum = opm_sum = 0.0
        n_batches = 0
        for idx in batch_iter(unlabeled, cfg.batch_unlabeled, batch_seed, epoch):
            x = unlabeled.x[idx]
            n = x.shape[0]
            if mix_active:
                mixed = mixing.build_mixed_batch(
                    cfg.batch_mixed,
                    labeled.x,
                    onehot,
                    unlabeled.x,
                    anchors,
                    cfg.epsilon,
                    mix_rng,
                    use_labeled=want_labeled,
                    use_anchors=want_anchor,
                )
                stacked = np.concatenate([x, mixed.m, unlabeled.x[mixed.unl_rows]])
            else:
                stacked = x
            acts, z_l, z_u = finite_logits(nn.forward(model, stacked), "unlabeled-batch", epoch)

            ppl, g_ppl, pll, g_pll = losses.clustering_losses(
                z_u[:n], cfg.theta1, cfg.theta2
            )
            _check_finite(ppl, "pairwise similarity loss", epoch)
            _check_finite(pll, "pseudo-label loss", epoch)
            g_zu = g_ppl + cfg.lambda1 * g_pll
            nn.backward(model, [a[:n] for a in acts], None, g_zu, opt.grad, frozen)

            if mix_active:
                rows = slice(n, n + cfg.batch_mixed)
                # mixing targets come from the current parameters, as constants
                v = mixing.mixed_labels(mixed, nn.softmax(z_u[rows.stop :]))
                opm, g_zl_m, g_zu_m = mixing.opm_loss(z_l[rows], z_u[rows], v)
                _check_finite(opm, "mixing loss", epoch)
                nn.backward(
                    model, [a[rows] for a in acts],
                    cfg.lambda2 * g_zl_m, cfg.lambda2 * g_zu_m, opt.grad, frozen,
                )
                opm_sum += opm

            opt.step(model)
            # an overflowed moment would silently freeze its parameter: g / inf = 0
            _check_finite(opt.flat.max(), "RMSprop second moments", epoch)
            ppl_sum += ppl
            pll_sum += pll
            n_batches += 1

        z_u_pool = finite_logits(nn.forward(model, unlabeled.x), "unlabeled-pool", epoch)[-1]
        epoch_acc, epoch_nmi, pool_hits = evaluate(
            z_u_pool.argmax(axis=1), truth, unlabeled.num_classes
        )
        reports.append(
            EpochReport(
                epoch=epoch,
                acc=epoch_acc,
                nmi=epoch_nmi,
                loss_ppl=ppl_sum / n_batches,
                loss_pll=pll_sum / n_batches,
                loss_opm=opm_sum / n_batches,
                anchor_count=len(anchors),
                anchor_acc=anchor_acc,
            )
        )
    return reports


# (name, declared type) of each metrics.csv column, in EpochReport's field order
_COLUMNS = list(typing.get_type_hints(EpochReport).items())
METRICS_HEADER = ",".join(name for name, _ in _COLUMNS)


def write_metrics_csv(path: str, reports: list[EpochReport]) -> None:
    """One row per epoch; ints use str, floats shortest round-trip repr (nan stays nan)."""
    lines = [METRICS_HEADER]
    for r in reports:
        cells = (
            str(getattr(r, name)) if typ is int else repr(float(getattr(r, name)))
            for name, typ in _COLUMNS
        )
        lines.append(",".join(cells))
    write_atomic(path, (("\n".join(lines) + "\n").encode("utf-8"),))
