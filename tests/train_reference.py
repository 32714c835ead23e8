"""Plain pretrain and three-forward clustering loops: the references the trainer must equal.

cluster_train here is the step-by-step route of train.cluster_train. Each
step forwards the unlabeled batch, the mixed batch and the mixed batch's
unlabeled rows separately; the pool is forwarded at the start of every epoch for the
anchors and again at its end for the evaluation; backward always computes
the backbone gradients and a frozen backbone masks them to zero afterwards.
Anchor accuracy takes its own route: at each epoch start, _anchor_stats
reads the truth again and solves a fresh cluster-to-class match for the
anchors' captured labels, where the trainer reuses its evaluation's mask.
The network and mixed-batch code it runs is kept here as well (the plain
forward with its fresh bias and ReLU temporaries, the backward that also
computes the input gradient, and the builder that asks a callable for the
predictions). So is the arithmetic of a step in its plain form: the
per-parameter RMSprop, the two-pass cross-entropy (log_softmax and softmax
apart), the two-log pairwise BCE with its own clip for the gradient, and
backward calls that pass explicit zero arrays for a head with no loss;
pretrain here is train.pretrain's loop in that form. The
oracle shares with openmix only the softmax, cosine and pseudo-label
primitives, the anchors, the label checks, the mix-weight draw, the OPM
loss and the metrics. train.cluster_train and train.pretrain must reproduce
its parameters, reports and accuracy bit for bit at the default geometry.
"""

import warnings

import numpy as np

from openmix import losses, metrics, mixing, nn
from openmix.data import HiddenTruth, batch_iter
from openmix.mixing import _check_one_hot, _check_simplex, sample_mix_weight
from openmix.nn import Affine, TwoHeadMLP, _check_batch, iter_params
from openmix.train import (
    TAG_MIX,
    TAG_STAGE1,
    TAG_STAGE2,
    DivergenceError,
    EpochReport,
    _check_finite,
    stream_seed,
)
from helpers import log_softmax, zeros_like_model


class RmspropState:
    """One v array per parameter, updated parameter by parameter."""

    def __init__(self, model, lr, rho, eps):
        self.lr, self.rho, self.eps = lr, rho, eps
        self.square_avg = zeros_like_model(model)

    def step(self, params, grads):
        for p, g, v in zip(iter_params(params), iter_params(grads), iter_params(self.square_avg)):
            if p.shape != g.shape:
                raise ValueError("gradient shape does not match parameter shape")
            v *= self.rho
            v += (1.0 - self.rho) * g * g
            p -= self.lr * g / (np.sqrt(v) + self.eps)


def cross_entropy(z, onehot):
    n = z.shape[0]
    loss = float(-(onehot * log_softmax(z)).sum() / n)
    return loss, (nn.softmax(z) - onehot) / n


def clustering_losses(z, theta1, theta2):
    p = nn.softmax(z)
    s = losses.similarity_matrix(p)
    w = (s >= theta1).astype(np.float64)
    n = s.shape[0]
    ppl = losses.ppl_loss_value(s, w)

    sc = np.clip(s, losses.CLAMP, 1.0 - losses.CLAMP)
    g = -(w / sc - (1.0 - w) / (1.0 - sc)) / (n * n)
    g = np.where((s > losses.CLAMP) & (s < 1.0 - losses.CLAMP), g, 0.0)
    nu = np.linalg.norm(p, axis=1)
    h = g + g.T
    term1 = (h / np.outer(nu, nu)) @ p
    a = g * s
    term2 = ((a + a.T).sum(axis=1) / (nu * nu))[:, None] * p
    g_ppl = nn.softmax_backward(p, term1 - term2)

    labels, assigned = losses.pseudo_labels(p, theta2)
    n_hat = int(assigned.sum())
    pll, g_pll = 0.0, np.zeros_like(z)
    if n_hat:
        logp = log_softmax(z)
        pll = float(-(labels[assigned] * logp[assigned]).sum() / n_hat)
        g_pll[assigned] = (p[assigned] - labels[assigned]) / n_hat
    return ppl, g_ppl, pll, g_pll


def forward(model, batch):
    h = _check_batch(model, batch)
    acts = []
    last = len(model.backbone) - 1
    for i, layer in enumerate(model.backbone):
        h = h @ layer.w + layer.b
        if i < last:
            h = np.maximum(h, 0.0)
        acts.append(h)
    z_l = acts[-1] @ model.old_head.w + model.old_head.b
    z_u = acts[-1] @ model.new_head.w + model.new_head.b
    return acts, z_l, z_u


def backward(model, batch, acts, grad_z_l, grad_z_u):
    x = np.asarray(batch, dtype=np.float64)
    g_l = np.asarray(grad_z_l, dtype=np.float64)
    g_u = np.asarray(grad_z_u, dtype=np.float64)
    n = x.shape[0]
    if len(acts) != len(model.backbone) or acts[-1].shape != (n, model.feature_dim):
        raise ValueError("activations do not match the model and batch")
    if g_l.shape != (n, model.c_l) or g_u.shape != (n, model.c_u):
        raise ValueError("upstream gradient shapes do not match head outputs")

    feats = acts[-1]
    d_old = Affine(feats.T @ g_l, g_l.sum(axis=0))
    d_new = Affine(feats.T @ g_u, g_u.sum(axis=0))
    d_h = g_l @ model.old_head.w.T + g_u @ model.new_head.w.T

    d_backbone = [None] * len(model.backbone)
    last = len(model.backbone) - 1
    for i in range(last, -1, -1):
        if i < last:
            d_h = d_h * (acts[i] > 0.0)
        h_prev = x if i == 0 else acts[i - 1]
        d_backbone[i] = Affine(h_prev.T @ d_h, d_h.sum(axis=0))
        d_h = d_h @ model.backbone[i].w.T
    return TwoHeadMLP(d_backbone, d_old, d_new)


def zero_backbone_(grads):
    for layer in grads.backbone:
        layer.w[...] = 0.0
        layer.b[...] = 0.0


def build_mixed_batch(
    size, labeled_x, labeled_onehot, unlabeled_x, predict_u, anchors, epsilon, rng,
    use_labeled, use_anchors,
):
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if not use_labeled and not use_anchors:
        raise ValueError("at least one mixing source must be active")
    if use_anchors and (anchors is None or len(anchors) == 0):
        raise ValueError("anchor mixing requested with an empty anchor set")
    if labeled_x.shape[1] != unlabeled_x.shape[1]:
        raise ValueError("feature dimensions differ")
    c_l = labeled_onehot.shape[1]

    if use_labeled and use_anchors:
        from_labeled = rng.integers(0, 2, size=size).astype(bool)
    else:
        from_labeled = np.full(size, use_labeled)
    from_anchor = ~from_labeled
    n_lab = int(from_labeled.sum())
    lab_rows = rng.integers(0, labeled_x.shape[0], size=n_lab) if n_lab else np.empty(0, np.int64)
    anc_rows = (
        rng.integers(0, len(anchors), size=size - n_lab) if size - n_lab else np.empty(0, np.int64)
    )
    unl_rows = rng.integers(0, unlabeled_x.shape[0], size=size)
    _, eta_star = sample_mix_weight(epsilon, rng, size)

    pred = np.asarray(predict_u(unl_rows), dtype=np.float64)
    if pred.ndim != 2 or pred.shape[0] != size:
        raise ValueError("predict_u must return one distribution per drawn row")
    _check_simplex(pred, "predictions")
    c_u = pred.shape[1]

    partner_x = np.empty((size, labeled_x.shape[1]))
    partner_v = np.zeros((size, c_l + c_u))
    if n_lab:
        _check_one_hot(labeled_onehot[lab_rows])
        partner_x[from_labeled] = labeled_x[lab_rows]
        partner_v[from_labeled, :c_l] = labeled_onehot[lab_rows]
    if size - n_lab:
        anc_labels = anchors.labels[anc_rows]
        _check_simplex(anc_labels, "anchor labels")
        partner_x[from_anchor] = unlabeled_x[anchors.indices[anc_rows]]
        partner_v[from_anchor, c_l:] = anc_labels
    own_v = np.zeros((size, c_l + c_u))
    own_v[:, c_l:] = pred

    w = eta_star[:, None]
    m = w * partner_x + (1.0 - w) * unlabeled_x[unl_rows]
    v = w * partner_v + (1.0 - w) * own_v
    return m, v, eta_star, from_labeled


def _forward(model, x, component, epoch):
    acts, z_l, z_u = forward(model, x)
    if not (np.isfinite(z_l).all() and np.isfinite(z_u).all()):
        raise DivergenceError(f"{component} logits became non-finite at epoch {epoch}")
    return acts, z_l, z_u


def pretrain(model, labeled, cfg):
    opt = RmspropState(model, cfg.lr, 0.9, 1e-8)
    onehot = labeled.one_hot()
    seed = stream_seed(cfg.seed, TAG_STAGE1)
    for epoch in range(1, cfg.pretrain_epochs + 1):
        for idx in batch_iter(labeled, cfg.batch_labeled, seed, epoch):
            x = labeled.x[idx]
            acts, z_l, _ = _forward(model, x, "labeled-batch", epoch)
            loss, g_l = cross_entropy(z_l, onehot[idx])
            _check_finite(loss, "cross-entropy loss", epoch)
            grads = backward(model, x, acts, g_l, np.zeros((x.shape[0], model.c_u)))
            opt.step(model, grads)
    _, z_l, _ = _forward(model, labeled.x, "labeled-set", cfg.pretrain_epochs)
    return float((z_l.argmax(axis=1) == labeled.y).mean())


def evaluate(model, unlabeled, truth):
    _, _, z_u = forward(model, unlabeled.x)
    pred = z_u.argmax(axis=1)
    labels = truth.labels_for_eval()
    return (
        metrics.acc(pred, labels, unlabeled.num_classes),
        metrics.nmi(pred, labels),
    )


def _anchor_stats(
    anchors: mixing.AnchorSet,
    pool_pred: np.ndarray,
    truth: HiddenTruth,
    c_u: int,
) -> tuple[int, float]:
    """Anchor count and accuracy under the pool's best cluster-to-class map.

    Evaluation-only: this is the one place outside evaluate() that reads the
    hidden truth.
    """
    count = len(anchors)
    if count == 0:
        return 0, float("nan")
    labels = truth.labels_for_eval()
    table = metrics.contingency(pool_pred, labels, c_u)
    perm = metrics.assignment_solver(table.astype(np.float64))
    anchor_cluster = anchors.labels.argmax(axis=1)
    hits = perm[anchor_cluster] == labels[anchors.indices]
    return count, float(hits.mean())


def cluster_train(model, dataset, cfg):
    labeled, unlabeled, truth = dataset.labeled, dataset.unlabeled, dataset.truth
    if len(unlabeled) < 2:
        raise ValueError("clustering needs at least 2 unlabeled examples")
    c_u = model.c_u
    opt = RmspropState(model, cfg.lr, 0.9, 1e-8)
    onehot = labeled.one_hot()
    batch_seed = stream_seed(cfg.seed, TAG_STAGE2)
    mix_seed = stream_seed(cfg.seed, TAG_MIX)
    openmix_on = cfg.lambda2 > 0 and not cfg.disable_openmix

    reports = []
    warned_no_anchors = False
    for epoch in range(1, cfg.cluster_epochs + 1):
        _, _, z_u_pool = _forward(model, unlabeled.x, "unlabeled-pool", epoch)
        anchors = mixing.select_anchors(z_u_pool, cfg.theta2)
        anchor_count, anchor_acc = _anchor_stats(
            anchors, z_u_pool.argmax(axis=1), truth, c_u
        )

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

        def predict_u(rows):
            _, _, z = _forward(model, unlabeled.x[rows], "mixed-target", epoch)
            return nn.softmax(z)

        ppl_sum = pll_sum = opm_sum = 0.0
        n_batches = 0
        for idx in batch_iter(unlabeled, cfg.batch_unlabeled, batch_seed, epoch):
            x = unlabeled.x[idx]
            acts, _, z_u = _forward(model, x, "unlabeled-batch", epoch)
            ppl, g_ppl, pll, g_pll = clustering_losses(z_u, cfg.theta1, cfg.theta2)
            _check_finite(ppl, "pairwise similarity loss", epoch)
            _check_finite(pll, "pseudo-label loss", epoch)
            g_zu = g_ppl + cfg.lambda1 * g_pll
            grads = backward(
                model, x, acts, np.zeros((x.shape[0], model.c_l)), g_zu
            )

            if mix_active:
                m, v, _, _ = build_mixed_batch(
                    cfg.batch_mixed,
                    labeled.x,
                    onehot,
                    unlabeled.x,
                    predict_u,
                    anchors,
                    cfg.epsilon,
                    mix_rng,
                    use_labeled=want_labeled,
                    use_anchors=want_anchor,
                )
                acts_m, z_l_m, z_u_m = _forward(model, m, "mixed-batch", epoch)
                opm, g_zl_m, g_zu_m = mixing.opm_loss(z_l_m, z_u_m, v)
                _check_finite(opm, "mixing loss", epoch)
                grads_m = backward(
                    model, m, acts_m, cfg.lambda2 * g_zl_m, cfg.lambda2 * g_zu_m
                )
                for d, s in zip(iter_params(grads), iter_params(grads_m)):
                    d += s
                opm_sum += opm

            if epoch <= cfg.freeze_epochs:
                zero_backbone_(grads)
            opt.step(model, grads)
            ppl_sum += ppl
            pll_sum += pll
            n_batches += 1

        epoch_acc, epoch_nmi = evaluate(model, unlabeled, truth)
        reports.append(
            EpochReport(
                epoch=epoch,
                acc=epoch_acc,
                nmi=epoch_nmi,
                loss_ppl=ppl_sum / n_batches,
                loss_pll=pll_sum / n_batches,
                loss_opm=opm_sum / n_batches if mix_active else 0.0,
                anchor_count=anchor_count,
                anchor_acc=anchor_acc,
            )
        )
    return reports
