"""Shared test utilities: finite-difference gradients, tiny fixtures, the
loss oracles (cosine matrix, two-log PPL, PLL), the network's explicit-feature
route and the helpers that only tests call (log_softmax, zero gradients,
random theory cases, recorded file reads, hand-built dataset files, traced
peaks)."""

import tracemalloc

import numpy as np

from openmix import config, data, losses, nn, theory

FD_STEP = 1e-5
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-6


def fd_grad(fn, x, step=FD_STEP):
    """Central finite-difference gradient of scalar fn at array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = g.reshape(-1)
    xf = x.reshape(-1)
    for i in range(xf.size):
        orig = xf[i]
        xf[i] = orig + step
        hi = fn(x)
        xf[i] = orig - step
        lo = fn(x)
        xf[i] = orig
        flat[i] = (hi - lo) / (2.0 * step)
    return g


def assert_grad_close(analytic, numeric, rtol=GRAD_RTOL, atol=GRAD_ATOL):
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    assert analytic.shape == numeric.shape
    err = np.abs(analytic - numeric) - rtol * np.abs(numeric)
    assert float(err.max(initial=0.0)) <= atol, (
        f"grad mismatch: worst abs diff {np.abs(analytic - numeric).max():.3e}"
    )


def cosine_similarity(p):
    """Cosine similarities between the rows of p from their own norms, diagonal exactly 1."""
    nu = np.linalg.norm(p, axis=1)
    s = (p @ p.T) / np.outer(nu, nu)
    np.fill_diagonal(s, 1.0)
    return s


def ppl_reference(s, w):
    """PPL value in the two-log form: BCE over all n^2 ordered pairs, diagonal included."""
    n = s.shape[0]
    sc = np.clip(s, losses.CLAMP, 1.0 - losses.CLAMP)
    terms = w * np.log(sc) + (1.0 - w) * np.log(1.0 - sc)
    return float(-terms.sum() / (n * n))


def pll_reference(z, labels, assigned):
    """PLL value with the pseudo-labels held fixed, for finite differences."""
    n_hat = int(assigned.sum())
    if n_hat == 0:
        return 0.0
    logp = log_softmax(z)
    return float(-(labels[assigned] * logp[assigned]).sum() / n_hat)


class RecordingFile:
    """A binary file that records the byte count each read asks for."""

    def __init__(self, path, asked):
        self.fh, self.asked = open(path, "rb"), asked

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def read(self, size=-1):
        self.asked.append(size)
        return self.fh.read(size)


def recorded_reads(monkeypatch, module) -> list:
    """The byte counts that the reads of files module opens ask for, from now on."""
    asked = []
    monkeypatch.setattr(module, "open", lambda p, mode: RecordingFile(p, asked), raising=False)
    return asked


def dataset_bytes(input_dim=2, c_l=2, c_u=3, n_l=1, n_u=2, x=0.5, y_l=0, y_u=0):
    """A dataset file with these header counts: every feature x, every labeled class
    y_l and every hidden class y_u, or an array of each."""
    x = np.broadcast_to(x, (n_l + n_u) * input_dim).astype("<f8")
    y = np.concatenate([np.broadcast_to(y_l, n_l), np.broadcast_to(y_u, n_u)]).astype("<i8")
    return data.HEADER.pack(data.MAGIC, input_dim, c_l, c_u, n_l, n_u) + x.tobytes() + y.tobytes()


def traced_peak(call) -> float:
    """Bytes at the traced peak of call(), above what was allocated before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def tiny_spec(seed=0):
    return data.SplitSpec(c_l=2, c_u=3, per_class=8, input_dim=6, separation=6.0, seed=seed)


def tiny_config(**kw):
    base = dict(
        hidden_dims=[],
        feature_dim=16,
        pretrain_epochs=5,
        cluster_epochs=4,
        freeze_epochs=1,
        batch_labeled=8,
        batch_unlabeled=8,
        batch_mixed=8,
        seed=0,
    )
    base.update(kw)
    return config.RunConfig(**base).validate()


def tiny_model(seed=0, input_dim=6, hidden=(4,), feature_dim=5, c_l=2, c_u=3):
    return nn.init_model(input_dim, list(hidden), feature_dim, c_l, c_u, seed)


def model_params_flat(model):
    return np.concatenate([p.reshape(-1) for p in nn.iter_params(model)])


def log_softmax(logits):
    """Log of softmax computed without forming small probabilities first."""
    shifted, _, total = nn.shifted_exp(logits, "log_softmax")
    return shifted - np.log(total)


def zeros_like_model(model):
    """A gradient container of the same geometry, all zeros."""
    return nn.TwoHeadMLP(
        [nn.Affine(np.zeros_like(a.w), np.zeros_like(a.b)) for a in model.backbone],
        nn.Affine(np.zeros_like(model.old_head.w), np.zeros_like(model.old_head.b)),
        nn.Affine(np.zeros_like(model.new_head.w), np.zeros_like(model.new_head.b)),
    )


def feature_forward(model, batch):
    """The network run through its explicit feature: (activations, z_l, z_u).

    The activations are the input and every backbone output, the last being
    the (n, feature_dim) feature, which both heads then multiply. nn.forward
    folds the last backbone layer into the heads instead.
    """
    acts = [np.asarray(batch, dtype=np.float64)]
    last = len(model.backbone) - 1
    for i, layer in enumerate(model.backbone):
        h = acts[-1] @ layer.w + layer.b
        acts.append(np.maximum(h, 0.0) if i < last else h)
    feats = acts[-1]
    return (
        acts,
        feats @ model.old_head.w + model.old_head.b,
        feats @ model.new_head.w + model.new_head.b,
    )


def feature_backward(model, acts, grad_z_l, grad_z_u, freeze_backbone=False):
    """nn.backward's gradients through feature_forward's activations, in a fresh store.

    A None upstream gradient marks a silent head; with freeze_backbone the
    backbone's gradients stay zero.
    """
    grads = zeros_like_model(model)
    d_h = np.zeros_like(acts[-1])
    for head, store, g in (
        (model.old_head, grads.old_head, grad_z_l),
        (model.new_head, grads.new_head, grad_z_u),
    ):
        if g is not None:
            store.w += acts[-1].T @ g
            store.b += g.sum(axis=0)
            d_h += g @ head.w.T
    if freeze_backbone:
        return grads
    last = len(model.backbone) - 1
    for i in range(last, -1, -1):
        if i < last:
            d_h = d_h * (acts[i + 1] > 0.0)
        grads.backbone[i].w += acts[i].T @ d_h
        grads.backbone[i].b += d_h.sum(axis=0)
        d_h = d_h @ model.backbone[i].w.T
    return grads


def random_case(rng, c_l=5, c_u=5):
    """Draw one label-error case and a clean labeled y_c: one-hot truths,
    exponential-normalized pseudo-labels. Returns (ErrorCase, y_c)."""

    def one_hot(k):
        v = np.zeros(k)
        v[rng.integers(0, k)] = 1.0
        return v

    def simplex(k):
        e = rng.exponential(1.0, size=k)
        return e / e.sum()

    case = theory.ErrorCase(
        y_a=one_hot(c_u),
        y_hat_a=simplex(c_u),
        y_b=one_hot(c_u),
        y_hat_b=simplex(c_u),
        eta=float(rng.uniform()),
    )
    return case, one_hot(c_l)


def mixup_can_worsen(rng=None, attempts=10000):
    """Return a case whose plain-mix difference is negative.

    Without an rng this is the worked counterexample. With one, random cases
    are searched first and the worked instance is the fallback.
    """
    if rng is not None:
        for _ in range(attempts):
            case, _ = random_case(rng)
            if theory.mixup_error(case)[1] < 0.0:
                return case
    return theory.worked_counterexample()
