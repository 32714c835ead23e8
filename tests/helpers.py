"""Shared test utilities: finite-difference gradients, tiny fixtures, and the
helpers that only tests call (log_softmax, zero gradients, random theory cases)."""

import numpy as np

from openmix import config, data, nn, theory

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


def pll_reference(z, labels, assigned):
    """PLL value with the pseudo-labels held fixed, for finite differences."""
    n_hat = int(assigned.sum())
    if n_hat == 0:
        return 0.0
    logp = log_softmax(z)
    return float(-(labels[assigned] * logp[assigned]).sum() / n_hat)


def tiny_spec(seed=0):
    return data.SplitSpec(
        c_l=2, c_u=3, per_class=8, input_dim=6, separation=6.0, sigma=1.0, seed=seed
    )


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


def random_case(rng, c_l=5, c_u=5):
    """Draw one label-error case: one-hot truths, exponential-normalized pseudo-labels."""

    def one_hot(k):
        v = np.zeros(k)
        v[rng.integers(0, k)] = 1.0
        return v

    def simplex(k):
        e = rng.exponential(1.0, size=k)
        return e / e.sum()

    return theory.ErrorCase(
        y_a=one_hot(c_u),
        y_hat_a=simplex(c_u),
        y_b=one_hot(c_u),
        y_hat_b=simplex(c_u),
        eta=float(rng.uniform()),
        y_c=one_hot(c_l),
    )


def mixup_can_worsen(rng=None, attempts=10000):
    """Return a case whose plain-mix difference is negative.

    Without an rng this is the worked counterexample. With one, random cases
    are searched first and the worked instance is the fallback.
    """
    if rng is not None:
        for _ in range(attempts):
            case = random_case(rng)
            if theory.mixup_error(case)[1] < 0.0:
                return case
    return theory.worked_counterexample()
