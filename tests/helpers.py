"""Shared test utilities: finite-difference gradients and tiny fixtures."""

import numpy as np

from openmix import config, data, nn

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
    logp = nn.log_softmax(z)
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
    return np.concatenate([p.reshape(-1) for _, p in nn.iter_params(model)])
