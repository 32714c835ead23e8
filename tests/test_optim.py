"""RMSprop update rule against hand-computed steps."""

import numpy as np
import pytest

from openmix import nn
from openmix.optim import RmspropState
from helpers import model_params_flat, tiny_model


def _scalar_model(value):
    # 1x1 geometry so a single weight can be tracked by hand
    m = nn.init_model(1, [], 1, 1, 1, seed=0)
    for _, p in nn.iter_params(m):
        p[...] = 0.0
    m.backbone[0].w[0, 0] = value
    return m


def test_single_step_hand_values():
    # p=1, g=2, lr=0.1, rho=0.9: v = 0.1*4 = 0.4, p -= 0.1*2/(sqrt(0.4)+1e-8)
    m = _scalar_model(1.0)
    opt = RmspropState(m, lr=0.1, rho=0.9, eps=1e-8)
    g = nn.zeros_like_model(m)
    g.backbone[0].w[0, 0] = 2.0
    opt.step(m, g)
    assert abs(m.backbone[0].w[0, 0] - 0.683772238983162) < 1e-15
    assert abs(opt.square_avg.backbone[0].w[0, 0] - 0.4) < 1e-15
    # second identical step: v = 0.9*0.4 + 0.1*4 = 0.76
    opt.step(m, g)
    assert abs(m.backbone[0].w[0, 0] - 0.45435650774417913) < 1e-14
    assert abs(opt.square_avg.backbone[0].w[0, 0] - 0.76) < 1e-15


def test_zero_gradient_leaves_param_alone():
    m = _scalar_model(3.0)
    opt = RmspropState(m, lr=0.5, rho=0.9, eps=1e-8)
    opt.step(m, nn.zeros_like_model(m))
    assert m.backbone[0].w[0, 0] == 3.0


def test_per_parameter_step_magnitude():
    # rho=0 makes v = g^2 so each step is lr * g/(|g| + eps): about lr, any scale
    m = tiny_model(seed=1)
    before = model_params_flat(m)
    opt = RmspropState(m, lr=0.01, rho=0.0, eps=1e-12)
    g = nn.zeros_like_model(m)
    rng = np.random.default_rng(2)
    for _, p in nn.iter_params(g):
        p[...] = rng.normal(size=p.shape) * 1000.0
    opt.step(m, g)
    moved = np.abs(model_params_flat(m) - before)
    np.testing.assert_allclose(moved, 0.01, rtol=1e-6)


def test_updates_are_in_place_and_seeded_runs_agree():
    m1 = tiny_model(seed=3)
    m2 = tiny_model(seed=3)
    o1 = RmspropState(m1, lr=0.05, rho=0.9, eps=1e-8)
    o2 = RmspropState(m2, lr=0.05, rho=0.9, eps=1e-8)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 6))
    gl = rng.normal(size=(5, 2))
    gu = rng.normal(size=(5, 3))
    for _ in range(3):
        o1.step(m1, nn.backward(m1, x, nn.forward(m1, x)[0], gl, gu))
        o2.step(m2, nn.backward(m2, x, nn.forward(m2, x)[0], gl, gu))
    assert np.array_equal(model_params_flat(m1), model_params_flat(m2))


def test_validation():
    m = tiny_model()
    with pytest.raises(ValueError):
        RmspropState(m, lr=0.0, rho=0.9, eps=1e-8)
    with pytest.raises(ValueError):
        RmspropState(m, lr=0.1, rho=1.0, eps=1e-8)
    with pytest.raises(ValueError):
        RmspropState(m, lr=0.1, rho=-0.1, eps=1e-8)
