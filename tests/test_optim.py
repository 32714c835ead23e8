"""RMSprop update rule against hand-computed steps."""

import numpy as np
import pytest

import train_reference
from openmix import nn
from openmix.optim import EPS, RHO, RmspropState
from helpers import model_params_flat, tiny_model, zeros_like_model


def _scalar_model(value):
    # 1x1 geometry so a single weight can be tracked by hand
    m = nn.init_model(1, [], 1, 1, 1, seed=0)
    for p in nn.iter_params(m):
        p[...] = 0.0
    m.backbone[0].w[0, 0] = value
    return m


def test_single_step_hand_values():
    # p=1, g=2, lr=0.1, RHO=0.9: v = 0.1*4 = 0.4, p -= 0.1*2/(sqrt(0.4)+1e-8)
    assert (RHO, EPS) == (0.9, 1e-8)
    m = _scalar_model(1.0)
    opt = RmspropState(m, lr=0.1)
    opt.grad.backbone[0].w[0, 0] = 2.0
    opt.step(m)
    assert abs(m.backbone[0].w[0, 0] - 0.683772238983162) < 1e-15
    # backbone.0.w is the first parameter, so its moment is flat[0]
    assert abs(opt.flat[0] - 0.4) < 1e-15
    # second identical step: v = 0.9*0.4 + 0.1*4 = 0.76
    opt.grad.backbone[0].w[0, 0] = 2.0
    opt.step(m)
    assert abs(m.backbone[0].w[0, 0] - 0.45435650774417913) < 1e-14
    assert abs(opt.flat[0] - 0.76) < 1e-15


def test_zero_gradient_leaves_param_alone():
    m = _scalar_model(3.0)
    opt = RmspropState(m, lr=0.5)
    opt.step(m)
    assert m.backbone[0].w[0, 0] == 3.0


def test_per_parameter_step_magnitude():
    # a first step from v = 0 has v = (1-RHO) g^2, so it moves each parameter
    # by lr |g| / (sqrt(1-RHO) |g| + EPS): about lr / sqrt(1-RHO), any scale
    m = tiny_model(seed=1)
    before = model_params_flat(m)
    opt = RmspropState(m, lr=0.01)
    rng = np.random.default_rng(2)
    for p in nn.iter_params(opt.grad):
        p[...] = rng.normal(size=p.shape) * 1000.0
    opt.step(m)
    moved = np.abs(model_params_flat(m) - before)
    np.testing.assert_allclose(moved, 0.01 / np.sqrt(1.0 - RHO), rtol=1e-6)


def test_updates_are_in_place_and_seeded_runs_agree():
    m1 = tiny_model(seed=3)
    m2 = tiny_model(seed=3)
    o1 = RmspropState(m1, lr=0.05)
    o2 = RmspropState(m2, lr=0.05)
    rng = np.random.default_rng(4)
    x = rng.normal(size=(5, 6))
    gl = rng.normal(size=(5, 2))
    gu = rng.normal(size=(5, 3))
    for _ in range(3):
        nn.backward(m1, nn.forward(m1, x)[0], gl, gu, o1.grad)
        o1.step(m1)
        nn.backward(m2, nn.forward(m2, x)[0], gl, gu, o2.grad)
        o2.step(m2)
    assert np.array_equal(model_params_flat(m1), model_params_flat(m2))


def test_validation():
    m = tiny_model()
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning rate"):
            RmspropState(m, lr=bad)


def test_step_rejects_a_model_of_another_geometry():
    m = tiny_model()
    opt = RmspropState(m, lr=0.1)
    x = np.ones((3, 6))
    nn.backward(m, nn.forward(m, x)[0], np.ones((3, 2)), np.ones((3, 3)), opt.grad)
    # a new head of another width after construction: the flat state no longer fits
    m.new_head = nn._init_affine(m.feature_dim, m.c_u + 1, np.random.default_rng(0))
    before = model_params_flat(m)
    with pytest.raises(ValueError, match="optimizer state"):
        opt.step(m)
    assert model_params_flat(m).tobytes() == before.tobytes()
    # nor can that model's gradients reach the flat buffer
    with pytest.raises(ValueError, match="gradient store"):
        nn.backward(m, nn.forward(m, x)[0], None, np.ones((3, 4)), opt.grad)


@pytest.mark.parametrize("hidden", [(), (4,), (4, 7)])
def test_flat_steps_match_per_parameter_reference(hidden):
    # bit for bit over several steps, on gradients of mixed scale with zeros
    m = tiny_model(seed=5, hidden=hidden)
    ref = tiny_model(seed=5, hidden=hidden)
    opt = RmspropState(m, lr=0.05)
    ref_opt = train_reference.RmspropState(ref, lr=0.05, rho=0.9, eps=1e-8)
    rng = np.random.default_rng(6)
    for _ in range(5):
        g = zeros_like_model(m)
        for a, store in zip(nn.iter_params(g), nn.iter_params(opt.grad)):
            a[...] = rng.normal(size=a.shape) * 10.0 ** rng.integers(-6, 4, size=a.shape)
            a[rng.random(a.shape) < 0.2] = 0.0
            store += a
        opt.step(m)
        ref_opt.step(ref, g)
    assert model_params_flat(m).tobytes() == model_params_flat(ref).tobytes()
    # opt.flat holds the moments in iter_params order
    assert opt.flat.tobytes() == model_params_flat(ref_opt.square_avg).tobytes()


def test_step_clears_the_gradient_store():
    m = tiny_model(seed=2, hidden=(4,))
    opt = RmspropState(m, lr=0.05)
    x = np.random.default_rng(3).normal(size=(5, 6))
    nn.backward(m, nn.forward(m, x)[0], np.ones((5, 2)), np.ones((5, 3)), opt.grad)
    assert model_params_flat(opt.grad).any()
    opt.step(m)
    assert not model_params_flat(opt.grad).any()
    # a step with nothing added moves no parameter
    before = model_params_flat(m)
    opt.step(m)
    assert model_params_flat(m).tobytes() == before.tobytes()
