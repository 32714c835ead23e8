"""Network forward/backward against hand values and finite differences."""

import numpy as np
import pytest

from openmix import nn
from helpers import (
    assert_grad_close,
    fd_grad,
    feature_backward,
    feature_forward,
    log_softmax,
    model_params_flat,
    tiny_model,
    zeros_like_model,
)

# scalar-math oracle for softmax([1, 2, 3])
SOFTMAX_123 = np.array(
    [0.09003057317038046, 0.24472847105479764, 0.6652409557748218]
)


def test_softmax_oracle_and_properties():
    np.testing.assert_allclose(nn.softmax([1.0, 2.0, 3.0]), SOFTMAX_123, rtol=0, atol=1e-15)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(10, 4)) * 3
    p = nn.softmax(z)
    assert np.all(p > 0)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    # shift invariance
    np.testing.assert_allclose(nn.softmax(z + 100.0), p, rtol=0, atol=1e-12)
    # large logits stay finite
    assert np.all(np.isfinite(nn.softmax(np.array([1e4, -1e4, 0.0]))))


def test_softmax_rejects_bad_input():
    with pytest.raises(ValueError):
        nn.softmax(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        nn.softmax(np.zeros((2, 0)))


def test_log_softmax_matches_log_of_softmax():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(6, 5)) * 2
    np.testing.assert_allclose(log_softmax(z), np.log(nn.softmax(z)), rtol=0, atol=1e-12)
    # no overflow where naive exp would blow up
    big = np.array([[800.0, 0.0, -800.0]])
    out = log_softmax(big)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out[0, 0], 0.0, rtol=0, atol=1e-12)


def test_softmax_backward_finite_difference():
    rng = np.random.default_rng(2)
    for _ in range(10):
        z = rng.normal(size=5) * 2
        g = rng.normal(size=5)
        analytic = nn.softmax_backward(nn.softmax(z), g)
        numeric = fd_grad(lambda zz: float(nn.softmax(zz) @ g), z)
        assert_grad_close(analytic, numeric)


def test_init_model_shapes_bounds_determinism():
    m = nn.init_model(6, [4, 3], 5, 2, 3, seed=7)
    assert [l.w.shape for l in m.backbone] == [(6, 4), (4, 3), (3, 5)]
    assert m.old_head.w.shape == (5, 2)
    assert m.new_head.w.shape == (5, 3)
    assert m.input_dim == 6 and m.feature_dim == 5
    assert m.hidden_dims == [4, 3]
    assert m.c_l == 2 and m.c_u == 3
    # uniform bounds scale with 1/sqrt(fan_in) of the owning layer
    assert np.abs(m.backbone[0].w).max() <= 1.0 / np.sqrt(6)
    assert np.abs(m.old_head.w).max() <= 1.0 / np.sqrt(5)
    m2 = nn.init_model(6, [4, 3], 5, 2, 3, seed=7)
    assert np.array_equal(model_params_flat(m), model_params_flat(m2))
    m3 = nn.init_model(6, [4, 3], 5, 2, 3, seed=8)
    assert not np.array_equal(model_params_flat(m), model_params_flat(m3))
    with pytest.raises(ValueError):
        nn.init_model(0, [], 5, 2, 3, seed=0)


def test_parameter_count_matches_arrays():
    m = tiny_model()
    want = sum(p.size for p in nn.iter_params(m))
    assert nn.parameter_count(6, [4], 5, 2, 3) == want


def test_forward_linear_backbone_is_affine():
    m = nn.init_model(4, [], 3, 2, 2, seed=0)
    x = np.random.default_rng(3).normal(size=(5, 4))
    acts, z_l, z_u = nn.forward(m, x)
    # no hidden layer: the activations are the input alone, and the last
    # (only) backbone layer is folded into each head
    assert len(acts) == 1 and acts[0] is x
    w, b = m.backbone[0].w, m.backbone[0].b
    for z, head in ((z_l, m.old_head), (z_u, m.new_head)):
        np.testing.assert_array_equal(z, x @ (w @ head.w) + (b @ head.w + head.b))
        np.testing.assert_allclose(z, (x @ w + b) @ head.w + head.b, rtol=0, atol=1e-14)


def test_forward_relu_between_backbone_layers_only():
    m = tiny_model(seed=4, hidden=(4,))
    x = np.random.default_rng(4).normal(size=(7, 6)) * 2
    acts, z_l, z_u = nn.forward(m, x)
    h = np.maximum(x @ m.backbone[0].w + m.backbone[0].b, 0.0)
    # the activations start with the checked input itself, not a copy, and
    # end with the last layer's input: the feature is never built
    assert len(acts) == 2 and acts[0] is x
    np.testing.assert_array_equal(acts[1], h)
    feats = h @ m.backbone[1].w + m.backbone[1].b
    # the feature may go negative: no ReLU after the last affine
    assert feats.min() < 0
    for z, head in ((z_l, m.old_head), (z_u, m.new_head)):
        np.testing.assert_allclose(z, feats @ head.w + head.b, rtol=0, atol=1e-14)
        relu_feats = np.maximum(feats, 0.0) @ head.w + head.b
        assert np.abs(z - relu_feats).max() > 1e-3


def test_forward_rejects_bad_batches():
    m = tiny_model()
    with pytest.raises(ValueError):
        nn.forward(m, np.zeros((2, 5)))
    with pytest.raises(ValueError):
        nn.forward(m, np.array([[np.inf] * 6, [0.0] * 6]))


# the folded route must equal the explicit-feature route to within rounding:
# each array to 1e-12 of its largest magnitude, and exactly where it is zero
FEATURE_ROUTE_RTOL = 1e-12


@pytest.mark.parametrize(
    "geometry",
    [(6, [], 16, 2, 3), (6, [4, 7], 5, 2, 3), (50, [], 8, 3, 4), (16, [32], 384, 5, 5),
     (9, [12], 7, 4, 1)],
)
def test_folded_route_matches_explicit_feature_route(geometry):
    m = nn.init_model(*geometry, seed=3)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(9, m.input_dim)) * 2
    gl, gu = rng.normal(size=(9, m.c_l)), rng.normal(size=(9, m.c_u))
    acts, z_l, z_u = nn.forward(m, x)
    f_acts, f_l, f_u = feature_forward(m, x)
    pairs = [(z_l, f_l), (z_u, f_u)]
    for frozen in (False, True):
        for upstream in ((gl, gu), (None, gu), (gl, None), (None, None)):
            got = zeros_like_model(m)
            nn.backward(m, acts, *upstream, got, freeze_backbone=frozen)
            want = feature_backward(m, f_acts, *upstream, freeze_backbone=frozen)
            pairs += zip(nn.iter_params(got), nn.iter_params(want))
    for got, want in pairs:
        bound = FEATURE_ROUTE_RTOL * np.abs(want).max(initial=0.0)
        assert np.abs(got - want).max(initial=0.0) <= bound


def _grads(m, x, gl, gu, frozen=False, grads=None):
    # backward into a zeroed store of m's geometry, or into grads
    grads = zeros_like_model(m) if grads is None else grads
    nn.backward(m, nn.forward(m, x)[0], gl, gu, grads, freeze_backbone=frozen)
    return grads


def test_backward_matches_finite_difference_over_params():
    rng = np.random.default_rng(5)
    for trial in range(3):
        m = tiny_model(seed=10 + trial)
        x = rng.normal(size=(4, 6))
        gl = rng.normal(size=(4, 2))
        gu = rng.normal(size=(4, 3))
        grads = _grads(m, x, gl, gu)

        def loss_at(flat):
            pos = 0
            probe = tiny_model(seed=10 + trial)
            for p in nn.iter_params(probe):
                p[...] = flat[pos : pos + p.size].reshape(p.shape)
                pos += p.size
            _, z_l, z_u = nn.forward(probe, x)
            return float((gl * z_l).sum() + (gu * z_u).sum())

        numeric = fd_grad(loss_at, model_params_flat(m))
        assert_grad_close(model_params_flat(grads), numeric)


def test_backward_rejects_mismatched_upstream():
    m = tiny_model()
    x = np.zeros((2, 6))
    acts = nn.forward(m, x)[0]
    grads = zeros_like_model(m)
    with pytest.raises(ValueError, match="upstream"):
        nn.backward(m, acts, np.zeros((2, 3)), np.zeros((2, 3)), grads)
    # the old head's gradient fits, the new head's does not: nothing is added
    with pytest.raises(ValueError, match="upstream"):
        nn.backward(m, acts, np.ones((2, 2)), np.ones((2, 4)), grads)
    assert not model_params_flat(grads).any()
    # the hidden output without the input it came from, or no activations
    # at all, fail loudly
    for short in (acts[1:], []):
        with pytest.raises(ValueError, match="activations"):
            nn.backward(m, short, np.zeros((2, 2)), np.zeros((2, 3)), grads)
    assert not model_params_flat(grads).any()


@pytest.mark.parametrize("store", ["wider new head", "other backbone", "width-1 store"])
def test_backward_rejects_a_store_of_another_geometry(store):
    # a width-1 new head's (5, 1) gradient would broadcast into a (5, 3) store
    m = tiny_model(c_u=1) if store == "width-1 store" else tiny_model()
    other = {
        "wider new head": tiny_model(c_u=4),
        "other backbone": tiny_model(hidden=(4, 4)),
        "width-1 store": tiny_model(),
    }[store]
    x = np.ones((3, 6))
    grads = zeros_like_model(other)
    with pytest.raises(ValueError, match="gradient store"):
        _grads(m, x, np.ones((3, 2)), np.ones((3, m.c_u)), grads=grads)
    assert not model_params_flat(grads).any()


@pytest.mark.parametrize("hidden", [(), (32,)])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("silent", ["old", "new"])
def test_backward_silent_head_equals_explicit_zeros(hidden, frozen, silent):
    m = tiny_model(seed=8, hidden=hidden)
    rng = np.random.default_rng(9)
    x, gl, gu = rng.normal(size=(7, 6)), rng.normal(size=(7, 2)), rng.normal(size=(7, 3))
    if silent == "old":
        args, zero_args = (None, gu), (np.zeros_like(gl), gu)
    else:
        args, zero_args = (gl, None), (gl, np.zeros_like(gu))
    got = _grads(m, x, *args, frozen=frozen)
    want = _grads(m, x, *zero_args, frozen=frozen)
    assert model_params_flat(got).tobytes() == model_params_flat(want).tobytes()
    quiet = got.old_head if silent == "old" else got.new_head
    assert not quiet.w.any() and not quiet.b.any()


def test_backward_both_heads_silent_is_all_zeros():
    m = tiny_model()
    got = _grads(m, np.ones((3, 6)), None, None)
    assert not model_params_flat(got).any()
    assert model_params_flat(got).size == model_params_flat(m).size


@pytest.mark.parametrize("hidden", [(), (32,)])
def test_zero_width_new_head_matches_the_full_model(hidden):
    # init_model rejects width 0, so the head is built by hand; pretraining
    # runs on such a view of the model
    m = tiny_model(seed=12, hidden=hidden)
    empty = nn.Affine(np.empty((m.feature_dim, 0)), np.empty(0))
    view = nn.TwoHeadMLP(m.backbone, m.old_head, empty)
    rng = np.random.default_rng(13)
    x, gl = rng.normal(size=(7, 6)), rng.normal(size=(7, 2))
    _, z_l, z_u = nn.forward(view, x)
    assert z_u.shape == (7, 0)
    assert z_l.tobytes() == nn.forward(m, x)[1].tobytes()
    got = _grads(view, x, gl, None)
    want = _grads(m, x, gl, None)
    # the new head comes last in parameter order
    n_new = m.new_head.w.size + m.c_u
    assert model_params_flat(got).tobytes() == model_params_flat(want)[:-n_new].tobytes()


def test_frozen_backward_adds_only_the_head_gradients():
    m = tiny_model()
    rng = np.random.default_rng(6)
    x, gl, gu = rng.normal(size=(5, 6)), rng.normal(size=(5, 2)), rng.normal(size=(5, 3))
    full = _grads(m, x, gl, gu)
    frozen = _grads(m, x, gl, gu, frozen=True)
    for layer in frozen.backbone:
        assert layer.w.tobytes() == np.zeros_like(layer.w).tobytes()
        assert layer.b.tobytes() == np.zeros_like(layer.b).tobytes()
    for head in ("old_head", "new_head"):
        assert getattr(frozen, head).w.tobytes() == getattr(full, head).w.tobytes()
        assert getattr(frozen, head).b.tobytes() == getattr(full, head).b.tobytes()
    assert frozen.old_head.w.any()
    assert all(layer.w.any() for layer in full.backbone)


@pytest.mark.parametrize("frozen", [False, True])
def test_two_backwards_into_one_store_equal_separate_stores_summed(frozen):
    m = tiny_model(seed=4, hidden=(4, 7))
    rng = np.random.default_rng(7)
    x, x_m = rng.normal(size=(6, 6)), rng.normal(size=(9, 6))
    gu, gl_m, gu_m = rng.normal(size=(6, 3)), rng.normal(size=(9, 2)), rng.normal(size=(9, 3))
    one = _grads(m, x, None, gu, frozen)
    _grads(m, x_m, gl_m * 1e3, gu_m * 1e3, frozen, grads=one)
    first = _grads(m, x, None, gu, frozen)
    second = _grads(m, x_m, gl_m * 1e3, gu_m * 1e3, frozen)
    for a, b in zip(nn.iter_params(first), nn.iter_params(second)):
        a += b
    assert model_params_flat(one).tobytes() == model_params_flat(first).tobytes()


def test_on_flat_views_in_parameter_order():
    shapes = nn.layer_shapes(6, [4, 7], 5, 2, 3)
    flat = np.arange(float(nn.parameter_count(6, [4, 7], 5, 2, 3)))
    m = nn.on_flat(shapes, flat)
    params = list(nn.iter_params(m))
    like = tiny_model(hidden=(4, 7))
    assert [p.shape for p in params] == [p.shape for p in nn.iter_params(like)]
    # iter_params order, which is the checkpoint's order, walks flat from start to end
    np.testing.assert_array_equal(np.concatenate([p.ravel() for p in params]), flat)
    for p in params:
        assert np.shares_memory(p, flat) and p.flags.writeable
    m.new_head.b[...] = -1.0
    assert (flat[-3:] == -1.0).all()


def test_iter_params_order():
    m = tiny_model()
    got = list(nn.iter_params(m))
    want = [
        m.backbone[0].w,
        m.backbone[0].b,
        m.backbone[1].w,
        m.backbone[1].b,
        m.old_head.w,
        m.old_head.b,
        m.new_head.w,
        m.new_head.b,
    ]
    assert len(got) == len(want)
    assert all(g is w for g, w in zip(got, want))
