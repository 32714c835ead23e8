"""Network forward/backward against hand values and finite differences."""

import numpy as np
import pytest

from openmix import nn
from openmix.config import RunConfig
from openmix.data import SplitSpec
from helpers import (
    assert_grad_close,
    fd_grad,
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
    feats = acts[-1]
    np.testing.assert_array_equal(feats, x @ m.backbone[0].w + m.backbone[0].b)
    np.testing.assert_array_equal(z_l, feats @ m.old_head.w + m.old_head.b)
    np.testing.assert_array_equal(z_u, feats @ m.new_head.w + m.new_head.b)


def test_forward_relu_between_backbone_layers_only():
    m = tiny_model(seed=4, hidden=(4,))
    x = np.random.default_rng(4).normal(size=(7, 6)) * 2
    acts, _, _ = nn.forward(m, x)
    feats = acts[-1]
    h = np.maximum(x @ m.backbone[0].w + m.backbone[0].b, 0.0)
    manual = h @ m.backbone[1].w + m.backbone[1].b
    np.testing.assert_array_equal(acts[0], h)
    np.testing.assert_array_equal(feats, manual)
    # the feature itself may go negative: no ReLU after the last affine
    assert feats.min() < 0


def test_forward_rejects_bad_batches():
    m = tiny_model()
    for run in (nn.forward, nn.logits):
        with pytest.raises(ValueError):
            run(m, np.zeros((2, 5)))
        with pytest.raises(ValueError):
            run(m, np.array([[np.inf] * 6, [0.0] * 6]))


def default_model(hidden):
    spec, cfg = SplitSpec(), RunConfig()
    return nn.init_model(spec.input_dim, hidden, cfg.feature_dim, spec.c_l, spec.c_u, seed=1)


def block_height(model):
    return nn._BLOCK_BYTES // (8 * max(a.fan_out for a in model.backbone))


@pytest.mark.parametrize("hidden", [[], [32]])
def test_logits_bytes_equal_forward_at_default_geometry(hidden):
    m = default_model(hidden)
    h = block_height(m)
    rng = np.random.default_rng(2)
    for n in (1, 2, h - 1, h, h + 1, 2 * h + 1, 1000):
        x = rng.normal(size=(n, m.input_dim)) * 3
        _, z_l, z_u = nn.forward(m, x)
        got_l, got_u = nn.logits(m, x)
        assert got_l.tobytes() == z_l.tobytes(), n
        assert got_u.tobytes() == z_u.tobytes(), n


def test_logits_blocks_never_hold_one_row(monkeypatch):
    m = default_model([])
    h = block_height(m)
    assert h >= 2 and h * 8 * m.feature_dim <= nn._BLOCK_BYTES
    sizes = []
    inner = nn._rows_forward

    def recording(model, x):
        sizes.append(x.shape[0])
        return inner(model, x)

    monkeypatch.setattr(nn, "_rows_forward", recording)
    for n in (1, 2, h - 1, h, h + 1, 2 * h + 1, 3 * h + 2, 1000):
        sizes.clear()
        nn.logits(m, np.zeros((n, m.input_dim)))
        assert sum(sizes) == n
        assert all(size == h for size in sizes[:-1]), (n, sizes)
        assert 2 <= sizes[-1] <= h + 1 or n == 1, (n, sizes)


def test_logits_close_to_forward_at_other_widths():
    # at these head widths BLAS may round a block unlike the whole batch,
    # in the last bits only
    m = nn.init_model(100, [], 384, 80, 20, seed=1)
    x = np.random.default_rng(3).normal(size=(1000, 100))
    _, z_l, z_u = nn.forward(m, x)
    got_l, got_u = nn.logits(m, x)
    np.testing.assert_allclose(got_l, z_l, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(got_u, z_u, rtol=1e-12, atol=1e-12)


def _grads(m, x, gl, gu, frozen=False, grads=None):
    # backward into a zeroed store of m's geometry, or into grads
    grads = zeros_like_model(m) if grads is None else grads
    nn.backward(m, x, nn.forward(m, x)[0], gl, gu, grads, freeze_backbone=frozen)
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
        nn.backward(m, x, acts, np.zeros((2, 3)), np.zeros((2, 3)), grads)
    # the old head's gradient fits, the new head's does not: nothing is added
    with pytest.raises(ValueError, match="upstream"):
        nn.backward(m, x, acts, np.ones((2, 2)), np.ones((2, 4)), grads)
    assert not model_params_flat(grads).any()
    with pytest.raises(ValueError, match="activations"):
        nn.backward(
            m, x, nn.forward(m, np.zeros((3, 6)))[0], np.zeros((2, 2)), np.zeros((2, 3)), grads
        )


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
