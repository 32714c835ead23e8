"""Network forward/backward against hand values and finite differences."""

import numpy as np
import pytest

from openmix import nn
from openmix.config import RunConfig
from openmix.data import SplitSpec
from helpers import assert_grad_close, fd_grad, model_params_flat, tiny_model

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
    np.testing.assert_allclose(nn.log_softmax(z), np.log(nn.softmax(z)), rtol=0, atol=1e-12)
    # no overflow where naive exp would blow up
    big = np.array([[800.0, 0.0, -800.0]])
    out = nn.log_softmax(big)
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
    want = sum(p.size for _, p in nn.iter_params(m))
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


def test_backward_matches_finite_difference_over_params():
    rng = np.random.default_rng(5)
    for trial in range(3):
        m = tiny_model(seed=10 + trial)
        x = rng.normal(size=(4, 6))
        gl = rng.normal(size=(4, 2))
        gu = rng.normal(size=(4, 3))
        grads = nn.backward(m, x, nn.forward(m, x)[0], gl, gu)

        def loss_at(flat):
            pos = 0
            probe = tiny_model(seed=10 + trial)
            for _, p in nn.iter_params(probe):
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
    with pytest.raises(ValueError):
        nn.backward(m, x, acts, np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="activations"):
        nn.backward(m, x, nn.forward(m, np.zeros((3, 6)))[0], np.zeros((2, 2)), np.zeros((2, 3)))


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
    acts = nn.forward(m, x)[0]
    got = nn.backward(m, x, acts, *args, freeze_backbone=frozen)
    want = nn.backward(m, x, acts, *zero_args, freeze_backbone=frozen)
    assert model_params_flat(got).tobytes() == model_params_flat(want).tobytes()
    quiet = got.old_head if silent == "old" else got.new_head
    assert not quiet.w.any() and not quiet.b.any()


def test_backward_both_heads_silent_is_all_zeros():
    m = tiny_model()
    x = np.ones((3, 6))
    got = nn.backward(m, x, nn.forward(m, x)[0], None, None)
    assert not model_params_flat(got).any()
    assert model_params_flat(got).size == model_params_flat(m).size


def test_iter_params_order():
    m = tiny_model()
    names = [name for name, _ in nn.iter_params(m)]
    assert names == [
        "backbone.0.w",
        "backbone.0.b",
        "backbone.1.w",
        "backbone.1.b",
        "old_head.w",
        "old_head.b",
        "new_head.w",
        "new_head.b",
    ]


def test_zeros_like_add_scaled_zero_backbone():
    m = tiny_model()
    z = nn.zeros_like_model(m)
    assert all(np.all(p == 0) for _, p in nn.iter_params(z))
    nn.add_scaled_(z, m, 2.0)
    np.testing.assert_array_equal(model_params_flat(z), 2.0 * model_params_flat(m))
    before = model_params_flat(z)
    nn.add_scaled_(z, m)
    np.testing.assert_array_equal(model_params_flat(z), before + model_params_flat(m))
    # a frozen backward returns zero backbone gradients and the full backward's heads
    rng = np.random.default_rng(6)
    x, gl, gu = rng.normal(size=(5, 6)), rng.normal(size=(5, 2)), rng.normal(size=(5, 3))
    acts = nn.forward(m, x)[0]
    full = nn.backward(m, x, acts, gl, gu)
    frozen = nn.backward(m, x, acts, gl, gu, freeze_backbone=True)
    for l, f in zip(frozen.backbone, full.backbone):
        assert l.w.tobytes() == np.zeros_like(f.w).tobytes()
        assert l.b.tobytes() == np.zeros_like(f.b).tobytes()
    for head in ("old_head", "new_head"):
        assert getattr(frozen, head).w.tobytes() == getattr(full, head).w.tobytes()
        assert getattr(frozen, head).b.tobytes() == getattr(full, head).b.tobytes()
    assert not np.all(frozen.old_head.w == 0)
    assert not all(np.all(l.w == 0) for l in full.backbone)
