"""Two-head MLP with hand-derived gradients.

Everything here is float64 numpy. The model is a small ReLU MLP backbone
shared by two affine heads: the old-class head (C_l logits) and the
new-class head (C_u logits). Backpropagation is written out explicitly so
every loss in the package can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stabilized softmax over the last axis.

    Accepts a vector or a batch of row vectors. Raises ValueError on
    non-finite input; the output always lies on the probability simplex.
    """
    z = np.asarray(logits, dtype=np.float64)
    if z.shape[-1] < 1:
        raise ValueError("softmax needs at least one logit")
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax input must be finite")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log of softmax computed without forming small probabilities first."""
    z = np.asarray(logits, dtype=np.float64)
    if z.shape[-1] < 1:
        raise ValueError("log_softmax needs at least one logit")
    if not np.all(np.isfinite(z)):
        raise ValueError("log_softmax input must be finite")
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_backward(probs: np.ndarray, grad_probs: np.ndarray) -> np.ndarray:
    """Chain an upstream gradient on softmax outputs back to the logits."""
    inner = (grad_probs * probs).sum(axis=-1, keepdims=True)
    return probs * (grad_probs - inner)


@dataclass
class Affine:
    """One affine layer: y = x @ w + b, with w of shape (fan_in, fan_out)."""

    w: np.ndarray
    b: np.ndarray

    @property
    def fan_in(self) -> int:
        return self.w.shape[0]

    @property
    def fan_out(self) -> int:
        return self.w.shape[1]


@dataclass
class TwoHeadMLP:
    """Backbone affine chain plus two classifier heads.

    The backbone maps input_dim through the hidden widths to feature_dim,
    with ReLU between consecutive affines (none after the last, so the
    feature itself is a linear projection). Both heads are affine maps on
    the feature.
    """

    backbone: list[Affine]
    old_head: Affine
    new_head: Affine

    @property
    def input_dim(self) -> int:
        return self.backbone[0].fan_in

    @property
    def feature_dim(self) -> int:
        return self.backbone[-1].fan_out

    @property
    def hidden_dims(self) -> list[int]:
        return [layer.fan_out for layer in self.backbone[:-1]]

    @property
    def c_l(self) -> int:
        return self.old_head.fan_out

    @property
    def c_u(self) -> int:
        return self.new_head.fan_out


def _init_affine(fan_in: int, fan_out: int, rng: np.random.Generator) -> Affine:
    # small-uniform init, scale 1/sqrt(fan_in)
    bound = 1.0 / np.sqrt(fan_in)
    w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
    b = rng.uniform(-bound, bound, size=fan_out)
    return Affine(w, b)


def init_model(
    input_dim: int,
    hidden_dims: list[int],
    feature_dim: int,
    c_l: int,
    c_u: int,
    seed: int,
) -> TwoHeadMLP:
    """Build a freshly initialized model; identical seeds give identical weights."""
    for d in [input_dim, feature_dim, c_l, c_u, *hidden_dims]:
        if d < 1:
            raise ValueError("all layer dims must be >= 1")
    rng = np.random.default_rng(seed)
    dims = [input_dim, *hidden_dims, feature_dim]
    backbone = [_init_affine(a, b, rng) for a, b in zip(dims[:-1], dims[1:])]
    old_head = _init_affine(feature_dim, c_l, rng)
    new_head = _init_affine(feature_dim, c_u, rng)
    return TwoHeadMLP(backbone, old_head, new_head)


def parameter_count(
    input_dim: int, hidden_dims: list[int], feature_dim: int, c_l: int, c_u: int
) -> int:
    """Total parameter count for a model of the given geometry."""
    dims = [input_dim, *hidden_dims, feature_dim]
    n = sum((a + 1) * b for a, b in zip(dims[:-1], dims[1:]))
    return n + (feature_dim + 1) * c_l + (feature_dim + 1) * c_u


def _check_batch(model: TwoHeadMLP, batch: np.ndarray) -> np.ndarray:
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim:
        raise ValueError(
            f"batch shape {x.shape} incompatible with input_dim {model.input_dim}"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError("batch contains non-finite values")
    return x


def forward(
    model: TwoHeadMLP, batch: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """Run the network; returns (activations, old-head logits, new-head logits).

    The activations are the backbone's outputs, one per layer, the last
    being the feature; backward() takes them so it need not recompute them.
    """
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


def backward(
    model: TwoHeadMLP,
    batch: np.ndarray,
    acts: list[np.ndarray],
    grad_z_l: np.ndarray,
    grad_z_u: np.ndarray,
) -> TwoHeadMLP:
    """Gradients of sum(grad_z_l * z_l) + sum(grad_z_u * z_u) w.r.t. all parameters.

    acts are the activations forward() returned for this batch. Returns a
    TwoHeadMLP-shaped container holding one gradient array per parameter.
    Gradients are produced for every parameter group; freezing is the
    caller's job (mask before the optimizer step).
    """
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

    d_backbone: list[Affine] = [None] * len(model.backbone)  # type: ignore[list-item]
    last = len(model.backbone) - 1
    for i in range(last, -1, -1):
        if i < last:
            # ReLU only sits between backbone affines, not after the feature
            d_h = d_h * (acts[i] > 0.0)
        h_prev = x if i == 0 else acts[i - 1]
        d_backbone[i] = Affine(h_prev.T @ d_h, d_h.sum(axis=0))
        d_h = d_h @ model.backbone[i].w.T
    return TwoHeadMLP(d_backbone, d_old, d_new)


def iter_params(model: TwoHeadMLP):
    """Yield (name, array) for every parameter, in checkpoint declaration order."""
    for i, layer in enumerate(model.backbone):
        yield f"backbone.{i}.w", layer.w
        yield f"backbone.{i}.b", layer.b
    yield "old_head.w", model.old_head.w
    yield "old_head.b", model.old_head.b
    yield "new_head.w", model.new_head.w
    yield "new_head.b", model.new_head.b


def zeros_like_model(model: TwoHeadMLP) -> TwoHeadMLP:
    """A gradient container of the same geometry, all zeros."""
    return TwoHeadMLP(
        [Affine(np.zeros_like(a.w), np.zeros_like(a.b)) for a in model.backbone],
        Affine(np.zeros_like(model.old_head.w), np.zeros_like(model.old_head.b)),
        Affine(np.zeros_like(model.new_head.w), np.zeros_like(model.new_head.b)),
    )


def add_scaled_(dst: TwoHeadMLP, src: TwoHeadMLP, scale: float = 1.0) -> None:
    """In-place dst += scale * src over all parameter arrays."""
    for (_, d), (_, s) in zip(iter_params(dst), iter_params(src)):
        d += scale * s


def zero_backbone_(grads: TwoHeadMLP) -> None:
    """Mask backbone gradients in place; used to freeze the backbone."""
    for layer in grads.backbone:
        layer.w[...] = 0.0
        layer.b[...] = 0.0
