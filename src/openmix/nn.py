"""Two-head MLP with hand-derived gradients.

Everything here is float64 numpy. The model is a small ReLU MLP backbone
shared by two affine heads: the old-class head (C_l logits) and the
new-class head (C_u logits). Backpropagation is written out explicitly so
every loss in the package can be checked against finite differences.
forward() is the one forward route: training steps and whole-set scoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def shifted_exp(logits: np.ndarray, name: str = "softmax") -> tuple[np.ndarray, ...]:
    """(z - rowmax, its exp, its row sums): one pass for softmax, log_softmax or a loss."""
    z = np.asarray(logits, dtype=np.float64)
    if z.shape[-1] < 1:
        raise ValueError(f"{name} needs at least one logit")
    if not np.all(np.isfinite(z)):
        raise ValueError(f"{name} input must be finite")
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=-1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Stabilized softmax over the last axis.

    Accepts a vector or a batch of row vectors. Raises ValueError on
    non-finite input; the output always lies on the probability simplex.
    The exponentials are divided in place: no second array of their size.
    """
    e, total = shifted_exp(logits)[1:]
    return np.divide(e, total, out=e)


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


def layer_shapes(
    input_dim: int, hidden_dims: list[int], feature_dim: int, c_l: int, c_u: int
) -> list[tuple[int, int]]:
    """(fan_in, fan_out) of every affine in declaration order: backbone, old head, new head."""
    dims = [input_dim, *hidden_dims, feature_dim]
    return [*zip(dims[:-1], dims[1:]), (feature_dim, c_l), (feature_dim, c_u)]


def assemble(shapes: list[tuple[int, int]], make_affine) -> TwoHeadMLP:
    """A model from layer_shapes, calling make_affine(fan_in, fan_out) once per layer in order."""
    layers = [make_affine(a, b) for a, b in shapes]
    return TwoHeadMLP(layers[:-2], layers[-2], layers[-1])


def on_flat(shapes: list[tuple[int, int]], flat: np.ndarray) -> TwoHeadMLP:
    """A model whose parameters are views of flat: w then b for each layer of shapes in order."""
    parts = iter(np.split(flat, np.cumsum([n for a, b in shapes for n in (a * b, b)])[:-1]))
    return assemble(shapes, lambda a, b: Affine(next(parts).reshape(a, b), next(parts)))


def init_model(
    input_dim: int,
    hidden_dims: list[int],
    feature_dim: int,
    c_l: int,
    c_u: int,
    seed: int,
) -> TwoHeadMLP:
    """Build a freshly initialized model; identical seeds give identical weights."""
    shapes = layer_shapes(input_dim, hidden_dims, feature_dim, c_l, c_u)
    if min(map(min, shapes)) < 1:
        raise ValueError("all layer dims must be >= 1")
    rng = np.random.default_rng(seed)
    return assemble(shapes, lambda a, b: _init_affine(a, b, rng))


def parameter_count(
    input_dim: int, hidden_dims: list[int], feature_dim: int, c_l: int, c_u: int
) -> int:
    """Total parameter count for a model of the given geometry."""
    shapes = layer_shapes(input_dim, hidden_dims, feature_dim, c_l, c_u)
    return sum((a + 1) * b for a, b in shapes)


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

    The activations are the checked input, then each hidden layer's output:
    one per backbone layer, the last being the last layer's input. The
    feature is never built: no ReLU follows the last backbone layer, so it
    is folded into each head (_fold()). backward() takes the activations, so
    it needs neither the input nor a second forward pass. A caller that
    needs only the logits drops the activations; until then each hidden
    layer holds rows x width floats, and a float64 batch is not copied.
    """
    h = _check_batch(model, batch)
    acts = [h]
    for layer in model.backbone[:-1]:
        # bias and ReLU in place: no second temporary of the layer's size
        h = h @ layer.w
        h += layer.b
        np.maximum(h, 0.0, out=h)
        acts.append(h)
    (w_l, c_l), (w_u, c_u) = _fold(model, model.old_head), _fold(model, model.new_head)
    z_l, z_u = h @ w_l, h @ w_u
    z_l += c_l  # the folded biases in place too
    z_u += c_u
    return acts, z_l, z_u


def _fold(model: TwoHeadMLP, head: Affine) -> tuple[np.ndarray, np.ndarray]:
    """(W @ H, b @ H + c): head (H, c) composed with the last backbone layer (W, b)."""
    last = model.backbone[-1]
    c = last.b @ head.w
    c += head.b
    return last.w @ head.w, c


def backward(
    model: TwoHeadMLP,
    acts: list[np.ndarray],
    grad_z_l: np.ndarray | None,
    grad_z_u: np.ndarray | None,
    grads: TwoHeadMLP,
    freeze_backbone: bool = False,
) -> None:
    """Add the gradients of sum(grad_z_l * z_l) + sum(grad_z_u * z_u) into grads.

    acts are the activations forward() returned, or the same rows of each;
    grads holds one array per parameter of the model, such as
    RmspropState.grad. A None upstream gradient marks a silent head: it adds
    nothing and costs no matmul. With freeze_backbone the backbone part is
    skipped and adds nothing; the head gradients are the same either way.
    """
    last = model.backbone[-1]
    if len(acts) != len(model.backbone) or acts[-1].shape != (len(acts[0]), last.fan_in):
        raise ValueError("activations do not match the model")
    if [p.shape for p in iter_params(grads)] != [p.shape for p in iter_params(model)]:
        raise ValueError("gradient store does not match the model")
    n = len(acts[0])
    heads = [
        (head, store, np.asarray(g, dtype=np.float64))
        for head, store, g in (
            (model.old_head, grads.old_head, grad_z_l),
            (model.new_head, grads.new_head, grad_z_u),
        )
        if g is not None
    ]
    if any(g.shape != (n, head.fan_out) for head, _, g in heads):
        raise ValueError("upstream gradient shapes do not match head outputs")
    # the feature is a @ W + b, so a head's gradient reaches W through
    # a.T @ g and the last layer's input through g @ (W @ H).T
    a, d_w, d_b, d_a = acts[-1], [], [], []
    for head, store, g in heads:
        big_g, s = a.T @ g, g.sum(axis=0)
        store.w += last.w.T @ big_g + np.outer(last.b, s)
        store.b += s
        if not freeze_backbone:
            d_w.append(big_g @ head.w.T)
            d_b.append(s @ head.w.T)
            if len(acts) > 1:  # the input needs no gradient
                d_a.append(g @ _fold(model, head)[0].T)
    if not d_w:  # frozen, or both heads silent
        return
    # summed over the heads first: one add per parameter and call
    grads.backbone[-1].w += sum(d_w[1:], d_w[0])
    grads.backbone[-1].b += sum(d_b[1:], d_b[0])

    d_h = sum(d_a[1:], d_a[0]) if d_a else None  # the gradient of a
    for i in range(len(acts) - 2, -1, -1):
        # ReLU sits between backbone affines, so after every hidden layer
        d_h = d_h * (acts[i + 1] > 0.0)
        grads.backbone[i].w += acts[i].T @ d_h
        grads.backbone[i].b += d_h.sum(axis=0)
        if i > 0:
            d_h = d_h @ model.backbone[i].w.T


def iter_params(model: TwoHeadMLP):
    """Yield every parameter array, in checkpoint declaration order: w then b per layer."""
    for layer in (*model.backbone, model.old_head, model.new_head):
        yield layer.w
        yield layer.b
