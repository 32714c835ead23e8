"""RMSprop with all gradients and running second moments in flat vectors."""

from __future__ import annotations

import numpy as np

from .nn import TwoHeadMLP, iter_params, layer_shapes, on_flat, parameter_count

RHO, EPS = 0.9, 1e-8  # decay of the mean of squared gradients; added to its square root


class RmspropState:
    """Running mean of squared gradients for every model parameter.

    Update rule per parameter: v <- RHO*v + (1-RHO)*g^2, then
    p <- p - lr * g / (sqrt(v) + EPS). Deterministic and in-place. Every v
    lives in one flat vector, `flat`, in iter_params order, and every g in
    another, viewed model-shaped as grad. nn.backward adds into grad, and a
    step runs each ufunc once over the whole vector, then clears grad.
    """

    def __init__(self, model: TwoHeadMLP, lr: float):
        if not (np.isfinite(lr) and lr > 0):
            raise ValueError("learning rate must be positive and finite")
        self.lr = lr
        dims = model.input_dim, model.hidden_dims, model.feature_dim, model.c_l, model.c_u
        shapes, size = layer_shapes(*dims), parameter_count(*dims)
        self.flat, self._g, self._t, self._u = (np.zeros(size) for _ in range(4))
        self.grad = on_flat(shapes, self._g)
        self._u_views = list(iter_params(on_flat(shapes, self._u)))

    def step(self, params: TwoHeadMLP) -> None:
        """Update params in place from the gradients added into grad, then zero grad."""
        ps = list(iter_params(params))
        if [p.shape for p in ps] != [du.shape for du in self._u_views]:
            raise ValueError("parameter shapes do not match the optimizer state")
        g, t, u, v = self._g, self._t, self._u, self.flat
        v *= RHO
        np.multiply(1.0 - RHO, g, out=t)
        t *= g
        v += t
        np.multiply(self.lr, g, out=u)
        g.fill(0.0)
        np.sqrt(v, out=t)
        t += EPS
        u /= t
        for p, du in zip(ps, self._u_views):
            p -= du
